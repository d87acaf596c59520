from itertools import product

import numpy as np
import pytest

import recovsys as rs
from recovsys.graphs import LabeledDigraph, Word, window_presentation
from recovsys.storage import WordRows

BINARY_FORBIDDEN = frozenset({(0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 1, 1)})
BINARY_ALLOWED = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1))


def word_from_int(value: int, q: int, length: int) -> Word:
    """Base-q digits of `value`, most significant first, padded to `length`."""
    if value < 0 or (q == 1 and value > 0) or (q > 1 and value >= q**length):
        raise ValueError(f"{value} does not fit in {length} base-{q} digits")
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        value, digits[i] = divmod(value, q)
    return tuple(digits)


def is_admissible(F: rs.ForbiddenSet) -> bool:
    """Oracle: True iff every boundary pair forbids at least ``q**k - 1`` middles."""
    middles = list(product(range(F.q), repeat=F.k))
    need = F.q**F.k - 1
    for u in product(range(F.q), repeat=F.l):
        for v in product(range(F.q), repeat=F.l):
            hits = sum(1 for w in middles if u + w + v in F.words)
            if hits < need:
                return False
    return True


def forbidden_from_graph(G: LabeledDigraph, k: int, l: int) -> rs.ForbiddenSet:
    """Oracle: the forbidden set of a presented system, the complement of its words."""
    n = 2 * l + k
    allowed = rs.words_of_length(G, n)
    words = frozenset(w for w in product(range(G.q), repeat=n) if w not in allowed)
    return rs.ForbiddenSet(G.q, k, l, words)


@pytest.fixture(scope="session")
def binary_system() -> rs.RecoverableSystem:
    """The unique binary (1,1) system of maximum capacity, built from its allowed windows."""
    G = window_presentation(2, BINARY_ALLOWED)
    assert G == rs.presentation_from_forbidden(rs.ForbiddenSet(2, 1, 1, BINARY_FORBIDDEN))
    res = rs.verify_recoverable(G, 1, 1)
    assert res.ok
    return rs.RecoverableSystem(2, 1, 1, G, dict(res.table), "binary_max_capacity")


@pytest.fixture(scope="session")
def edge4_system() -> rs.RecoverableSystem:
    return rs.edge_cover_system(2, "square", l=1)


@pytest.fixture(scope="session")
def trunc8_system() -> rs.RecoverableSystem:
    return rs.truncated_debruijn_system(8)


@pytest.fixture(scope="session")
def construction_suite(binary_system, edge4_system, trunc8_system):
    return {
        "binary_max_capacity": binary_system,
        "edge_cover_q4": edge4_system,
        "truncated_q8": trunc8_system,
    }


def brute_force_word_count(q: int, n: int, forbidden: frozenset) -> int:
    """Independent oracle: scan every q**n word for forbidden subwords."""
    if not forbidden:
        return q**n
    L = len(next(iter(forbidden)))
    count = 0
    for w in product(range(q), repeat=n):
        if n < L or not any(w[i : i + L] in forbidden for i in range(n - L + 1)):
            count += 1
    return count


def tuple_window_presentation(q, windows):
    """Oracle: the window presentation built from sets and dicts of tuples."""
    wins = sorted(set(windows))
    labels = sorted({w[:-1] for w in wins} | {w[1:] for w in wins})
    index = {w: i for i, w in enumerate(labels)}
    edges = tuple((index[w[:-1]], index[w[1:]], w[-1:]) for w in wins)
    return LabeledDigraph(q, tuple(labels), edges)


def hop_distances(A) -> np.ndarray:
    """Shortest-path lengths by boolean reachability; -1 where unreachable.

    Entry (u, v) is the least d >= 0 such that a walk of d edges leads from
    u to v, so the diagonal is 0 and the diameter is the largest entry.
    """
    step = (np.asarray(A) > 0).astype(np.int64)
    n = step.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    reach = np.eye(n, dtype=bool)
    d = 0
    while True:
        dist[reach & (dist < 0)] = d
        grown = reach | ((reach.astype(np.int64) @ step) > 0)
        if (grown == reach).all():
            return dist
        reach = grown
        d += 1


def plastic_number() -> float:
    """Real root of x**3 - x - 1 by bisection on [1, 2]."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chorded_cycle_graph(n, length, start):
    """n-cycle with edges labelled 0 plus one chord start -> start+length labelled 1."""
    labels = tuple(word_from_int(i, 2, max(1, (n - 1).bit_length())) for i in range(n))
    edges = [(i, (i + 1) % n, (0,)) for i in range(n)] + [(start, (start + length) % n, (1,))]
    return LabeledDigraph(2, labels, edges)


def open_walk_points(G, n):
    """Oracle: the words of every length-n walk of the essential graph that closes.

    Walks all length-n paths with `graphs._paths`, keeps those that end where
    they start and lets `WordRows` sort the rows and drop repeats.
    """
    start, end, symbols = next(rs.graphs._paths(rs.essential_subgraph(G), n))
    return WordRows(symbols[start == end]).rows


def cycle_code(n, q, words, table=None):
    """`rs.CycleStorageCode` on words given as tuples, held as `WordRows`.

    Rows of nonnegative symbols take the smallest unsigned dtype that holds
    them, as periodic points do (object past 2**64 - 1); rows with a
    negative symbol stay int64.
    """
    words = sorted(words)
    rows = np.array(words, dtype=object).reshape(len(words), -1 if words else 0)
    rows = rows.astype(np.min_scalar_type(rows.max()) if rows.size and rows.min() >= 0 else np.int64)
    return rs.CycleStorageCode(n, q, WordRows(rows), {} if table is None else table)
