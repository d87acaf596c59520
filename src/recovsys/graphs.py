"""Word-labeled directed multigraphs and exact path/word counting.

Vertices carry equal-length words over the alphabet ``[q] = {0, ..., q-1}``
and are kept in base-q numeric (equivalently lexicographic) order, so vertex
ids double as ranks.  Edges carry word labels: presentations emit one symbol
per edge, while graph powers emit whole vertex words.  Everything here is
immutable and every function is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

Word = tuple[int, ...]
Edge = tuple[int, int, Word]

PERRON_REL_TOL = 1e-14
PERRON_POWER_STEPS = 256
PERRON_CERT_TOL = 1e-12
PERRON_CERT_STEPS = 2048
ENUM_WORD_CAP = 2_000_000
ENUM_FALLBACK_MAX_N = 20
ENUM_FALLBACK_MAX_Q = 4


def word_from_int(value: int, q: int, length: int) -> Word:
    """Base-q digits of `value`, most significant first, padded to `length`."""
    if value < 0 or (q == 1 and value > 0) or (q > 1 and value >= q**length):
        raise ValueError(f"{value} does not fit in {length} base-{q} digits")
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        value, digits[i] = divmod(value, q)
    return tuple(digits)


def word_to_int(word: Word, q: int) -> int:
    value = 0
    for digit in word:
        value = value * q + digit
    return value


@dataclass(frozen=True)
class LabeledDigraph:
    """Directed multigraph with word labels on vertices and edges.

    Parameters
    ----------
    q : alphabet size, at least 1.
    labels : vertex words, equal length, strictly increasing numerically;
        the position of a word is its vertex id.
    edges : (from_id, to_id, label_word) triples.  Repeating an identical
        triple encodes edge multiplicity (graph powers do this); otherwise
        parallel edges carry distinct labels.
    """

    q: int
    labels: tuple[Word, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        lengths = {len(w) for w in self.labels}
        if len(lengths) > 1:
            raise ValueError("vertex labels must have equal length")
        for w in self.labels:
            if not w:
                raise ValueError("vertex labels must be nonempty words")
            if any(c < 0 or c >= self.q for c in w):
                raise ValueError(f"label {w} is not a word over [{self.q}]")
        for prev, cur in zip(self.labels, self.labels[1:]):
            if prev >= cur:
                raise ValueError("vertex labels must be strictly increasing")
        n = len(self.labels)
        elens = set()
        for u, v, lab in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if not lab or any(c < 0 or c >= self.q for c in lab):
                raise ValueError(f"edge label {lab} is not a word over [{self.q}]")
            elens.add(len(lab))
        if len(elens) > 1:
            raise ValueError("edge labels must have uniform length")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def label_len(self) -> int:
        return len(self.labels[0]) if self.labels else 0

    @property
    def edge_label_len(self) -> int:
        return len(self.edges[0][2]) if self.edges else 0

    def successors(self) -> list[list[tuple[int, Word]]]:
        """Adjacency lists: for each vertex the (target, edge label) pairs."""
        succ: list[list[tuple[int, Word]]] = [[] for _ in self.labels]
        for u, v, lab in self.edges:
            succ[u].append((v, lab))
        return succ


def window_presentation(q: int, windows: Iterable[Word]) -> LabeledDigraph:
    """Standard presentation of the 1-step shift of finite type on `windows`.

    The windows are equal-length words over ``[q]`` of length at least 2.
    Vertices are their prefixes and suffixes, in numeric order, and each
    window ``w`` is one edge ``w[:-1] -> w[1:]`` labeled ``w[-1:]``; a
    repeated window is one edge.  No other vertex is created, so the graph
    is as large as the allowed windows, whatever ``q**len(w)`` is.
    """
    wins = sorted(set(windows))
    labels = sorted({w[:-1] for w in wins} | {w[1:] for w in wins})
    index = {w: i for i, w in enumerate(labels)}
    edges = tuple((index[w[:-1]], index[w[1:]], w[-1:]) for w in wins)
    return LabeledDigraph(q, tuple(labels), edges)


def de_bruijn(q: int, d: int) -> LabeledDigraph:
    """De Bruijn graph of order `d` over ``[q]``.

    The window presentation of every ``(d+1)``-word: vertices are all
    ``q**d`` words of length `d`, and `u` has an edge to `v`, labeled with
    the last symbol of `v`, exactly when `v` is the tail of `u` extended by
    that symbol.
    """
    if q < 1 or d < 1:
        raise ValueError("de Bruijn graphs need q >= 1 and d >= 1")
    return window_presentation(q, product(range(q), repeat=d + 1))


def adjacency(G: LabeledDigraph) -> np.ndarray:
    """Integer adjacency matrix; entry (u, v) counts edges from u to v."""
    n = G.n_vertices
    A = np.zeros((n, n), dtype=np.int64)
    for u, v, _ in G.edges:
        A[u, v] += 1
    return A


def higher_power(G: LabeledDigraph, m: int) -> LabeledDigraph:
    """Graph on the same vertices with one edge per length-`m` path.

    The edge for a path ending at `v` is labeled with the word of `v`, so
    each transition emits a whole vertex word.  The adjacency matrix of the
    result equals ``adjacency(G) ** m`` entrywise.
    """
    if m < 1:
        raise ValueError("path length m must be at least 1")
    P = _exact_power(adjacency(G), m).tolist()
    edges = []
    for u in range(G.n_vertices):
        for v in range(G.n_vertices):
            edges.extend([(u, v, G.labels[v])] * P[u][v])
    return LabeledDigraph(G.q, G.labels, tuple(edges))


def scc_decompose(G: LabeledDigraph) -> list[tuple[int, ...]]:
    """Strongly connected components as sorted vertex-id tuples.

    Components are returned ordered by their smallest vertex id.
    """
    return sorted(tuple(c) for c in _matrix_sccs(adjacency(G)))


def is_strongly_connected(G: LabeledDigraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if G.n_vertices <= 1:
        return True
    return len(scc_decompose(G)) == 1


def essential_subgraph(G: LabeledDigraph) -> LabeledDigraph:
    """Induced subgraph on vertices with bi-infinite paths through them.

    Iteratively drops vertices of in-degree or out-degree zero.  The peel
    reads the count matrix: each round subtracts the rows and columns of the
    vertices it drops from the degree vectors, so the whole peel costs
    O(V**2) array work.  Labels and surviving edges keep their order.  This
    is the explicit pruning operation: no other function ever removes
    vertices from a graph it returns.
    """
    A = adjacency(G)
    outd, ind = A.sum(axis=1), A.sum(axis=0)
    alive = np.ones(G.n_vertices, dtype=bool)
    dead = (outd == 0) | (ind == 0)
    while dead.any():
        alive &= ~dead
        outd = outd - A[:, dead].sum(axis=1)
        ind = ind - A[dead].sum(axis=0)
        dead = alive & ((outd == 0) | (ind == 0))
    keep = alive.tolist()
    remap = (np.cumsum(alive) - 1).tolist()
    labels = tuple(w for w, k in zip(G.labels, keep) if k)
    edges = tuple(
        (remap[u], remap[v], lab)
        for u, v, lab in G.edges
        if keep[u] and keep[v]
    )
    return LabeledDigraph(G.q, labels, edges)


def perron_eigenvalue(A: np.ndarray | Sequence[Sequence[float]]) -> float:
    """Spectral radius of a nonnegative matrix, certified to 1e-12 relative.

    Computed per strongly connected component with `perron_pair`, whose
    Collatz-Wielandt bracket on each component is at most 1e-12 wide
    relative, or which raises.  Degenerate matrices (no cycles at all)
    give 0.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if M.size and M.min() < 0:
        raise ValueError("adjacency matrix must be nonnegative")
    best = 0.0
    for comp in _matrix_sccs(M):
        sub = M[np.ix_(comp, comp)]
        if sub.shape[0] == 1 and sub[0, 0] == 0.0:
            continue
        lam, _ = perron_pair(sub)
        best = max(best, lam)
    return best


def perron_pair(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and right eigenvector of an irreducible matrix.

    For ``M = A + I`` and a positive vector ``v``, the Collatz-Wielandt
    bracket ``min(Mv/v) <= lam + 1 <= max(Mv/v)`` holds (Lind & Marcus,
    *Symbolic Dynamics and Coding*, ch. 4); the shift makes ``M``
    primitive, so periodic structure cannot stall the iteration.  Shifted
    power iteration from the uniform vector runs first, for at most
    `PERRON_POWER_STEPS` steps, and returns once the best bracket is
    `PERRON_REL_TOL` wide relative.  If it stalls or runs out of steps,
    the iteration restarts from the Perron column of ``numpy.linalg.eig``
    and returns once the bracket is `PERRON_CERT_TOL` wide relative.  The
    eigenvalue returned is the bracket's midpoint; a bracket still wider
    than `PERRON_CERT_TOL` after `PERRON_CERT_STEPS` more steps raises
    RuntimeError, so no uncertified estimate is ever returned.
    """
    A = np.asarray(A, dtype=float)
    M = A + np.eye(A.shape[0])
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    lo_best, hi_best = 0.0, math.inf
    stall = 0
    for _ in range(PERRON_POWER_STEPS):
        w = M @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        improved = lo > lo_best or hi < hi_best
        lo_best = max(lo_best, lo)
        hi_best = min(hi_best, hi)
        v = w / w.max()
        if hi_best - lo_best <= PERRON_REL_TOL * hi_best:
            return 0.5 * (lo_best + hi_best) - 1.0, v / v.sum()
        stall = 0 if improved else stall + 1
        if stall > 64:
            break
    vals, vecs = np.linalg.eig(A)
    v = M @ np.abs(vecs[:, np.argmax(vals.real)])
    v = v / v.max()
    # An entry of v that rounded to zero gives an inf or nan ratio; nan
    # bounds lose every comparison below, so they never tighten the bracket,
    # and an infinite hi_best fails the closing test.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PERRON_CERT_STEPS):
            w = M @ v
            ratios = w / v
            lo_best = max(lo_best, float(ratios.min()))
            hi_best = min(hi_best, float(ratios.max()))
            v = w / w.max()
            if lo_best >= (1.0 - PERRON_CERT_TOL) * hi_best:
                return 0.5 * (lo_best + hi_best) - 1.0, v / v.sum()
    raise RuntimeError(
        f"Perron solver did not converge: lam + 1 in [{lo_best!r}, {hi_best!r}] "
        f"after {PERRON_CERT_STEPS} certification steps"
    )


def trace_power(A: np.ndarray | Sequence[Sequence[int]], n: int) -> int:
    """Exact trace of ``A**n`` over the integers (``A**0`` is the identity).

    The diagonal is summed as Python ints: an int64 sum can wrap even when
    every entry fits.
    """
    return np.diagonal(_exact_power(A, n)).sum(dtype=object)


def path_count(A: np.ndarray | Sequence[Sequence[int]], n: int) -> int:
    """Exact number of length-`n` paths: the entry sum of ``A**n``.

    The entries are summed as Python ints, so the total is exact however
    large it grows.
    """
    return _exact_power(A, n).sum(dtype=object)


def words_of_length(G: LabeledDigraph, n: int) -> frozenset[Word]:
    """All length-`n` words of the system presented by `G`.

    Words of the system are the words spelled inside bi-infinite label paths,
    so enumeration runs on the essential subgraph: a path there spells its
    start-vertex word followed by its edge labels.  Requires single-symbol
    edge labels.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    if G.edges and G.edge_label_len != 1:
        raise ValueError("word enumeration needs single-symbol edge labels")
    E = essential_subgraph(G)
    if not E.labels:
        return frozenset()
    L = E.label_len
    if n <= L:
        return frozenset(w[:n] for w in E.labels)
    succ = E.successors()
    frontier: dict[Word, set[int]] = {w: {u} for u, w in enumerate(E.labels)}
    for _ in range(n - L):
        nxt: dict[Word, set[int]] = {}
        for word, ends in frontier.items():
            for u in ends:
                for v, lab in succ[u]:
                    nxt.setdefault(word + lab, set()).add(v)
        frontier = nxt
        if len(frontier) > ENUM_WORD_CAP:
            raise ValueError("word enumeration exceeded the configured cap")
    return frozenset(frontier)


def count_words(G: LabeledDigraph, n: int) -> int:
    """Exact number of length-`n` words of the system presented by `G`.

    When every vertex emits distinctly labeled edges the presentation is
    deterministic, paths biject with words, and the count is the exact
    `path_count` of length ``n - L`` on the essential subgraph, where ``L``
    is the vertex word length; otherwise the word set is enumerated
    explicitly, which is capped at ``n <= ENUM_FALLBACK_MAX_N`` and
    ``q <= ENUM_FALLBACK_MAX_Q``.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    if G.edges and G.edge_label_len != 1:
        raise ValueError("word counting needs single-symbol edge labels")
    E = essential_subgraph(G)
    if not E.labels:
        return 0
    L = E.label_len
    if n <= L:
        return len({w[:n] for w in E.labels})
    if _is_deterministic(E):
        return path_count(adjacency(E), n - L)
    if n > ENUM_FALLBACK_MAX_N or G.q > ENUM_FALLBACK_MAX_Q:
        raise ValueError(
            "nondeterministic presentation: explicit enumeration capped at "
            f"n <= {ENUM_FALLBACK_MAX_N}, q <= {ENUM_FALLBACK_MAX_Q}"
        )
    return len(words_of_length(G, n))


def log_base(x: float, q: int) -> float:
    """log_q(x); alphabets of size 1 carry zero information per symbol."""
    if q == 1:
        return 0.0
    return math.log(x) / math.log(q)


def _is_deterministic(G: LabeledDigraph) -> bool:
    seen: set[tuple[int, Word]] = set()
    for u, _, lab in G.edges:
        if (u, lab) in seen:
            return False
        seen.add((u, lab))
    return True


def _exact_power(A: np.ndarray | Sequence[Sequence[int]], e: int) -> np.ndarray:
    """``A**e`` for a nonnegative integer matrix, exact.

    Every entry of ``A**j``, and every partial sum of a product of two such
    powers, is at most ``r**j`` for the largest row sum ``r``; so when
    ``r**e < 2**63`` numpy int64 cannot wrap and is used, and otherwise the
    power is taken over Python ints (object dtype).  This is the only place
    that raises an integer matrix to a power.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    M = np.asarray(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    X = np.array([[int(x) for x in r] for r in M.tolist()], dtype=object).reshape(M.shape)
    if (X < 0).any():
        raise ValueError("matrix must be nonnegative")
    r = max(X.sum(axis=1), default=0)
    if r < 2**63 and (r < 2 or e < 63 and r**e < 2**63):
        X = X.astype(np.int64)
    return np.linalg.matrix_power(X, e)


def _matrix_sccs(A: np.ndarray) -> list[list[int]]:
    rows, cols = np.nonzero(A > 0)
    ends = np.cumsum(np.bincount(rows, minlength=A.shape[0])).tolist()
    targets = cols.tolist()
    succ = [targets[start:end] for start, end in zip([0] + ends, ends)]
    return [sorted(c) for c in _tarjan(succ)]


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    # Iterative Tarjan; recursion would overflow on multi-thousand-vertex
    # presentations.
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps
