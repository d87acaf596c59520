"""Markov measures on presentations and their entropy-relaxed perturbations.

Two kinds of chains appear.  Sliding chains emit one symbol per transition
(states are words overlapping by all but one symbol), while block chains emit
their whole state word per transition; the entropy unit adapts through
``log_base = q ** emit`` so that rates are always per-symbol in base q and
directly comparable across the two kinds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping

import numpy as np

from .graphs import (
    ENUM_CAP,
    LabeledDigraph,
    Word,
    _is_deterministic,
    _paths,
    _ranked,
    _rows_by_target,
    _sorted_runs,
    _strictly_increasing,
    _within_enum_cap,
    _word_array,
    _word_grid,
    _word_rows,
    adjacency,
    higher_power,
    is_strongly_connected,
    perron_vectors,
    window_presentation,
)
from .systems import RecoverableSystem

STOCHASTIC_TOL = 1e-12
RECOVERABLE_TOL = 1e-10
MARGINAL_TOL = 1e-12
# Most edges (states**2) of an epsilon graph, whose build starts from a states x states mask.
EPSILON_GRAPH_EDGES = 4096**2


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain over word-labeled states.

    Parameters
    ----------
    q : symbol alphabet size, at least 1.
    state_rows : state words over ``[q]``, strictly increasing numerically,
        held as a read-only int64 array with a row each; `states` is its
        tuple view.
    P : row-stochastic transition matrix.
    p : stationary row vector (``p @ P == p``).
    emit : symbols emitted per transition, at least 1; entropies use base
        ``q**emit``.
    """

    q: int
    state_rows: np.ndarray
    P: np.ndarray
    p: np.ndarray
    emit: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.emit < 1:
            raise ValueError("q and emit must be at least 1")
        S = _word_array("state", self.state_rows)
        P = np.array(self.P, dtype=float)
        p = np.array(self.p, dtype=float)
        for name, value in (("state_rows", S), ("P", P), ("p", p)):
            object.__setattr__(self, name, value)
        n = len(S)
        if P.shape != (n, n) or p.shape != (n,):
            raise ValueError("matrix and vector shapes must match the state count")
        if not (np.isfinite(P).all() and np.isfinite(p).all()):
            raise ValueError("transition and stationary entries must be finite")
        bad = ((S < 0) | (S >= self.q)).any(axis=1)
        if bad.any():
            raise ValueError(f"state {tuple(S[bad.argmax()].tolist())} is not a word over [{self.q}]")
        if not _strictly_increasing(S):
            raise ValueError("states must be strictly increasing words")
        if abs(p.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("the stationary vector must sum to 1")
        if P.min() < 0:
            raise ValueError("transition probabilities must be nonnegative")
        if np.abs(P.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("every transition row must sum to 1")
        if np.abs(p @ P - p).max() > STOCHASTIC_TOL:
            raise ValueError("the vector is not stationary for the matrix")
        for a in (S, P, p):
            a.setflags(write=False)

    @cached_property
    def states(self) -> tuple[Word, ...]:
        """The state words as tuples, in state order."""
        return tuple(map(tuple, self.state_rows.tolist()))

    @property
    def log_base(self) -> int:
        return self.q**self.emit

    @property
    def state_len(self) -> int:
        return self.state_rows.shape[1]


class InconsistentMarginalError(ValueError):
    """A word distribution whose two sub-marginals disagree."""

    def __init__(self, word: Word, prefix_mass: float, suffix_mass: float):
        self.word = word
        super().__init__(
            f"marginal is not shift consistent at {word}: "
            f"prefix mass {prefix_mass!r} vs suffix mass {suffix_mass!r}"
        )


@dataclass(frozen=True)
class EpsilonParams:
    """Entropy budget and the perturbation rate it induces."""

    epsilon: float
    q: int
    k: int
    l: int
    delta: float


@dataclass(frozen=True)
class WindowEntropyReport:
    """Conditional middle-window entropies per boundary pair (base q).

    Pairs of zero probability are excluded from `entries` and listed in
    `zero_pairs`; `max_entropy` is 0 when no pair is populated.
    """

    entries: Mapping[tuple[Word, Word], float]
    zero_pairs: tuple[tuple[Word, Word], ...]
    max_entropy: float

    def within(self, epsilon: float) -> bool:
        """True iff `max_entropy` is at most epsilon, up to `RECOVERABLE_TOL`."""
        return self.max_entropy <= epsilon + RECOVERABLE_TOL


@dataclass(frozen=True, eq=False)
class EpsilonConstruction:
    """Perturbed measure nu, held as factors of its base measure mu.

    State i of nu is the window ``state_rows[i]`` (int64, sorted), whose
    parent, the state ``parent[i]`` of mu, differs from it at most in the
    middle k-word; ``weight[i]`` is 1 - delta for the parent's own window
    and delta / (q**k - 1) for each ghost, so the children of one parent
    carry weights summing to 1.  Then
    ``nu.P = mu.P[parent][:, parent] * weight`` and ``nu.p = p =
    mu.p[parent] * weight``.  The entropy rate and the window report are
    computed from these factors; `measure`, the dense and checked chain,
    and `states`, the tuple view of `state_rows`, are built only when read.

    `graph` is the presentation of the perturbed measure: one edge, labeled
    by its target, wherever the base chain moves between the two states'
    parents.  It is derived from the base chain on first read, so ghost
    edges are present even when delta is 0; more than `EPSILON_GRAPH_EDGES`
    possible edges (states**2) raise ValueError before any array is built.
    """

    base_measure: MarkovMeasure
    params: EpsilonParams
    state_rows: np.ndarray
    parent: np.ndarray
    weight: np.ndarray
    p: np.ndarray

    @cached_property
    def measure(self) -> MarkovMeasure:
        """The dense chain, built and checked by `MarkovMeasure` on first read."""
        mu = self.base_measure
        P = mu.P[np.ix_(self.parent, self.parent)] * self.weight
        return MarkovMeasure(mu.q, self.state_rows, P, self.p, mu.emit)

    @cached_property
    def states(self) -> tuple[Word, ...]:
        return tuple(map(tuple, self.state_rows.tolist()))

    @cached_property
    def graph(self) -> LabeledDigraph:
        n, cap = len(self.state_rows), EPSILON_GRAPH_EDGES
        if n * n > cap:
            raise ValueError(f"an epsilon graph on {n} states has up to {n * n} edges, over the cap of {cap}")
        src, dst = np.nonzero((self.base_measure.P > 0)[:, self.parent][self.parent])
        return _rows_by_target(self.base_measure.q, self.state_rows, src, dst, np.ones_like(src))

    def entropy_rate(self) -> float:
        """`entropy_rate` of `measure`, from the factors in O(|mu|**2).

        Row i of nu.P spreads each entry of mu.P's row ``parent[i]`` over
        the children of its column with their weights, so its entropy is
        that row's plus ``H_w = -(1-delta) ln(1-delta) - delta ln(delta /
        (q**k - 1))``.  A one-letter alphabet gives 0.
        """
        mu, delta = self.base_measure, self.params.delta
        if mu.log_base == 1:
            return 0.0
        spread = mu.q**self.params.k - 1
        h_w = -float(_xlogx(np.array([1 - delta, delta / spread])) @ [1, spread])
        rows = -_xlogx(mu.P).sum(axis=1)
        return float(self.p @ (rows[self.parent] + h_w)) / math.log(mu.log_base)

    def window_conditional_entropy(self) -> WindowEntropyReport:
        """`window_conditional_entropy(measure, k, l)`: each state is a window, with mass p."""
        return _window_report(self.state_rows, self.p, self.base_measure.q, self.params.k, self.params.l)


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def binary_entropy(x: float) -> float:
    """H_2(x) in bits, with 0 log 0 = 0."""
    return _hq(x, 2)


def _hq(x: float, q: int) -> float:
    if not 0 <= x <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    return -sum(t * math.log(t) for t in (x, 1.0 - x) if t > 0) / math.log(q)


def max_entropy_measure(G: LabeledDigraph) -> MarkovMeasure:
    """The unique entropy-maximizing Markov measure on presentation `G`.

    Left and right Perron vectors x, y are normalized to ``x . y = 1``; the
    chain has ``P[u, v] = A[u, v] * y[v] / (lam * y[u])`` and stationary
    vector ``p = x * y`` (the Parry measure), and its entropy rate equals
    the capacity of the presented system.  Both vectors, so normalized,
    come from one `graphs.perron_vectors` call.  Where power steps mix too
    slowly to reach 1e-14 within their budget, each vector is certified by
    shifted solves on the rescaled matrix and takes one solve past its
    closed bracket, which holds h to 1e-14 relative on a chorded
    300-cycle; the left solve shifts to the right one's certified upper
    end, as ``A`` and ``A.T`` share their spectral radius.  Requires a
    strongly connected graph with edges and at most one edge from any
    vertex to any other: a chain on vertices cannot tell parallel edges
    apart, so its entropy would miss theirs.  It must also be right-resolving
    (no vertex emits a label twice): on any other graph the capacity of the
    presented system can lie below log lam, the chain's entropy rate.
    """
    if not is_strongly_connected(G):
        raise ValueError("the max-entropy measure needs a strongly connected graph")
    if not G.src.size:
        raise ValueError("the max-entropy measure needs at least one edge")
    A = adjacency(G)
    if A.max() > 1:
        u, v = np.argwhere(A > 1)[0]
        raise ValueError(
            f"the max-entropy measure needs at most one edge per vertex pair; "
            f"vertex {u} has {A[u, v]} edges to vertex {v}"
        )
    if not _is_deterministic(G):
        raise ValueError(
            "the max-entropy measure needs a right-resolving presentation: a vertex emits a label twice"
        )
    A = A.astype(float)
    lam, y, x = perron_vectors(A)
    p = x * y
    P = A * y
    P /= lam * y[:, None]
    P /= P.sum(axis=1, keepdims=True)
    emit = G.edge_label_len
    return MarkovMeasure(G.q, G.label_rows, P, p, emit)


def entropy_rate(M: MarkovMeasure) -> float:
    """Per-transition Shannon entropy in base ``q**emit`` (per-symbol, base q); 0 when q = 1."""
    rows = -_xlogx(M.P).sum(axis=1)
    return float(M.p @ rows) / math.log(M.log_base) if M.log_base > 1 else 0.0


def window_marginal(M: MarkovMeasure, n: int) -> dict[Word, float]:
    """Distribution of length-`n` symbol windows under the measure, in numeric order.

    Windows up to the state word's length marginalize the states onto
    prefixes; at that length they are the states, with their own masses.
    Longer ones need a sliding single-symbol chain and are read along every
    state path from a positive-mass state, under the `ENUM_CAP` path test,
    multiplying transition probabilities in path order.
    """
    words, mass = _window_rows(M, n)
    return dict(zip(map(tuple, words.tolist()), mass.tolist()))


def _window_rows(M: MarkovMeasure, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The windows of `window_marginal` as distinct rows in numeric order, and their masses."""
    sl = M.state_len
    if n < 1:
        raise ValueError("window length must be at least 1")
    S = M.state_rows
    if n <= sl:
        return _mass_by_word(S[:, :n], M.p)
    if M.emit != 1:
        raise ValueError("windows longer than the state word need a single-symbol chain")
    src, dst = np.nonzero(M.P > 0)
    if not (S[src, 1:] == S[dst, :-1]).all():
        raise ValueError(
            "positive transition between non-overlapping states; "
            "this chain has no symbol-level reading"
        )
    # Each edge is labelled by its target's id, so a walk's symbols are its states.
    G = _rows_by_target(len(S), np.arange(len(S))[:, None], src, dst, np.ones_like(src))
    if not _within_enum_cap(G, n - sl):
        raise ValueError(f"length-{n} windows: explicit enumeration capped at {ENUM_CAP} paths")
    start, _, path = next(_paths(G, n - sl))
    states = np.column_stack((start, path))[M.p[start] > 0]
    mass = M.p[states[:, 0]]
    for j in range(n - sl):
        mass = mass * M.P[states[:, j], states[:, j + 1]]
    return _mass_by_word(np.hstack((S[states[:, 0]], S[states[:, 1:], -1])), mass)


def symbol_marginal(M: MarkovMeasure, n: int) -> dict[Word, float]:
    """Phase-averaged length-`n` window distribution of the symbol stream.

    For a block chain the emitted symbol stream is only block-stationary;
    averaging the window over all ``emit`` phases gives the marginal of the
    stationary symbol process, which is shift consistent by construction.
    """
    if M.emit == 1:
        return window_marginal(M, n)
    W = M.state_len
    if n > W:
        raise ValueError("phase-averaged windows are supported up to the block size")
    S = M.state_rows
    live = M.p > 0
    u, v = np.nonzero(live[:, None] & (M.P > 0))
    pairs = np.hstack((S[u], S[v]))
    # Phase i reads inside a state while i + n <= W and across a transition after.
    words, mass = zip(*(
        (S[live, i : i + n], M.p[live] / M.emit) if i + n <= W
        else (pairs[:, i : i + n], M.p[u] * M.P[u, v] / M.emit)
        for i in range(M.emit)
    ))
    words, mass = _mass_by_word(np.vstack(words), np.concatenate(mass))
    return dict(zip(map(tuple, words.tolist()), mass.tolist()))


def _mass_by_word(words: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `words` in numeric order, and the total `mass` of each.

    `np.bincount` adds each distinct row's masses one by one in row order.
    """
    words, rank = _ranked(words)
    return words, np.bincount(rank, weights=mass)


def window_conditional_entropy(M: MarkovMeasure, k: int, l: int) -> WindowEntropyReport:
    """Entropy of the middle k-word given each boundary pair, base q.

    Boundary pairs are all (left l-word, right l-word) combinations; pairs
    carrying zero probability are reported separately, mirroring the
    positive-mass hypothesis of the recovery guarantee.  `max_entropy` is
    the largest entry, which is at least the pair-weighted average that the
    abstract's conditional entropy reads as (see ERRATA.md).
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    return _window_report(*_window_rows(M, 2 * l + k), M.q, k, l)


def _window_report(windows: np.ndarray, mass: np.ndarray, q: int, k: int, l: int) -> WindowEntropyReport:
    """The report of `window_conditional_entropy` on distinct window rows and their masses.

    Sorted by (alpha, beta, middle), a pair's middles are one run: a `bincount`
    adds its total in order, and its entropy is the `.sum()` of its run of
    ``p ln p``, as of the pair's own array; a certain middle reads +0.0.
    """
    live = mass > 0
    rows, order, _ = _sorted_runs(windows[live][:, np.r_[0:l, l + k : 2 * l + k, l : l + k]])
    mass = mass[live][order]
    pairs, pair = _ranked(rows[:, : 2 * l])
    x = _xlogx(mass / np.bincount(pair, weights=mass)[pair])
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    sums = [x[i:j].sum() for i, j in zip(starts, [*starts[1:], len(x)])]
    values = ((0.0 - np.array(sums)) / math.log(q)).tolist() if q > 1 else [0.0] * len(sums)
    entries = {(tuple(r[:l]), tuple(r[l:])): h for r, h in zip(pairs.tolist(), values)}
    zero = tuple(ab for ab in product(product(range(q), repeat=l), repeat=2) if ab not in entries)
    return WindowEntropyReport(entries, zero, max(values, default=0.0))


def is_epsilon_recoverable(M: MarkovMeasure, epsilon: float, k: int, l: int) -> bool:
    """True iff every populated boundary pair has middle entropy <= epsilon.

    That is the maximum over pairs, not the abstract's pair-weighted average,
    so it is the stricter condition (see ERRATA.md).  The comparison allows
    `RECOVERABLE_TOL` of rounding above epsilon.
    """
    return window_conditional_entropy(M, k, l).within(epsilon)


def delta_from_epsilon(epsilon: float, q: int, k: int) -> float:
    """Perturbation rate whose entropy cost equals `epsilon`.

    Solves ``H_q(delta) + delta * log_q(q**k - 1) = epsilon`` by bisection on
    ``[0, (q**k - 1) / q**k]``, where the left side increases strictly from 0
    to its maximum k.  It halves until the midpoint rounds to an end, a fixed
    point: at most about 1,100 halvings, even for subnormal epsilon.
    """
    if q < 2 or k < 1:
        raise ValueError("the rate equation needs q >= 2 and k >= 1")
    if not 0 <= epsilon <= k + 1e-12:
        raise ValueError(f"epsilon must lie in [0, {k}]")
    if epsilon == 0:
        return 0.0
    spread = q**k - 1
    shift = math.log(spread) / math.log(q) if spread > 1 else 0.0

    def cost(d: float) -> float:
        return _hq(d, q) + d * shift

    lo, hi = 0.0, spread / q**k
    if epsilon >= cost(hi):
        delta = hi
    else:
        delta = 0.5 * (lo + hi)
        while lo < delta < hi:
            if cost(delta) < epsilon:
                lo = delta
            else:
                hi = delta
            delta = 0.5 * (lo + hi)
    if k > 1 and delta > (q - 1) / q:
        warnings.warn(
            f"delta={delta:.6f} exceeds (q-1)/q; the k=1 rate range does not "
            "cover this regime",
            stacklevel=2,
        )
    return delta


def higher_block_presentation(S: RecoverableSystem) -> LabeledDigraph:
    """Presentation of `S` on its occurring windows of length ``2l + k``.

    Vertices are the occurring window words, the table's `windows`; edges
    follow one-symbol overlap and carry the emitted symbol: the window
    presentation of the
    ``(2l + k + 1)``-words whose two ``(2l + k)``-subwords both occur.
    Those words are read as the two-edge paths of the window presentation
    of the occurring windows: every occurring window lies on a bi-infinite
    path of occurring windows, so that inner presentation is essential, and
    a two-edge path from it spells ``w + (a,)`` exactly when ``w`` and
    ``w[1:] + (a,)`` both occur.
    """
    allowed = S.recovery_table.windows
    if not len(allowed):
        raise ValueError("the system has no occurring windows")
    return window_presentation(S.q, _word_rows(window_presentation(S.q, allowed), 2 * S.l + S.k + 1))


def epsilon_construction(S: RecoverableSystem, epsilon: float) -> EpsilonConstruction:
    """Perturb a recoverable system into an entropy-epsilon measure.

    The system is re-presented on its length-``2l+k`` windows, raised to the
    ``2l+k`` power so each transition emits a whole window, and given its
    max-entropy measure.  Every window then gains ``q**k - 1`` ghost variants
    with the middle word replaced; transitions route mass delta to ghosts
    (split evenly) and keep 1 - delta on real targets: a transition carries
    the base mass between the two parents times the target's weight, and a
    state's mass is its parent's times its own weight.  The measure is kept
    as these factors (see `EpsilonConstruction`): the states are the base
    windows' rows repeated, their middles overwritten and sorted, and the
    checks of `MarkovMeasure` run on the factors in O(|mu|**2), with no
    dense chain.  Its entropy rate exceeds the base measure's by exactly
    ``epsilon / (2l + k)``.  A window reached from two base windows raises
    AssertionError: the input is not recoverable.
    """
    W, k, l = 2 * S.l + S.k, S.k, S.l
    params = EpsilonParams(epsilon, S.q, k, l, delta_from_epsilon(epsilon, S.q, k))
    mu = max_entropy_measure(higher_power(higher_block_presentation(S), W))
    base = mu.state_rows
    middles = _word_grid(S.q, k)
    windows = np.repeat(base, len(middles), axis=0)
    windows[:, l : l + k] = np.tile(middles, (len(base), 1))
    parent = np.repeat(np.arange(len(base)), len(middles))
    real = (windows[:, l : l + k] == base[parent, l : l + k]).all(axis=1)
    windows, order, new = _sorted_runs(windows)
    if not new.all():
        g = tuple(windows[np.argmin(new)].tolist())
        raise AssertionError(f"window {g} has two parents; the input is not recoverable")
    parent, real = parent[order], real[order]
    weight = np.where(real, 1 - params.delta, params.delta / (len(middles) - 1))
    p = mu.p[parent] * weight
    _check_factored_chain(mu, parent, weight, p)
    for a in (windows, parent, weight, p):
        a.setflags(write=False)
    return EpsilonConstruction(mu, params, windows, parent, weight, p)


def _check_factored_chain(mu: MarkovMeasure, parent: np.ndarray, weight: np.ndarray, p: np.ndarray) -> None:
    """The checks of `MarkovMeasure` on ``(mu.P[parent][:, parent] * weight, p)``.

    With ``s[a]`` the weight of the children of a, row i sums to
    ``(mu.P @ s)[parent[i]]`` and ``p @ P`` is ``((mu.p * s) @ mu.P)[parent]
    * weight``.  Every base state has children, and the factors are finite
    and nonnegative, so these are the dense checks exactly.
    """
    s = np.bincount(parent, weights=weight, minlength=len(mu.p))
    if abs(p.sum() - 1.0) > STOCHASTIC_TOL:
        raise ValueError("the stationary vector must sum to 1")
    if np.abs(mu.P @ s - 1.0).max() > STOCHASTIC_TOL:
        raise ValueError("every transition row must sum to 1")
    if np.abs(((mu.p * s) @ mu.P)[parent] * weight - p).max() > STOCHASTIC_TOL:
        raise ValueError("the vector is not stationary for the matrix")


def markov_approximation(marginal: Mapping[Word, float], m: int, q: int) -> MarkovMeasure:
    """Sliding chain of memory ``m - 1`` matching a length-`m` marginal.

    The marginal must be shift consistent (its two length-``m-1`` marginals
    agree within `MARGINAL_TOL`), which makes the derived chain stationary;
    among all shift-invariant measures with this marginal the result
    maximizes the entropy rate, and the construction is the identity on
    chains that are already Markov of memory ``m - 1``.
    """
    if m < 2:
        raise ValueError("the approximation needs windows of length at least 2")
    for w, pr in marginal.items():
        if len(w) != m:
            raise ValueError(f"marginal word {w} does not have length {m}")
        if pr < -MARGINAL_TOL:
            raise ValueError("marginal probabilities must be nonnegative")
    total = sum(marginal.values(), 0.0)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"marginal masses sum to {total!r}, not 1")
    words = _word_array("marginal", marginal)
    bad = ((words < 0) | (words >= q)).any(axis=1)
    if bad.any():
        raise ValueError(f"marginal word {tuple(words[bad.argmax()].tolist())} is not over [{q}]")
    mass = np.fromiter(marginal.values(), float, len(words))
    # every (m-1)-word in order; word r's prefix is word pre[r] and its suffix suf[r]
    ends, at = _ranked(np.vstack((words[:, :-1], words[:, 1:])))
    pre, suf = np.split(at, 2)
    prefix, suffix = (np.bincount(i, weights=mass, minlength=len(ends)) for i in (pre, suf))
    bad = np.flatnonzero(np.abs(prefix - suffix) > MARGINAL_TOL)
    if bad.size:
        raise InconsistentMarginalError(tuple(ends[bad[0]].tolist()), float(prefix[bad[0]]), float(suffix[bad[0]]))
    live = prefix > 0
    r = np.flatnonzero((mass > 0) & live[pre])
    gone = r[~live[suf[r]]]
    if gone.size:
        g = gone[np.lexsort(words[gone].T[::-1])[0]]
        raise InconsistentMarginalError(tuple(ends[suf[g]].tolist()), 0.0, float(mass[g]))
    state = np.cumsum(live) - 1
    P = np.zeros((np.count_nonzero(live),) * 2)
    P[state[pre[r]], state[suf[r]]] = mass[r] / prefix[pre[r]]
    P = P / P.sum(axis=1, keepdims=True)
    return MarkovMeasure(q, ends[live], P, prefix[live] / prefix[live].sum(), 1)


def map_decoder(
    M: MarkovMeasure, k: int, l: int, alpha: Word, beta: Word
) -> tuple[Word, float]:
    """Most probable middle k-word given the boundary pair, with its probability.

    Ties break toward the numerically smallest middle word.  When the measure
    is epsilon-recoverable with ``epsilon < 2 / q**k`` the returned
    probability is at least ``1 - epsilon / 2``.
    """
    if len(alpha) != l or len(beta) != l:
        raise ValueError("boundary words must have length l")
    marg = window_marginal(M, 2 * l + k)
    mass = [(w, marg.get(alpha + w + beta, 0.0)) for w in product(range(M.q), repeat=k)]
    total = sum(pr for _, pr in mass)
    if total <= 0.0:
        raise ValueError(f"boundary pair ({alpha}, {beta}) has zero probability")
    best, best_pr = max(mass, key=lambda e: e[1])
    return best, best_pr / total
