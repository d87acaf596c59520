"""Word-labeled directed multigraphs and exact path/word counting.

Vertices carry equal-length words over the alphabet ``[q] = {0, ..., q-1}``
and are kept in base-q numeric (equivalently lexicographic) order, so vertex
ids double as ranks.  Edges carry word labels: presentations emit one symbol
per edge, while graph powers emit whole vertex words.  Words are held as
rows of int64 arrays, one row per vertex label and per label word, checked
once with array operations; the tuples of `labels` and `words` are views
built on first read.  Edges are stored once, as int64 arrays with one row
per edge and a multiplicity.  Trace and path counts are exact: taken modulo
word-size pairwise coprime moduli and rebuilt by the Chinese remainder
theorem.  The arrays are read-only, the class is frozen and the module holds
no mutable state, so graphs are immutable and every function is pure, which
makes concurrent use safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Word = tuple[int, ...]
Edge = tuple[int, int, Word]

PERRON_REL_TOL = 1e-14
PERRON_POWER_STEPS = 256
PERRON_CERT_TOL = 1e-12
PERRON_CERT_STEPS = 32
ENUM_CAP = 1_000_000
# Bound on each (K, V, V) float64 residue stack of `_crt_count`.
_RESIDUE_BYTES = 1 << 20


@dataclass(frozen=True, init=False, eq=False)
class LabeledDigraph:
    """Directed multigraph with word labels on vertices and edges.

    Parameters
    ----------
    q : alphabet size, at least 1.
    labels : vertex words, equal length, strictly increasing numerically;
        the position of a word is its vertex id.
    edges : (from_id, to_id, label_word) triples, such as a graph file
        holds; builders pass rows to `_from_rows` instead.  One row each.

    Words are held as rows of read-only int64 arrays: `label_rows`, one row
    per vertex, and `word_rows`, the table of label words.  The edge rows
    are `src`, `dst`, `lab` (a row of `word_rows`) and `count`, the edge's
    multiplicity: a graph power keeps one row per vertex pair.  `labels`,
    `words` and `edges` are tuple views, built on first read.  Graphs are
    equal when q, labels and `edges` are; equality compares the rows, never
    expanding them.
    """

    q: int
    label_rows: np.ndarray
    word_rows: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    lab: np.ndarray
    count: np.ndarray

    def __init__(self, q: int, labels: Sequence[Word], edges: Iterable[Edge]) -> None:
        triples = tuple(edges)
        words = sorted({lab for _, _, lab in triples})
        ids = {w: i for i, w in enumerate(words)}
        rows = [(operator.index(u), operator.index(v), ids[w]) for u, v, w in triples]
        rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
        self._fill(q, labels, words, *rows.T, np.ones(len(triples)))

    @classmethod
    def _from_rows(cls, q, labels, words, src, dst, lab, count) -> LabeledDigraph:
        """Graph on word arrays or sequences of words, and edge rows."""
        G = cls.__new__(cls)
        G._fill(q, labels, words, src, dst, lab, count)
        return G

    def _fill(self, q, labels, words, *rows) -> None:
        values = (_word_array("vertex", labels), _word_array("edge", words))
        values += tuple(np.asarray(r, dtype=np.int64) for r in rows)
        for value in values:
            value.setflags(write=False)
        for f, value in zip(fields(self), (q, *values)):
            object.__setattr__(self, f.name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        for kind, rows in (("vertex", self.label_rows), ("edge", self.word_rows)):
            bad = ((rows < 0) | (rows >= self.q)).any(axis=1) | (rows.shape[1] == 0)
            if bad.any():
                w = tuple(rows[bad.argmax()].tolist())
                raise ValueError(f"{kind} label {w} is not a nonempty word over [{self.q}]")
            if not _strictly_increasing(rows):
                raise ValueError(f"{kind} labels must be strictly increasing")
        n = len(self.label_rows)
        bad = (self.src < 0) | (self.src >= n) | (self.dst < 0) | (self.dst >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({self.src[i]}, {self.dst[i]}) references a missing vertex")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        if self.q != other.q or not np.array_equal(self.label_rows, other.label_rows):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self._runs(), other._runs()))

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst, label word) rows with adjacent equal rows merged, and their counts.

        Merging sums the counts, so two graphs have the same `edges` exactly
        when their runs are equal, whatever unused words their tables hold.
        """
        words = self.word_rows[self.lab].reshape(self.lab.size, self.edge_label_len)
        rows = np.column_stack((self.src, self.dst, words))
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        runs = np.add.reduceat(self.count, starts) if starts.size else self.count
        return rows[starts], runs

    @cached_property
    def labels(self) -> tuple[Word, ...]:
        """The vertex words as tuples, in vertex order."""
        return tuple(map(tuple, self.label_rows.tolist()))

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The label words as tuples, in `word_rows` order."""
        return tuple(map(tuple, self.word_rows.tolist()))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The (from_id, to_id, label_word) triples, each row repeated `count` times."""
        rows = zip(self.src.tolist(), self.dst.tolist(), self.lab.tolist(), self.count.tolist())
        return tuple(e for u, v, a, c in rows for e in [(u, v, self.words[a])] * c)

    @property
    def n_vertices(self) -> int:
        return len(self.label_rows)

    @property
    def label_len(self) -> int:
        return self.label_rows.shape[1]

    @property
    def edge_label_len(self) -> int:
        return self.word_rows.shape[1] if self.src.size else 0


def _word_array(kind: str, words: np.ndarray | Iterable[Word]) -> np.ndarray:
    """Equal-length words as one int64 array with a row each.

    Words given one by one are stacked first.  Symbols that int64 cannot
    hold exactly, such as floats, raise ValueError.  No words give a (0, 0)
    array.
    """
    if not isinstance(words, np.ndarray):
        words = list(words)
        lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
        words = _words_from_symbols(kind, np.array([s for w in words for s in w]), lengths)
    if not len(words):
        return np.empty((0, 0), dtype=np.int64)
    if words.size and not np.can_cast(words.dtype, np.int64):
        raise ValueError(f"{kind} labels must be words of int64 symbols")
    return words.astype(np.int64, copy=False)


def _words_from_symbols(kind: str, symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`symbols` cut into rows of `lengths` symbols; unequal lengths raise ValueError."""
    if lengths.size and (lengths != lengths[0]).any():
        raise ValueError(f"{kind} labels must have equal length")
    return symbols.reshape(lengths.size, lengths[0] if lengths.size else 0)


def _strictly_increasing(rows: np.ndarray) -> bool:
    """True iff every row is lexicographically greater than the row before."""
    if len(rows) < 2 or not rows.shape[1]:
        return len(rows) < 2
    # compare each pair of rows at their first difference, or at column 0 if equal
    at = (rows[1:] != rows[:-1]).argmax(axis=1)
    i = np.arange(len(at))
    return bool((rows[1:][i, at] > rows[:-1][i, at]).all())


def window_presentation(q: int, windows: np.ndarray | Iterable[Word]) -> LabeledDigraph:
    """Standard presentation of the 1-step shift of finite type on `windows`.

    The windows are the rows, repeats allowed, of an (N, w) integer array
    over ``[q]`` with w >= 2; equal-length tuples are stacked into one, and
    a float or object array raises ValueError.  Vertices are the prefixes
    and suffixes of the windows in numeric order, and each distinct window
    ``w`` is one edge ``w[:-1] -> w[1:]`` labeled ``w[-1:]``, in window
    order: three row sorts, of the windows, of their prefixes and suffixes,
    and of their last column.  No other vertex is created, so the graph is
    as large as the allowed windows, whatever ``q**w`` is.
    """
    rows = np.asarray(windows if isinstance(windows, np.ndarray) else list(windows))
    if not rows.size:
        rows = np.empty((0, 2), dtype=np.int64)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError(f"windows must be rows of integers, not a {rows.dtype} array of shape {rows.shape}")
    wins, _ = _ranked(rows)
    labels, ends = _ranked(np.vstack((wins[:, :-1], wins[:, 1:])))
    words, lab = _ranked(wins[:, -1:])
    n = len(wins)
    return LabeledDigraph._from_rows(q, labels, words, ends[:n], ends[n:], lab, np.ones(n))


def _word_grid(q: int, n: int) -> np.ndarray:
    """All ``q**n`` words of length `n` as rows, in numeric order."""
    return np.indices((q,) * n).reshape(n, -1).T


def de_bruijn(q: int, d: int) -> LabeledDigraph:
    """De Bruijn graph of order `d` over ``[q]``.

    The window presentation of every ``(d+1)``-word: vertices are all
    ``q**d`` words of length `d`, and `u` has an edge to `v`, labeled with
    the last symbol of `v`, exactly when `v` is the tail of `u` extended by
    that symbol.
    """
    if q < 1 or d < 1:
        raise ValueError("de Bruijn graphs need q >= 1 and d >= 1")
    return window_presentation(q, _word_grid(q, d + 1))


def adjacency(G: LabeledDigraph) -> np.ndarray:
    """Integer adjacency matrix; entry (u, v) counts edges from u to v."""
    A = np.zeros((G.n_vertices, G.n_vertices), dtype=np.int64)
    np.add.at(A, (G.src, G.dst), G.count)
    return A


def higher_power(G: LabeledDigraph, m: int) -> LabeledDigraph:
    """Graph on the same vertices with one edge per length-`m` path.

    The edge for a path ending at `v` is labeled with the word of `v`, so
    each transition emits a whole vertex word.  The adjacency matrix of the
    result equals ``adjacency(G) ** m`` entrywise: one row per vertex pair
    joined by a path, in row-major order, with the path count as its count.

    The power is a sparse product over the edge rows, with no V x V matrix:
    each step joins the path rows on their end to the edge rows sorted by
    source, and sums the counts of equal (start, end) pairs after a sort.
    Counts are int64 while ``r**m < 2**63`` for the largest row sum ``r``,
    which bounds every entry and partial sum, and Python ints past it.
    """
    if m < 1:
        raise ValueError("path length m must be at least 1")
    n = G.n_vertices
    key, count = _summed_by_key(G.src * n + G.dst, G.count)
    src, dst = np.divmod(key, n)
    _, sums = _summed_by_key(src, count.astype(object))
    r = max(sums, default=0)
    if not (r < 2 or m < 63 and r**m < 2**63):
        count = count.astype(object)
    deg = np.bincount(src, minlength=n)
    first = np.cumsum(deg) - deg
    start, end, paths = src, dst, count
    for _ in range(m - 1):
        k = deg[end]
        at = _spans(first[end], k)
        key, paths = _summed_by_key(np.repeat(start, k) * n + dst[at], np.repeat(paths, k) * count[at])
        start, end = np.divmod(key, n)
    live = paths > 0
    return _rows_by_target(G.q, G.label_rows, start[live], end[live], paths[live])


def _spans(first: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The positions ``first[i] .. first[i] + k[i] - 1`` for every i, concatenated."""
    return np.repeat(first - np.cumsum(k) + k, k) + np.arange(k.sum())


def _summed_by_key(key: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order, each with the sum of its counts.

    A sort and `np.add.reduceat`, so int64 and Python-int counts add exactly.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    if not starts.size:
        return key, count[:0]
    return key[starts], np.add.reduceat(count[order], starts)


def scc_decompose(G: LabeledDigraph) -> list[tuple[int, ...]]:
    """Strongly connected components as sorted vertex-id tuples.

    Components are returned ordered by their smallest vertex id.
    """
    return sorted(tuple(c) for c in _sccs(G.src, G.dst, G.n_vertices))


def is_strongly_connected(G: LabeledDigraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    Two reachability sweeps from vertex 0 over the edge rows, one along them
    and one against them, with no V x V matrix: the graph is strongly
    connected iff both reach every vertex.  Graphs of 0 or 1 vertex are.
    """
    n = G.n_vertices
    return n <= 1 or _reaches_all(G.src, G.dst, n) and _reaches_all(G.dst, G.src, n)


def _reaches_all(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """True iff the rows ``src -> dst`` lead from vertex 0 to all `n` vertices.

    Each round marks the ends of every row that leaves a marked vertex, in
    O(E) array steps with no sort; the rounds stop when one marks nothing
    new, so there are at most d + 1 for the largest distance d from vertex
    0, and the sweep costs O((d + 1) E).  That is quadratic on a long cycle
    or path, where a sweep over the frontier's rows alone would be linear;
    such sweeps were slower on every graph the measures reach.
    """
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    before, reached = 0, 1
    while before < reached < n:
        seen[dst[seen[src]]] = True
        before, reached = reached, np.count_nonzero(seen)
    return reached == n


def essential_subgraph(G: LabeledDigraph) -> LabeledDigraph:
    """Induced subgraph on vertices with bi-infinite paths through them.

    Iteratively drops vertices of in-degree or out-degree zero.  The
    degrees count edge rows (every row has a positive count), and each
    round subtracts only the rows of the vertices it drops, found through
    the rows sorted by source and by target; so the peel takes O(V + E)
    time and memory beyond its rounds, and no V x V matrix.  Labels and
    surviving edge rows keep their order.
    This is the explicit pruning operation: no other function ever removes
    vertices from a graph it returns.
    """
    n, src, dst = G.n_vertices, G.src, G.dst
    outd, ind = np.bincount(src, minlength=n), np.bincount(dst, minlength=n)
    dead = np.flatnonzero((outd == 0) | (ind == 0))
    if not dead.size:
        return G
    alive, rows = np.ones(n, dtype=bool), np.ones(src.size, dtype=bool)
    # vertex v's rows are order[start[v] : start[v] + deg[v]]
    lists = [
        (np.argsort(ends, kind="stable"), np.cumsum(deg) - deg, deg.copy())
        for ends, deg in ((src, outd), (dst, ind))
    ]
    first = np.empty(n, dtype=np.int64)
    while dead.size:
        alive[dead] = False
        gone = []
        for order, start, deg in lists:
            span = deg[dead]
            at = _spans(start[dead], span)
            gone.append(order[at])
        # a row is met again when its other end dies, and then both its ends
        # are dead: their degrees are never read again
        r = np.concatenate(gone)
        rows[r] = False
        np.subtract.at(outd, src[r], 1)
        np.subtract.at(ind, dst[r], 1)
        ends = np.concatenate((src[r], dst[r]))
        ends = ends[alive[ends]]
        ends = ends[(outd[ends] == 0) | (ind[ends] == 0)]
        # drop repeats: each vertex keeps one of its positions' writes
        first[ends] = np.arange(ends.size)
        dead = ends[first[ends] == np.arange(ends.size)]
    remap = np.cumsum(alive) - 1
    src, dst = remap[G.src[rows]], remap[G.dst[rows]]
    return LabeledDigraph._from_rows(G.q, G.label_rows[alive], G.word_rows, src, dst, G.lab[rows], G.count[rows])


def perron_eigenvalue(A: np.ndarray | Sequence[Sequence[float]]) -> float:
    """Spectral radius of a nonnegative matrix, certified to 1e-12 relative.

    Computed per strongly connected component with `_perron`, whose
    Collatz-Wielandt bracket on each component is at most 1e-12 wide
    relative, or which raises.  Degenerate matrices (no cycles at all)
    give 0.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.isfinite(M).all():
        raise ValueError("adjacency matrix must be finite")
    if M.size and M.min() < 0:
        raise ValueError("adjacency matrix must be nonnegative")
    best = 0.0
    for comp in _sccs(*np.nonzero(M > 0), len(M)):
        if len(comp) == 1 and M[comp[0], comp[0]] == 0.0:
            continue
        lam, _, _ = _perron(M[np.ix_(comp, comp)], math.inf)
        best = max(best, lam)
    return best


def perron_vectors(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron eigenvalue with right and left eigenvectors of an irreducible matrix.

    The right vector comes from `_perron` on ``A``, the left one from
    `_perron` on ``A.T``.  Both matrices have the same spectral radius, so
    the right solve's certified upper end bounds the left one's too: every
    shift of the left solve is clamped to it, which takes the left vector
    to the root in one or two solves where it would otherwise repeat the
    right one's whole descent.  The right vector y sums to 1 and the left
    vector x is scaled to ``x . y = 1``, so ``x * y`` is the stationary
    vector of the Parry measure; the eigenvalue is the right solve's.
    """
    A = np.asarray(A, dtype=float)
    lam, right, hi = _perron(A, math.inf)
    _, left, _ = _perron(A.T, hi)
    return lam, right, left / (left @ right)


def _perron(A: np.ndarray, cap: float) -> tuple[float, np.ndarray, float]:
    """Perron eigenvalue and right eigenvector, summing to 1, of an irreducible `A`.

    Also returns the bracket's certified upper end on lam + 1.  `cap`, an
    upper end known beforehand or `math.inf`, bounds every shift.

    For ``M = A + I`` and a positive vector ``v``, the Collatz-Wielandt
    bracket ``min(Mv/v) <= lam + 1 <= max(Mv/v)`` holds (Lind & Marcus,
    *Symbolic Dynamics and Coding*, ch. 4); the shift makes ``M``
    primitive, so periodic structure cannot stall the iteration.

    Shifted power iteration from the uniform vector runs first, for at
    most `PERRON_POWER_STEPS` steps, and returns once the best bracket is
    `PERRON_REL_TOL` wide relative.  At steps 8, 16, 32, ... it compares
    the bracket's relative width with the width at half the steps, and
    hands over to the solves when the width has not shrunk, or when the
    geometric rate between the two widths predicts that `PERRON_REL_TOL`
    will not be reached within `PERRON_POWER_STEPS` steps.

    Each certification step works on the rescaled matrix
    ``B = diag(v)^-1 M diag(v)``, which is similar to ``M``: the ratios
    ``Mv/v`` are B's row sums, each a sum of well-scaled terms even where
    ``v`` spans many orders of magnitude.  The step solves
    ``(s I - B) w = 1`` with ``s`` just above the bracket and sets
    ``v <- v w`` (shifted inverse iteration, Noda, *Numer. Math.* 17, 1971;
    Golub & Van Loan, *Matrix Computations*, 7.6.1): as ``s > lam + 1``,
    ``s I - B`` is a nonsingular M-matrix, whose inverse is nonnegative, so
    ``w`` stays positive.  Once the bracket is `PERRON_CERT_TOL` wide
    relative, the step takes one more solve, for a vector as accurate as
    the shift allows, and returns the bracket's midpoint with it; still
    wider after `PERRON_CERT_STEPS` steps, it raises RuntimeError, so no
    uncertified estimate is ever returned.
    """
    M = A + np.eye(A.shape[0])
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    lo_best, hi_best = 0.0, math.inf
    for k in range(1, PERRON_POWER_STEPS + 1):
        w = M @ v
        ratios = w / v
        lo_best = max(lo_best, float(ratios.min()))
        hi_best = min(hi_best, float(ratios.max()))
        v = w / w.max()
        if hi_best - lo_best <= PERRON_REL_TOL * hi_best:
            return 0.5 * (lo_best + hi_best) - 1.0, v / v.sum(), hi_best
        if k >= 4 and k & (k - 1) == 0:
            width = (hi_best - lo_best) / hi_best
            if k >= 8:
                # Steps k/2..k shrank the width by `rate`; at that rate,
                # PERRON_REL_TOL is the second term's number of steps away.
                rate = width / width_half
                if rate >= 1 or k + 0.5 * k * math.log(PERRON_REL_TOL / width) / math.log(rate) > PERRON_POWER_STEPS:
                    break
            width_half = width
    # hi_best is finite at every solve.  The absolute value keeps w >= 0
    # under rounding; a zero entry of v gives an inf or nan ratio, which
    # never tightens the bracket (nan loses every comparison, inf fails the
    # test).  B is built in one buffer and turned into s I - B in place: a
    # fresh V x V array per step costs more than the arithmetic on it.
    B, ones = np.empty_like(M), np.ones(len(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PERRON_CERT_STEPS):
            np.multiply(M, v, out=B)
            B /= v[:, None]
            ratios = B.sum(axis=1)
            lo_best = max(lo_best, float(ratios.min()))
            hi_best = min(hi_best, float(ratios.max()))
            closed = lo_best >= (1.0 - PERRON_CERT_TOL) * hi_best
            np.negative(B, out=B)
            B.flat[:: len(v) + 1] += min(hi_best, cap) * (1 + 2**-40)
            w = np.abs(np.linalg.solve(B, ones))
            v = v * w
            v = v / v.max()
            if closed:
                return 0.5 * (lo_best + hi_best) - 1.0, v / v.sum(), hi_best
    raise RuntimeError(
        f"Perron solver did not converge: lam + 1 in [{lo_best!r}, {hi_best!r}] "
        f"after {PERRON_CERT_STEPS} certification steps"
    )


def trace_power(A: np.ndarray | Sequence[Sequence[int]], n: int) -> int:
    """Exact trace of ``A**n`` over the integers (``A**0`` is the identity).

    Counted modulo word-size pairwise coprime moduli in float64 and rebuilt
    by the Chinese remainder theorem, as `_crt_count` describes; the power's
    last product is never formed, only its diagonal.
    """
    return _crt_count(A, n, trace=True)


def path_count(A: np.ndarray | Sequence[Sequence[int]], n: int) -> int:
    """Exact number of length-`n` paths: the entry sum of ``A**n``.

    Counted as in `trace_power`; the entry sum of the last product
    ``P @ Q`` is the column sums of ``P`` dotted with the row sums of ``Q``.
    """
    return _crt_count(A, n, trace=False)


def words_of_length(G: LabeledDigraph, n: int) -> frozenset[Word]:
    """All length-`n` words of the system presented by `G`.

    Words of the system are the words spelled inside bi-infinite label paths,
    so enumeration runs on the essential subgraph: one array walk reads
    every sequence of ``n - L`` edge rows there (``L`` the vertex word
    length), and each spells its start-vertex word followed by its edge
    symbols.  Requires single-symbol edge labels.  More than `ENUM_CAP`
    paths of length ``n - L`` in the essential subgraph raise ValueError
    before any walk starts.
    """
    return _enumerate_words(_word_graph(G, n), n)


def count_words(G: LabeledDigraph, n: int) -> int:
    """Exact number of length-`n` words of the system presented by `G`.

    When every vertex emits distinctly labeled edges the presentation is
    deterministic, paths biject with words, and the count is the exact
    `path_count` of length ``n - L`` on the essential subgraph, where ``L``
    is the vertex word length; otherwise the word set is enumerated
    explicitly, as in `words_of_length`, under the same `ENUM_CAP` path test.
    """
    E = _word_graph(G, n)
    if n > E.label_len and _is_deterministic(E):
        return path_count(adjacency(E), n - E.label_len)
    return len(_enumerate_words(E, n))


def _word_graph(G: LabeledDigraph, n: int) -> LabeledDigraph:
    """The essential subgraph that the length-`n` words of `G` are read from."""
    if n < 1:
        raise ValueError("word length must be at least 1")
    if G.edge_label_len > 1:
        raise ValueError("word enumeration needs single-symbol edge labels")
    return essential_subgraph(G)


def _enumerate_words(E: LabeledDigraph, n: int) -> frozenset[Word]:
    return frozenset(map(tuple, _word_rows(E, n).tolist()))


def _word_rows(E: LabeledDigraph, n: int) -> np.ndarray:
    """The (N, n) array of the length-`n` words spelled in `E`, repeats kept.

    One row per sequence of ``n - L`` edge rows, its start-vertex word then
    its symbols, or, when ``n <= L``, one row per vertex, the first n
    symbols of its word; in the smallest unsigned dtype that holds q - 1.
    """
    L = E.label_len
    labels = E.label_rows.astype(np.min_scalar_type(E.q - 1))
    if n <= L:
        return labels[:, :n]
    if not _within_enum_cap(E, n - L):
        raise ValueError(f"length-{n} words: explicit enumeration capped at {ENUM_CAP} paths")
    start, _, symbols = _paths(E, n - L)
    return np.hstack((labels[start], symbols))


def _paths(E: LabeledDigraph, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start vertices, end vertices and symbols of every sequence of `m` edge rows.

    One path per row sequence (a row's count does not repeat it) and one row
    of the (N, m) symbol matrix per path, in the smallest unsigned dtype that
    holds q - 1.  Each step repeats every path once per out-row of its end,
    through the rows sorted by source.  Edge labels must be single symbols.
    """
    order = np.argsort(E.src, kind="stable")
    dst = E.dst[order]
    sym = E.word_rows.astype(np.min_scalar_type(E.q - 1)).reshape(-1)[E.lab[order]]
    deg = np.bincount(E.src, minlength=E.n_vertices)
    first = np.cumsum(deg) - deg
    start = end = np.arange(E.n_vertices)
    symbols = np.empty((E.n_vertices, 0), dtype=sym.dtype)
    for _ in range(m):
        k = deg[end]
        at = _spans(first[end], k)
        start, end = np.repeat(start, k), dst[at]
        symbols = np.hstack((np.repeat(symbols, k, axis=0), sym[at, None]))
    return start, end, symbols


def _closed_paths(E: LabeledDigraph, n: int) -> np.ndarray:
    """Sorted distinct symbol rows of the closed sequences of `n` edge rows.

    Meet in the middle: every first half of ``h = n // 2`` rows, from s to
    m, joins the run of second halves from m back to s in the second halves
    sorted by (start, end).  A pair is held as its two halves' symbol ranks,
    so the sorted distinct pairs are the words in lexicographic order.  The
    walks hold the paths of lengths h and n - h, the join one entry per
    closed sequence; the caller tests both against `ENUM_CAP` first.
    """
    h = n // 2
    s, m, first = _paths(E, h)
    m2, s2, second = _paths(E, n - h)
    first, r1 = _ranked(first)
    second, r2 = _ranked(second)
    key = m2 * E.n_vertices + s2
    by = np.argsort(key)
    key, want = key[by], m * E.n_vertices + s
    lo = np.searchsorted(key, want, "left")
    k = np.searchsorted(key, want, "right") - lo
    at = by[_spans(lo, k)]
    radix = max(len(second), 1)
    # A sort and a run mask: np.unique would hash the pairs before sorting.
    pairs = np.sort(np.repeat(r1 * radix, k) + r2[at])
    pairs = pairs[np.diff(pairs, prepend=-1) > 0]
    return np.hstack((first[pairs // radix], second[pairs % radix]))


def _ranked(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `rows` in sorted order, and each row's index among them."""
    rows, order, new = _sorted_runs(rows)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rows[new], rank


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`rows` in lexicographic order, the sorting permutation, and the run mask.

    The sort is stable, so equal rows keep their input order; the mask marks
    the first row of each run of equal rows.
    """
    # np.lexsort needs a key; rows with no columns are all equal.
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows, order, new


def _within_enum_cap(E: LabeledDigraph, m: int) -> bool:
    """True iff `E` has at most `ENUM_CAP` paths of length `m`.

    ``v[u]`` counts the paths from ``u``: int64 products with the count rows,
    clipped at ``ENUM_CAP + 1`` so nothing wraps.  Every vertex of `E` must
    have an out-edge, as in an essential graph or a stochastic chain; then no
    ``v[u]`` falls as paths grow and any clipped entry puts the total over
    the cap: the answer is exact and comes early.
    """
    clip = ENUM_CAP + 1
    count = np.minimum(E.count, clip)
    v = np.ones(E.n_vertices, dtype=np.int64)
    for _ in range(m):
        if v.sum() > ENUM_CAP:
            return False
        w = np.zeros_like(v)
        np.add.at(w, E.src, np.minimum(count * v[E.dst], clip))
        v = np.minimum(w, clip)
    return v.sum() <= ENUM_CAP


def log_base(x: float, q: int) -> float:
    """log_q(x); alphabets of size 1 carry zero information per symbol."""
    if q == 1:
        return 0.0
    return math.log(x) / math.log(q)


def _is_deterministic(G: LabeledDigraph) -> bool:
    # As many distinct (vertex, label) pairs as edges: no vertex emits a label twice.
    return np.unique(G.src * len(G.word_rows) + G.lab).size == G.count.sum()


def _rows_by_target(q: int, labels: np.ndarray, src, dst, count) -> LabeledDigraph:
    """Graph with the rows (src, dst, count), each labeled by the word of dst.

    A count past int64 raises instead of wrapping.
    """
    if count.dtype == object and count.max(initial=0) >= 2**63:
        raise ValueError("an edge multiplicity does not fit in int64")
    return LabeledDigraph._from_rows(q, labels, labels, src, dst, dst, count)


def _crt_count(A: np.ndarray | Sequence[Sequence[int]], e: int, trace: bool) -> int:
    """The trace, or the entry sum, of ``A**e`` for a nonnegative integer matrix, exact.

    Each row of ``A**e`` sums to at most ``r**e`` for the largest row sum
    ``r``, so either count is at most ``V * r**e`` on V vertices.  The count
    is taken modulo the pairwise coprime moduli below ``2**k``, ``k = (53 -
    V.bit_length()) // 2``, that `_moduli_over` picks, just enough of them
    that their product exceeds that bound, and rebuilt by the Chinese
    remainder theorem, which needs no more than coprime moduli (von zur
    Gathen & Gerhard, *Modern Computer Algebra*, ch. 5).  As ``V * (p -
    1)**2 < 2**53`` for each modulus p, every entry and partial sum of a
    product of residue matrices is an integer below ``2**53``: each float64
    `@`, on all the moduli of a chunk at once, is exact in whatever order
    BLAS adds, and int64 ``%`` reduces it.  The chunks' (K, V, V) stacks stay under
    `_RESIDUE_BYTES`.  Entries must be integers; integer-valued floats are
    accepted.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    X = _count_matrix(A)
    V = len(X)
    if X.dtype == object or V * int(X.max(initial=0)) >= 2**63:
        r = max(X.sum(axis=1, dtype=object), default=0)
    else:
        r = int(X.sum(axis=1).max(initial=0))
    moduli = _moduli_over(V * r**e, (53 - V.bit_length()) // 2)
    per_chunk = max(1, _RESIDUE_BYTES // max(8 * V * V, 1))
    residues = []
    for lo in range(0, len(moduli), per_chunk):
        p = np.array(moduli[lo : lo + per_chunk], dtype=np.int64)[:, None, None]
        residues += _count_mod(X, e, p, trace).tolist()
    M = math.prod(moduli)
    crt = 0
    for c, p in zip(residues, moduli):
        m = M // p
        crt += c * m * pow(m, -1, p)
    return crt % M


def _count_matrix(A: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """`A` as a square matrix of nonnegative integers: int64, or Python ints past it."""
    M = np.asarray(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.can_cast(M.dtype, np.int64):
        X = M.astype(np.int64, copy=False)
    else:
        try:
            X = np.array([[int(x) for x in r] for r in M.tolist()], dtype=object).reshape(M.shape)
        except (OverflowError, ValueError):
            X = None
        if X is None or (X != M).any():
            raise ValueError("matrix entries must be integers")
    if (X < 0).any():
        raise ValueError("matrix must be nonnegative")
    return X


def _count_mod(X: np.ndarray, e: int, p: np.ndarray, trace: bool) -> np.ndarray:
    """The trace, or the entry sum, of ``X**e`` modulo each modulus of the (K, 1, 1) `p`.

    ``X**e`` is taken by repeated squaring as ``P @ S``, the identity
    standing in for a factor that is not there, and only the diagonal, or
    the column sums of P and the row sums of S, of that last product are
    read.  Those sums add V products below ``(p - 1)**2``, so they are exact.
    """
    eye = np.eye(len(X))
    S = (X % p.astype(X.dtype)).astype(np.float64) if e else eye
    P = None
    while e > 1:
        if e & 1:
            P = S if P is None else _residue(P @ S, p)
        S = _residue(S @ S, p)
        e >>= 1
    P = eye if P is None else P
    p = p[:, 0]  # (K, 1): the modulus of each row of sums
    if trace:
        cells = (P * S.swapaxes(-1, -2)).sum(axis=-1).astype(np.int64) % p
    else:
        cells = (P.sum(axis=-2).astype(np.int64) % p) * (S.sum(axis=-1).astype(np.int64) % p)
    return cells.sum(axis=-1) % p[:, 0]


def _residue(Z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The float64 integers of `Z`, each below ``2**53``, reduced modulo `p` in place."""
    R = Z.astype(np.int64)
    np.remainder(R, p, out=R)
    Z[...] = R
    return Z


def _moduli_over(bound: int, k: int) -> list[int]:
    """Pairwise coprime moduli below ``2**k``, largest first, whose product just exceeds `bound`.

    A downward scan from ``2**k - 1`` keeps each m coprime to the product of
    those kept before it.
    """
    moduli, product, m = [], 1, 2**k
    while product <= bound:
        m -= 1
        if m < 2:
            raise ValueError(f"the count needs more than the moduli below 2**{k}")
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
    return moduli


def _sccs(src: np.ndarray, dst: np.ndarray, n: int) -> list[list[int]]:
    """Strongly connected components of the rows ``src -> dst`` on `n` vertices.

    Each component is sorted.  An iterative Tarjan, since recursion would
    overflow on multi-thousand-vertex presentations, over successor lists
    cut from the rows stably sorted by source.
    """
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    targets = dst[np.argsort(src, kind="stable")].tolist()
    succ = [targets[start:end] for start, end in zip([0] + ends, ends)]
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
                comps.append(sorted(comp))
    return comps
