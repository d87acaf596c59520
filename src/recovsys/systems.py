"""Window-recoverable constrained systems and their explicit constructions.

A system over ``[q]`` is (k, l)-recoverable when every block of k consecutive
symbols is a deterministic function of the l symbols on each side.  Such a
system sits inside the constrained system of a forbidden set of words of
length ``2l + k``; the constructions here build it from its allowed windows
instead and hand back a presentation graph together with the induced
recovery table.  `presentation_from_forbidden` is the one entry that starts
from forbidden words, kept because the benchmark's storage workload builds
the binary optimum through it.  `verify_recoverable` reads the
occurring windows as one integer array and returns its sorted (alpha, beta,
middle) rows as a `RecoveryTable`, a read-only mapping view whose dict is
built only on the first lookup; later steps read the windows off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Mapping

import numpy as np

from .graphs import (
    LabeledDigraph,
    Word,
    _sorted_runs,
    _word_graph,
    _word_grid,
    _word_rows,
    adjacency,
    de_bruijn,
    is_strongly_connected,
    log_base,
    perron_eigenvalue,
    perron_vectors,
    window_presentation,
)

SEARCH_CANDIDATE_CAP = 10_000_000
_STACK_BYTES = 1 << 17
_BOUND_STEPS = 16


@dataclass(frozen=True)
class ForbiddenSet:
    """Alphabet size, window parameters, and forbidden words of length 2l+k.

    Only `presentation_from_forbidden` reads it; see there why both are kept.
    """

    q: int
    k: int
    l: int
    words: frozenset[Word]

    def __post_init__(self) -> None:
        if self.q < 1 or self.k < 1 or self.l < 1:
            raise ValueError("q, k, l must all be at least 1")
        w_len = 2 * self.l + self.k
        for w in self.words:
            if len(w) != w_len:
                raise ValueError(f"forbidden word {w} must have length {w_len}")
            if any(c < 0 or c >= self.q for c in w):
                raise ValueError(f"forbidden word {w} is not over [{self.q}]")

    @property
    def word_len(self) -> int:
        return 2 * self.l + self.k


class RecoveryTable(Mapping):
    """Read-only recovery table held as rows of one array.

    `rows` is an (N, a + b + m) array of (alpha, beta, middle) rows, sorted
    by (alpha, beta) with no pair repeated, in the dtype it was given;
    ``ends = (a, a + b)`` splits a row into its three words; `windows` puts
    the columns back in (alpha, middle, beta) order.  `len` reads N,
    iteration yields the pairs as tuples in (alpha, beta) order, and the
    first lookup builds the dict that answers it and later ones.
    """

    __slots__ = ("rows", "ends", "_dict")

    def __init__(self, rows: np.ndarray, ends: tuple[int, int]) -> None:
        rows.flags.writeable = False
        self.rows, self.ends = rows, ends
        self._dict: dict[tuple[Word, Word], Word] | None = None

    @classmethod
    def of(
        cls, table: Mapping[tuple[Word, Word], Word], want: tuple[int, int, int] | None = None
    ) -> RecoveryTable:
        """`table` as a `RecoveryTable`: itself if it is one, else its entries sorted.

        Alpha, beta and middle words must each have one length throughout:
        otherwise ValueError names the first entry whose lengths differ
        from the first entry's.  Symbols numpy cannot hold as integers stay
        the objects given, so no int is rounded to a float.  Given `want`,
        the (l, l, k) lengths a system's words have, a nonempty table of
        other lengths raises ValueError.
        """
        if want is not None:
            table = cls.of(table)
            lengths = tuple(np.diff([0, *table.ends, table.rows.shape[1]]).tolist())
            if len(table) and lengths != want:
                raise ValueError(f"recovery table words have lengths {lengths}, not (l, l, k) = {want}")
            return table
        if isinstance(table, cls):
            return table
        items = list(table.items())
        lengths = [(len(alpha), len(beta), len(w)) for (alpha, beta), w in items] or [(0, 0, 0)]
        if lengths.count(lengths[0]) < len(items):
            (alpha, beta), w = next(e for e, n in zip(items, lengths) if n != lengths[0])
            raise ValueError(
                f"recovery table entry {alpha} {beta} -> {w}: word lengths differ from {lengths[0]}"
            )
        la, lb, lm = lengths[0]
        words = [alpha + beta + w for (alpha, beta), w in items]
        rows = np.array(words or np.empty((0, 0), dtype=np.int64))
        if rows.dtype.kind not in "iu":
            rows = np.array(words, dtype=object)
        if la + lb:
            rows = rows[np.lexsort(rows[:, : la + lb].T[::-1])]
        return cls(rows, (la, la + lb))

    @property
    def windows(self) -> np.ndarray:
        """The rows as the windows they spell: alpha, middle, beta."""
        a, ab = self.ends
        return np.hstack((self.rows[:, :a], self.rows[:, ab:], self.rows[:, a:ab]))

    def _words(self) -> Iterator[Iterator[Word]]:
        """The alphas, betas and middles, each as tuples in row order."""
        return (map(tuple, block.tolist()) for block in np.split(self.rows, self.ends, axis=1))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Word, Word]]:
        alphas, betas, _ = self._words()
        return zip(alphas, betas)

    def __getitem__(self, pair: tuple[Word, Word]) -> Word:
        if self._dict is None:
            alphas, betas, middles = self._words()
            self._dict = dict(zip(zip(alphas, betas), middles))
        return self._dict[pair]

    def __repr__(self) -> str:
        return f"RecoveryTable({len(self)} entries)"


@dataclass(frozen=True)
class RecoverableSystem:
    """A verified (k, l)-recoverable system.

    `recovery_table` maps each occurring boundary pair (left l-word,
    right l-word) to the unique middle k-word between them, held as the
    `RecoveryTable.of` the table given; its `windows` are the occurring
    (2l + k)-windows.  A nonempty table of words not l, l and k long raises
    ValueError.  `provenance` names the construction that produced it.
    """

    q: int
    k: int
    l: int
    presentation: LabeledDigraph
    recovery_table: RecoveryTable
    provenance: str

    def __post_init__(self) -> None:
        if self.q < 1 or self.k < 1 or self.l < 1:
            raise ValueError("q, k, l must all be at least 1")
        if self.presentation.q != self.q:
            raise ValueError("presentation alphabet differs from system alphabet")
        table = RecoveryTable.of(self.recovery_table, want=(self.l, self.l, self.k))
        object.__setattr__(self, "recovery_table", table)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a recoverability check.

    On success `table` is the `RecoveryTable` of the sorted (alpha, beta,
    middle) rows; on failure it is empty and `conflict` holds one clash,
    (alpha, beta, middle1, middle2), chosen as `verify_recoverable` says.
    """

    ok: bool
    table: RecoveryTable
    conflict: tuple[Word, Word, Word, Word] | None = None


def presentation_from_forbidden(F: ForbiddenSet) -> LabeledDigraph:
    """Standard presentation of the constrained system avoiding `F`.

    The window presentation of the words of length ``2l + k`` outside `F`:
    vertices are the ``(2l + k - 1)``-words that begin or end an allowed
    window, and each allowed window is one edge.  A word that is in no
    allowed window is not a vertex.  It deletes the forbidden ranks from all
    ``q**(2l + k)`` words, the one complement taken in this package, kept
    because the benchmark's storage workload builds the binary optimum here
    and reports this function's time and graph size.
    """
    forbidden = _ranks(np.array(list(F.words), dtype=np.int64).reshape(-1, F.word_len), F.q)
    return window_presentation(F.q, np.delete(_word_grid(F.q, F.word_len), forbidden, axis=0))


def verify_recoverable(G: LabeledDigraph, k: int, l: int) -> VerificationResult:
    """Check that `G` presents a (k, l)-recoverable system.

    Reads the occurring words of length ``2l + k`` as one array, its columns
    reordered to (alpha, beta, middle), and sorts its distinct rows: a
    boundary pair with two middles is two adjacent rows that agree on their
    2l boundary columns.  Otherwise the rows are the recovery table in
    (alpha, beta) order.  Among the clashing pairs, the conflict is the one
    whose second-smallest middle spells the earliest window in word order
    (alpha, middle, beta); it reports (alpha, beta, smallest middle,
    second-smallest middle).
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    n, b = 2 * l + k, 2 * l
    words = _word_rows(_word_graph(G, n), n)
    columns = np.r_[0:l, l + k : n, l : l + k]
    rows, _, new = _sorted_runs(words[:, columns])
    rows = rows[new]
    clash = (rows[1:, :b] == rows[:-1, :b]).all(axis=1)
    if clash.any():
        # a pair's first clash is between its two smallest middles; the
        # second is spelled back in word order to pick the earliest
        first = np.flatnonzero(clash & ~np.r_[False, clash[:-1]])
        spelled = rows[first + 1][:, np.argsort(columns)]
        i = first[np.lexsort(spelled.T[::-1])[0]]
        blocks = rows[i, :l], rows[i, l:b], rows[i, b:], rows[i + 1, b:]
        conflict = tuple(tuple(w.tolist()) for w in blocks)
        return VerificationResult(False, RecoveryTable(rows[:0], (l, b)), conflict)
    return VerificationResult(True, RecoveryTable(rows, (l, b)))


def system_capacity(G: LabeledDigraph) -> float:
    """Growth rate (base q) of the word counts of the system `G` presents.

    Equals ``log_q`` of the spectral radius of the adjacency matrix; a
    presentation with no bi-infinite paths at all reports ``-inf``.
    """
    lam = perron_eigenvalue(adjacency(G))
    if lam == 0.0:
        return float("-inf")
    return log_base(lam, G.q)


def capacity(S: RecoverableSystem) -> float:
    return system_capacity(S.presentation)


def upper_bound(k: int, l: int) -> Fraction:
    """Every (k, l)-recoverable system has capacity at most l / (k + l)."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    return Fraction(l, k + l)


def _verified_system(
    q: int, k: int, l: int, G: LabeledDigraph, provenance: str
) -> RecoverableSystem:
    res = verify_recoverable(G, k, l)
    if not res.ok:
        raise AssertionError(
            f"construction {provenance!r} produced a non-recoverable system: "
            f"conflict {res.conflict}"
        )
    return RecoverableSystem(q, k, l, G, res.table, provenance)


def truncation_params(q: int) -> tuple[int, int]:
    """(t, r) with ``q = t**2 - r``, ``t = ceil(sqrt(q))``; rejects r > t."""
    if q < 2:
        raise ValueError("truncation needs an alphabet of size at least 2")
    t = math.isqrt(q)
    if t * t < q:
        t += 1
    r = t * t - q
    if r > t:
        raise ValueError(
            f"q={q} gives t={t}, r={r}: only 0 <= r <= t is constructible"
        )
    return t, r


def truncated_matrix(q: int) -> np.ndarray:
    """Adjacency matrix of the truncated order-2 de Bruijn graph for `q`.

    For ``r < t`` the last r rows and columns of the de Bruijn matrix over
    [t] are deleted; for ``r = t`` the rows and columns at positions
    ``{i*t + t - 1}`` are deleted instead (deleting the last t would strand
    incoming edges on rows that are not last).

    For ``r < t`` the graph is strongly connected with ``A**3 > 0``
    entrywise; ``A**2`` has two distinct row patterns and rank 2 when
    ``r >= 1``; the diameter is 2 when ``r <= 1`` and 3 when
    ``2 <= r < t``.  ERRATA.md (criterion 3) gives the proof and the q = 7
    counterexample to the older claim of diameter <= 2 for every r < t.
    """
    t, r = truncation_params(q)
    A = adjacency(de_bruijn(t, 2))
    if r < t:
        keep = list(range(t * t - r))
    else:
        keep = [i for i in range(t * t) if i % t != t - 1]
    return A[np.ix_(keep, keep)]


def truncated_debruijn_system(q: int) -> RecoverableSystem:
    """(1, 1)-recoverable system over `q` letters from de Bruijn truncation.

    Vertices of the truncated graph are renamed to single letters of [q];
    when ``r = t`` only ``(t-1)**2`` of them can actually occur, which the
    provenance records (the declared alphabet size stays q).
    """
    t, r = truncation_params(q)
    G = window_presentation(q, np.argwhere(truncated_matrix(q)))
    effective = (t - 1) ** 2 if r == t else q
    prov = f"truncated_debruijn(q={q}, t={t}, r={r}, effective_alphabet={effective})"
    return _verified_system(q, 1, 1, G, prov)


def capacity_formula(q: int) -> float:
    """Closed-form capacity of the truncated de Bruijn system over `q`."""
    t, r = truncation_params(q)
    lam = 0.5 * (t - 1 + math.sqrt((t - 1) ** 2 + 4 * (t - r)))
    return log_base(lam, q)


def edge_cover_system(t: int, mode: str, *, k: int = 1, l: int = 1) -> RecoverableSystem:
    """Recoverable system by sharing line-graph edge symbols between vertices.

    square mode: symbols are pairs ``(a_i, a_{i+l})`` of an arbitrary stream
    over [t], giving an (l, l)-recoverable system over ``q = t**2`` with
    capacity exactly 1/2.  power mode: symbols are ``(k+1)``-windows of the
    stream, giving a (k, 1)-recoverable system over ``q = t**(k+1)`` with
    capacity ``1/(k+1)``.  Square mode refuses k != 1, power mode l != 1.
    """
    if t < 2:
        raise ValueError("edge covering needs t >= 2")
    if mode == "square":
        if l < 1:
            raise ValueError("square mode needs l >= 1")
        if k != 1:
            raise ValueError(f"square mode takes l, not k (got k={k})")
        k_sys, l_sys, q = l, l, t * t
        # a window of 3l pair-symbols reads 4l stream symbols
        s = _word_grid(t, 4 * l)
        windows = s[:, :-l] * t + s[:, l:]
    elif mode == "power":
        if k < 1:
            raise ValueError("power mode needs k >= 1")
        if l != 1:
            raise ValueError(f"power mode takes k, not l (got l={l})")
        k_sys, l_sys, q = k, 1, t ** (k + 1)
        span = 2 * k + 2  # a window of k + 2 symbols, each k + 1 stream symbols
        s = _word_grid(t, span)
        windows = sum(s[:, j : span - k + j] * t ** (k - j) for j in range(k + 1))
    else:
        raise ValueError(f"unknown edge-cover mode {mode!r}")

    G = window_presentation(q, windows)
    prov = f"edge_cover(t={t}, mode={mode}, k={k_sys}, l={l_sys})"
    return _verified_system(q, k_sys, l_sys, G, prov)


def marker_system(q: int, k: int) -> RecoverableSystem:
    """(k, k+1)-recoverable system from periodic marker blocks.

    Sequences are free concatenations of the blocks ``2 1^(k+1)`` and
    ``2 0^(k+1)`` inside the alphabet [q]; the lone marker in every window
    locates the block boundary, so the middle k-word is always determined.
    Capacity is ``log_q(2) / (k + 2)``.
    """
    if q < 3:
        raise ValueError("marker construction needs q >= 3")
    if k < 1:
        raise ValueError("marker construction needs k >= 1")
    l = k + 1
    window = 2 * l + k
    period = k + 2
    blocks = [(2,) + (1,) * (k + 1), (2,) + (0,) * (k + 1)]
    # 4 blocks cover every window phase: 4(k+2) >= (k+1) + (3k+2)
    runs = np.array([sum(choice, ()) for choice in product(blocks, repeat=4)])
    G = window_presentation(q, np.vstack([runs[:, off : off + window] for off in range(period)]))
    return _verified_system(q, k, l, G, f"marker(q={q}, k={k})")


def recursive_extend(S: RecoverableSystem) -> RecoverableSystem:
    """Grow a (1, 1) system by two letters via a length-four detour loop.

    Picks the vertex of maximum stationary mass ``x * y`` under the
    max-entropy (Parry) measure of the window presentation of the
    occurring 3-words, read off the recovery table, from its Perron
    vectors (`perron_vectors`): the first maximum of the computed masses,
    so masses that differ only by rounding are not ties and the lowest
    vertex id among them need not win (the maximum is automatically
    >= 1/q**2).  It attaches a 4-cycle through three fresh vertices
    spelling the two new letters, and re-verifies.  That presentation is
    essential: every occurring word lies on a bi-infinite path of
    occurring words.  The capacity of the result is at least
    ``cap(S) * log_{q+2}(q) + (1/q**2) * log_{q+2}(1 + 1/q**2)``.
    """
    if S.k != 1 or S.l != 1:
        raise ValueError("the loop extension applies to (1, 1) systems only")
    q, windows = S.q, S.recovery_table.windows
    core = window_presentation(q, windows)
    if not (core.src.size and is_strongly_connected(core)):
        raise ValueError("the loop extension needs a strongly connected core with at least one edge")
    _, y, x = perron_vectors(adjacency(core).astype(float))
    v = int(np.argmax(x * y))
    a, b = core.label_rows[v].tolist()
    alpha, beta = q, q + 1
    loop = [(a, b, alpha), (b, alpha, beta), (alpha, beta, a), (beta, a, b)]
    G = window_presentation(q + 2, np.vstack((windows, loop)))
    prov = f"recursive_extend(from={S.provenance}, loop_at={(a, b)})"
    return _verified_system(q + 2, 1, 1, G, prov)


def recursive_bound(cap_q: float, q: int) -> float:
    """Capacity bound for q+2 letters given a capacity value at q letters."""
    return cap_q * log_base(q, q + 2) + (1.0 / q**2) * log_base(
        1.0 + 1.0 / q**2, q + 2
    )


def recursive_seed(q: int) -> int | None:
    """Side of the square alphabet a chain of loop extensions to `q` starts at.

    The extension adds two letters at a time, so this is the largest
    ``s >= 2`` with ``s*s <= q`` and ``q - s*s`` even.  Returns None when no
    such s exists.
    """
    if q < 4:
        return None
    s = math.isqrt(q)
    if (q - s) % 2:  # s*s has the parity of s
        s -= 1
    return s if s >= 2 else None


def recursive_chain_bound(q: int) -> float | None:
    """Loop-extension bound at `q`, seeded at the largest reachable square.

    The seed square has capacity exactly 1/2 (see `recursive_seed`).
    Returns None when no square >= 4 of matching parity exists.
    """
    s = recursive_seed(q)
    if s is None:
        return None
    value = 0.5
    for step in range(s * s, q, 2):
        value = recursive_bound(value, step)
    return value


def exhaustive_max_capacity(
    q: int, k: int, l: int
) -> tuple[float, RecoverableSystem]:
    """Best capacity over all recovery functions, with a witness system.

    Iterates every function from boundary pairs to middle words (maximal
    systems keep exactly one middle per pair; larger forbidden sets only
    shrink capacity), scoring each induced forbidden set by the spectral
    radius of its window-overlap matrix.  Ties within 1e-12 keep the
    earliest function in enumeration order.

    Alphabet permutations and reversal map recovery functions to recovery
    functions: a permutation s sends ``(u, v) -> m`` to
    ``(s u, s v) -> s m``, and reversal sends it to
    ``(rev v, rev u) -> rev m``.  Each maps a candidate's overlap matrix to
    a conjugate or transposed one, with the same spectrum (Lind & Marcus,
    *Symbolic Dynamics and Coding*, ch. 4).  So only the least index of
    each orbit under these ``q! * 2`` maps is scanned (`_orbit_minima`).
    The earliest candidate of largest radius comes before every other
    member of its orbit, so it is scanned, and the scan over orbit minima
    returns the witness and value of a scan over every candidate.

    Every kept candidate gets a Collatz-Wielandt upper bound on its
    spectral radius from sparse power steps, one `bincount` over its
    windows each (`_search_bounds`).  Candidates are then certified with
    `perron_eigenvalue` in descending order of bound, until the next bound
    shows that no remaining candidate can certify above a line that lies
    more than 1e-12 below the best certified radius, and no certified
    radius lies within 1e-12 above that line.  The tie rule then runs, in
    enumeration order, over the certified candidates only.  The first
    candidate above the line, in enumeration order, is certified and beats
    every candidate before it by more than 1e-12, in either scan; from
    there on the two scans agree, and a pruned candidate, below the line,
    can neither win nor change which certified candidate wins.  Every
    number returned comes from `perron_eigenvalue`.
    """
    if q < 1 or k < 1 or l < 1:
        raise ValueError("q, k, l must all be at least 1")
    # (q**k)**(q**(2l)) candidates, sized by their log log before anything
    # is built: the count itself can have millions of digits
    log_log = math.log2(k * math.log2(q)) + 2 * l * math.log2(q) if q > 1 else -math.inf
    if log_log > math.log2(math.log2(SEARCH_CANDIDATE_CAP)):
        raise ValueError(
            f"search space of {_power_text(q, k)}**{_power_text(q, 2 * l)} recovery functions "
            f"exceeds the cap of {SEARCH_CANDIDATE_CAP}"
        )
    # pair p is row p of `pairs`, u + v, and windows[p, j] is u + middles[j] + v
    pairs, middles = _word_grid(q, 2 * l), _word_grid(q, k)
    n = q ** (2 * l + k - 1)
    windows = _word_grid(q, 2 * l + k).reshape(q**l, q**k, q**l, -1)
    windows = windows.swapaxes(1, 2).reshape(len(pairs), len(middles), -1)
    cells = _window_cells(q, n, windows)
    rows = np.arange(len(pairs))
    kept = _orbit_minima(_symmetry_tables(q, pairs, middles))
    per_stack = max(1, _STACK_BYTES // (8 * n))
    hi = np.concatenate(
        [
            _search_bounds(cells[rows, _digits(kept[start : start + per_stack], cells)], n)
            for start in range(0, len(kept), per_stack)
        ]
    )
    lams: dict[int, float] = {}
    top = -1.0
    for i in np.argsort(-hi, kind="stable"):
        # hi >= rho + 1, and perron_eigenvalue is within 1e-12 of rho
        # (relative): no candidate from here on certifies above `line`
        line = hi[i] * (1.0 + 2e-12) - 1.0
        if line + 1e-12 < top and not any(line <= lam <= line + 1e-12 for lam in lams.values()):
            break
        c = int(kept[i])
        A = np.zeros(n * n, dtype=np.int64)
        A[cells[rows, _digits(c, cells)]] = 1
        lams[c] = perron_eigenvalue(A.reshape(n, n))
        top = max(top, lams[c])
    best_lam, best = -1.0, 0
    for c in sorted(lams):
        if lams[c] > best_lam + 1e-12:
            best_lam, best = lams[c], c
    G = window_presentation(q, windows[rows, _digits(best, cells)])
    system = _verified_system(q, k, l, G, f"exhaustive(q={q}, k={k}, l={l})")
    value = float("-inf") if best_lam == 0.0 else log_base(best_lam, q)
    return value, system


def _power_text(q: int, e: int) -> str:
    """``q**e`` in digits while it is below 2**64, else as the power, bracketed."""
    return str(q**e) if e * math.log2(q) < 64 else f"({q}**{e})"


def _window_cells(q: int, n: int, windows: np.ndarray) -> np.ndarray:
    """Flat position of each window in the n x n overlap matrix of the search.

    Entry ``[p, j]`` is ``src * n + dst`` for the window ``windows[p, j]``,
    ``u + middles[j] + v`` with ``(u, v) = pairs[p]``: the ranks of its
    prefix and suffix among the n words of their length.
    """
    return _ranks(windows[..., :-1], q) * n + _ranks(windows[..., 1:], q)


def _digits(index: np.ndarray | int, cells: np.ndarray) -> np.ndarray:
    """Middle index per boundary pair of the candidates at enumeration `index`.

    Pair p takes digit p of the index in base ``len(middles)``, most
    significant first, as `itertools.product` enumerates them.
    """
    n_pairs, base = cells.shape
    return np.asarray(index)[..., None] // base ** np.arange(n_pairs - 1, -1, -1) % base


def _symmetry_tables(q: int, pairs: np.ndarray, middles: np.ndarray) -> np.ndarray:
    """Index tables of the alphabet permutations and reversal, identity first.

    A permutation s maps the window ``u m v`` to ``s(u) s(m) s(v)``, and
    reversal maps it to ``rev(v) rev(m) rev(u)``: each maps a recovery
    function to another.  Entry ``[g, p, j]`` is the term that pair p with
    middle j adds to the enumeration index of the image under map g, so the
    image of candidate c has index ``sum_p T[g, p, digit_p(c)]``.
    """
    weight = len(middles) ** np.arange(len(pairs) - 1, -1, -1)
    tables = []
    for perm in map(np.array, permutations(range(q))):
        for flip in (slice(None), slice(None, None, -1)):
            pair_img = _ranks(perm[pairs[:, flip]], q)
            mid_img = _ranks(perm[middles[:, flip]], q)
            tables.append(weight[pair_img, None] * mid_img)
    return np.array(tables)


def _ranks(words: np.ndarray, q: int) -> np.ndarray:
    """Rank of each word, along the last axis, among the words of its length."""
    return words @ q ** np.arange(words.shape[-1] - 1, -1, -1)


def _orbit_minima(tables: np.ndarray) -> np.ndarray:
    """Candidates, ascending, that are the least index of their orbit.

    `tables` are those of `_symmetry_tables`.  Candidates are scanned in
    blocks that share their leading digits, of at most ``_STACK_BYTES / 8``
    candidates: within a block, the image indices under a map are one sum
    for the leading pairs plus, for the trailing pairs, an outer sum that
    is the same for every block.
    """
    n_maps, n_pairs, base = tables.shape
    tail = next(t for t in range(n_pairs, -1, -1) if base**t <= _STACK_BYTES // 8)
    split = n_pairs - tail
    heads = [_index_sums(table[:split]) for table in tables[1:]]
    tails = [_index_sums(table[split:]) for table in tables[1:]]
    kept = []
    for block in range(base**split):
        index = np.arange(block * base**tail, (block + 1) * base**tail)
        keep = np.ones(len(index), dtype=bool)
        for head, rest in zip(heads, tails):
            keep &= index <= head[block] + rest
        kept.append(index[keep])
    return np.concatenate(kept)


def _index_sums(rows: np.ndarray) -> np.ndarray:
    """``sum_p rows[p, d_p]`` for every digit tuple d, in enumeration order."""
    sums = np.zeros(1, dtype=np.int64)
    for row in rows:
        sums = (sums[:, None] + row).ravel()
    return sums


def _search_bounds(flat: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on ``rho(A_c) + 1`` for each row of a stack of candidates.

    Row c of `flat` holds the overlap-matrix cells ``src * n + dst`` of
    candidate c's windows, one per boundary pair (see `_window_cells`).
    `_BOUND_STEPS` power steps ``v <- (A_c + I) v`` run on the whole stack
    from the all-ones vector, each a gather and a `bincount` over the
    windows.  For any nonnegative M and any positive v,
    ``rho(M) <= max(Mv / v)`` (Collatz-Wielandt; Lind & Marcus, ch. 4),
    reducible or not, and M's unit diagonal keeps v positive, so the least
    maximum over the steps bounds ``rho(A_c) + 1``.
    """
    size = len(flat) * n
    offsets = np.arange(0, size, n)[:, None]
    src, dst = (flat // n + offsets).ravel(), (flat % n + offsets).ravel()
    v = np.ones((len(flat), n))
    hi = np.full(len(flat), np.inf)
    for _ in range(_BOUND_STEPS):
        w = v + np.bincount(src, weights=v.ravel()[dst], minlength=size).reshape(v.shape)
        hi = np.minimum(hi, (w / v).max(axis=1))
        v = w / w.max(axis=1, keepdims=True)
    return hi
