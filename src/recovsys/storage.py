"""Periodic points of recoverable systems and the cycle codes they induce.

The words read around closed paths of a (1, 1)-recoverable presentation form
a storage code on the cycle graph: every symbol is reproducible from its two
neighbors through the one shared recovery rule of the system.  Word sets are
held as `WordRows`, one sorted array of distinct symbol rows, and every check
on a code runs over that array: the middles of the rule's one-symbol entries
are looked up by (left, right) key in a dense table of 256 x 256 cells for
one-byte symbols, or in the entries' sorted keys for wider ones, so memory
never follows the symbol values.  Period-n points are counted exactly as
the trace of an adjacency power, from its residues modulo word-size primes.
Period-n words are read by joining the walks of the two half lengths on
their endpoints, which yields the rows already sorted; `graphs.ENUM_CAP`
bounds the closed-walk count and the longer half's path count, and is
tested before any walk starts.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass

import numpy as np

from . import graphs
from .graphs import LabeledDigraph, Word, adjacency, essential_subgraph, log_base, trace_power
from .systems import RecoverableSystem, RecoveryTable

# Bound on each int64 temporary of `verify_storage_code`, which works on
# blocks of rows so that no temporary grows with the code.
_BLOCK_BYTES = 1 << 20


class WordRows(Set):
    """Read-only set of equal-length words held as rows of one symbol array.

    `rows` is an (N, n) array, lexicographically sorted with no row
    repeated, in the dtype it was given.  `len` reads N, iteration yields
    the words as tuples in sorted order, and the first membership test
    builds the frozenset that answers it and later ones.
    """

    __slots__ = ("rows", "_set")

    def __init__(self, rows: np.ndarray) -> None:
        if graphs._strictly_increasing(rows):
            rows = rows.copy()
        else:
            rows, _, new = graphs._sorted_runs(rows)
            rows = rows[new]
        self._hold(rows)

    @classmethod
    def _sorted(cls, rows: np.ndarray) -> WordRows:
        """Rows already sorted and distinct, held as they are, with no check.

        Only for the output of `graphs._closed_paths`, whose order the tests
        check; every other caller goes through the check in `__init__`.
        """
        words = cls.__new__(cls)
        words._hold(rows)
        return words

    def _hold(self, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.rows = rows
        self._set: frozenset[Word] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __contains__(self, word: object) -> bool:
        if self._set is None:
            self._set = frozenset(self)
        return word in self._set

    def __repr__(self) -> str:
        return f"WordRows({len(self)} words of length {self.rows.shape[1]})"

    @classmethod
    def _from_iterable(cls, words: Iterable[Word]) -> frozenset[Word]:
        # Set algebra (&, |, -, ^) returns plain frozensets.
        return frozenset(words)


@dataclass(frozen=True)
class PeriodicPoints:
    """Exact count of closed label paths, plus the words when enumerated.

    `words` holds the distinct words as `WordRows`, in the smallest unsigned
    dtype that holds q - 1, or is None when they were not enumerated.
    """

    count: int
    words: WordRows | None


@dataclass(frozen=True)
class CycleStorageCode:
    """Cyclic-shift-closed word set repaired by one shared neighbor rule.

    The cycle has length n >= 3, so each position has two distinct
    neighbors; q >= 1, and every codeword is a length-n word over [q].
    `codewords` is a `WordRows`, kept as it is: the period-n points of
    `storage_code_for_cycle` or the rows of a code file.  `recovery_table`
    is held as the `RecoveryTable.of` the table given, and ValueError
    refuses one of words not 1, 1 and 1 long, or of symbols not integers.
    """

    n: int
    q: int
    codewords: WordRows
    recovery_table: RecoveryTable

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("a cycle needs length at least 3")
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        rows = self.codewords.rows
        if len(rows) and rows.shape[1] != self.n:
            raise ValueError(f"codewords of length [{rows.shape[1]}] in a code of length {self.n}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.q):
            bad = rows[((rows < 0) | (rows >= self.q)).any(axis=1)]
            raise ValueError(f"codeword {min(map(tuple, bad.tolist()))} is not a word over [{self.q}]")
        table = RecoveryTable.of(self.recovery_table, want=(1, 1, 1))
        object.__setattr__(self, "recovery_table", table)
        if table.rows.dtype.kind not in "iu" and not all(isinstance(s, int | np.integer) for s in table.rows.flat):
            raise ValueError(f"recovery table symbols must be integers, not {table.rows.dtype}")

    def rate(self) -> float:
        """(1/n) log_q of the code size; empty codes rate -inf."""
        if not self.codewords:
            return float("-inf")
        return log_base(len(self.codewords), self.q) / self.n


@dataclass(frozen=True)
class StorageVerification:
    ok: bool
    violation: tuple[Word, int] | None = None


def perrin_count(n: int) -> int:
    """n-th term of z_n = z_{n-2} + z_{n-3} from z_0=3, z_1=0, z_2=2."""
    if n < 0:
        raise ValueError("the sequence starts at n = 0")
    z = [3, 0, 2]
    if n < 3:
        return z[n]
    for _ in range(n - 2):
        z = [z[1], z[2], z[0] + z[1]]
    return z[2]


def periodic_points(G: LabeledDigraph, n: int) -> PeriodicPoints:
    """Period-n points of the system presented by `G`.

    Closed paths lie in the essential subgraph ``E``; the exact count is the
    trace of its n-th adjacency power, which `trace_power` takes modulo
    word-size primes in float64 and rebuilds by the Chinese remainder
    theorem, with no product of Python ints.  When the edges of ``E`` emit
    single symbols, and both the count and the number of paths of length
    ``n - n // 2`` are at most `graphs.ENUM_CAP` (tested before any walk;
    else `words` is None), the words are read by meeting in the middle: the
    walks of the two half lengths are joined on their shared endpoints, one
    joined row per closed sequence of edge rows, and the distinct rows come
    out already sorted.  The count bounds the joined rows, and in an
    essential graph the longer half has at least as many paths as the
    shorter; a row's count does not repeat a walk.  There are `count` words
    iff distinct closed paths spell distinct words, as in window
    presentations; two loops labeled 0 give two points, one word.
    """
    if n < 1:
        raise ValueError("the period must be at least 1")
    E = essential_subgraph(G)
    count = trace_power(adjacency(E), n)
    words = None
    if E.edge_label_len <= 1 and count <= graphs.ENUM_CAP and graphs._within_enum_cap(E, n - n // 2):
        words = WordRows._sorted(graphs._closed_paths(E, n))
    return PeriodicPoints(count, words)


def storage_code_for_cycle(S: RecoverableSystem, n: int) -> CycleStorageCode:
    """Storage code on the n-cycle from the period-n points of `S`.

    Needs a (1, 1)-recoverable system and n >= 3 (each position must have
    two distinct neighbors); the recovery table is shared with `S`.  More
    than `graphs.ENUM_CAP` period-n points, or paths of length ``n - n // 2``,
    in the essential presentation raise ValueError.
    """
    if S.k != 1 or S.l != 1:
        raise ValueError("cycle codes come from (1, 1)-recoverable systems")
    if n < 3:
        raise ValueError("a cycle needs length at least 3")
    pts = periodic_points(S.presentation, n)
    if pts.words is None:
        raise ValueError(
            f"period-{n} closed walks or half-length paths over the enumeration cap "
            f"of {graphs.ENUM_CAP} paths"
        )
    return CycleStorageCode(n, S.q, pts.words, S.recovery_table)


def verify_storage_code(C: CycleStorageCode) -> StorageVerification:
    """Check that every codeword position is repaired by the shared table.

    Returns the first violating (codeword, position) in sorted order when a
    neighbor pair is missing from the table or decodes to the wrong symbol.
    The table's rows are read as (left, middle, right) entries, and only those
    whose symbols all lie in [0, top), top one past the codewords' largest,
    can repair a position.  Each block of rows is checked with one lookup of
    its positions' (left, right) keys, read at the rolled neighbors, and one
    comparison with the middles found.  One-byte rows key by symbol into a
    dense table of 256 x 256 middles.  Wider rows key by the symbols' ranks
    among the K the entries name, with K for a symbol they do not name, and
    find the middle by searching the entries' sorted keys; so memory never
    grows with the symbol values or with the square of the entries.  Empty
    cells hold a value no index takes.
    """
    rows = C.codewords.rows
    # Symbols past the codewords' largest repair nothing; the rest fit the rows' dtype.
    top = int(rows.max()) + 1 if rows.size else 0
    entries = C.recovery_table.windows.reshape(-1, 3)
    entries = entries[((entries >= 0) & (entries < top)).all(axis=1)].astype(rows.dtype)
    if rows.dtype == np.uint8:
        # Symbols are their own indices, and uint16 holds every key.
        symbols, width = None, np.uint16(256)
        left, middle, right = entries.astype(np.intp).T
        table = np.full(256 * 256, 256, dtype=np.uint16)
        table[left * 256 + right] = middle
    else:
        symbols, _, new = graphs._sorted_runs(entries.reshape(-1, 1))
        symbols = symbols[new, 0]
        width = len(symbols) + 1
        left, middle, right = np.searchsorted(symbols, entries).T
        # Cell len(pairs), the rank of a missing key, is the empty one.
        pairs = left * width + right
        order = np.argsort(pairs)
        pairs, table = pairs[order], np.append(middle[order], width)
    per_block = max(1, _BLOCK_BYTES // (8 * C.n))
    for lo in range(0, len(rows), per_block):
        block = rows[lo : lo + per_block]
        at = block if symbols is None else _ranks(symbols, block)
        key = np.roll(at, 1, axis=1) * width
        key += np.roll(at, -1, axis=1)
        ok = table.take(key if symbols is None else _ranks(pairs, key)) == at
        if not ok.all():
            r, i = divmod(int(np.argmin(ok)), C.n)
            return StorageVerification(False, (tuple(block[r].tolist()), i))
    return StorageVerification(True)


def _ranks(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each entry's rank in the sorted, distinct `values`, or ``len(values)`` if absent."""
    at = np.searchsorted(values, x)
    if len(values):
        at[values.take(at, mode="clip") != x] = len(values)
    return at

