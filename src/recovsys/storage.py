"""Periodic points of recoverable systems and the cycle codes they induce.

The words read around closed paths of a (1, 1)-recoverable presentation form
a storage code on the cycle graph: every symbol is reproducible from its two
neighbors through the one shared recovery rule of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import graphs
from .graphs import LabeledDigraph, Word, adjacency, essential_subgraph, log_base, trace_power
from .systems import RecoverableSystem


@dataclass(frozen=True)
class PeriodicPoints:
    """Exact count of closed label paths, plus the words when enumerated."""

    count: int
    words: frozenset[Word] | None


@dataclass(frozen=True)
class CycleStorageCode:
    """Cyclic-shift-closed word set repaired by one shared neighbor rule.

    The cycle has length n >= 3, so each position has two distinct
    neighbors; q >= 1, and every codeword is a length-n word over [q].
    """

    n: int
    q: int
    codewords: frozenset[Word]
    recovery_table: Mapping[tuple[Word, Word], Word]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("a cycle needs length at least 3")
        if self.q < 1:
            raise ValueError("alphabet size must be at least 1")
        lengths = set(map(len, self.codewords)) - {self.n}
        if lengths:
            raise ValueError(
                f"codewords of length {sorted(lengths)} in a code of length {self.n}"
            )
        for w in self.codewords:
            if min(w) < 0 or max(w) >= self.q:
                raise ValueError(f"codeword {w} is not a word over [{self.q}]")

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
    trace of its n-th adjacency power.  When the edges of ``E`` emit single
    symbols and it has at most `graphs.ENUM_CAP` length-n paths (tested
    before any walk; else `words` is None), one array walk reads the symbols
    of every sequence of n edge rows, and those that end where they start
    are the words; a row's count does not repeat a walk.
    There are `count` words iff distinct closed paths spell distinct words,
    as in window presentations; two loops labeled 0 give two points, one word.
    """
    if n < 1:
        raise ValueError("the period must be at least 1")
    E = essential_subgraph(G)
    count = trace_power(adjacency(E), n)
    words: frozenset[Word] | None = None
    if E.edge_label_len <= 1 and graphs._within_enum_cap(E, n):
        start, end, symbols = graphs._paths(E, n)
        words = frozenset(tuple(w.tolist()) for w in symbols[start == end])
    return PeriodicPoints(count, words)


def storage_code_for_cycle(S: RecoverableSystem, n: int) -> CycleStorageCode:
    """Storage code on the n-cycle from the period-n points of `S`.

    Needs a (1, 1)-recoverable system and n >= 3 (each position must have
    two distinct neighbors); the recovery table is shared with `S`.  More
    than `graphs.ENUM_CAP` length-n paths in the essential presentation
    raise ValueError.
    """
    if S.k != 1 or S.l != 1:
        raise ValueError("cycle codes come from (1, 1)-recoverable systems")
    if n < 3:
        raise ValueError("a cycle needs length at least 3")
    pts = periodic_points(S.presentation, n)
    if pts.words is None:
        raise ValueError(f"period-{n} walk over the enumeration cap of {graphs.ENUM_CAP} paths")
    return CycleStorageCode(n, S.q, pts.words, S.recovery_table)


def verify_storage_code(C: CycleStorageCode) -> StorageVerification:
    """Check that every codeword position is repaired by the shared table.

    Returns the first violating (codeword, position) in sorted order when a
    neighbor pair is missing from the table or decodes to the wrong symbol.
    """
    for w in sorted(C.codewords):
        for i in range(C.n):
            left = (w[(i - 1) % C.n],)
            right = (w[(i + 1) % C.n],)
            repaired = C.recovery_table.get((left, right))
            if repaired != (w[i],):
                return StorageVerification(False, (w, i))
    return StorageVerification(True)
