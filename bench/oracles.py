"""Independent reference values for the benchmark's correctness checks.

Nothing here calls into `recovsys`: capacities come from closed forms or from
`numpy.linalg.eigvals` on matrices the benchmark builds or parses itself,
periodic-point counts from the Perrin recurrence or object-dtype integer
matrix powers, and file contents are parsed with the benchmark's own readers.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np

TOL = 1e-9
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class OracleError(Exception):
    """A job's output disagrees with its reference value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def expect_close(got: float, want: float, what: str, tol: float = TOL) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


def log_q(x: float, q: int) -> float:
    return math.log(x) / math.log(q)


def truncation(q: int) -> tuple[int, int]:
    """(t, r) with q = t*t - r and t = ceil(sqrt(q))."""
    t = math.isqrt(q - 1) + 1
    return t, t * t - q


def truncated_capacity(q: int) -> float | None:
    """Closed form of eq. 11, or None where 0 <= r <= t fails."""
    t, r = truncation(q)
    if r > t:
        return None
    return log_q((t - 1 + math.sqrt((t - 1) ** 2 + 4 * (t - r))) / 2, q)


def chain_bound(q: int) -> float | None:
    """Loop-extension lower bound, seeded at the largest same-parity square."""
    seeds = [s * s for s in range(2, math.isqrt(q) + 1) if (q - s * s) % 2 == 0]
    if not seeds:
        return None
    value = 0.5
    for p in range(seeds[-1], q, 2):
        value = value * log_q(p, p + 2) + log_q(1 + 1 / p**2, p + 2) / p**2
    return value


def spectral_radius(A: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def best_recovery_radius(q: int, k: int, l: int) -> float:
    """Largest spectral radius over every recovery function, batched.

    A recovery function keeps one middle k-word per boundary pair of l-words;
    each candidate is the 0/1 window-overlap matrix on (2l+k-1)-words of the
    windows it keeps.  All candidates are stacked into one array.
    """
    sides = list(product(range(q), repeat=l))
    pairs = [(u, v) for u in sides for v in sides]
    middles = list(product(range(q), repeat=k))
    n = q ** (2 * l + k - 1)

    # ends[p, m] = (row, col) of the window u + m + v for pair p, middle m
    ends = np.array(
        [[(rank((u + m + v)[:-1], q), rank((u + m + v)[1:], q)) for m in middles] for u, v in pairs]
    )
    choices = np.array(list(product(range(len(middles)), repeat=len(pairs))))
    stack = np.zeros((len(choices), n, n))
    batch = np.arange(len(choices))
    for p in range(len(pairs)):
        rows, cols = ends[p, choices[:, p]].T
        stack[batch, rows, cols] = 1.0
    return float(np.abs(np.linalg.eigvals(stack)).max())


def rank(w: tuple[int, ...], q: int) -> int:
    """Base-q value of a word, most significant symbol first."""
    value = 0
    for c in w:
        value = value * q + c
    return value


def perrin(n: int) -> int:
    """z_n = z_{n-2} + z_{n-3}, z_0 = 3, z_1 = 0, z_2 = 2."""
    z = [3, 0, 2]
    while len(z) <= n:
        z.append(z[-2] + z[-3])
    return z[n]


def exact_trace_power(A: np.ndarray, n: int) -> int:
    """trace(A**n) with Python integers (object dtype), by repeated squaring."""
    M = np.asarray(A).astype(object)
    result = np.identity(M.shape[0], dtype=int).astype(object)
    while n:
        if n & 1:
            result = result.dot(M)
        n >>= 1
        if n:
            M = M.dot(M)
    return int(sum(result[i, i] for i in range(M.shape[0])))


def word(text: str) -> tuple[int, ...]:
    return tuple(DIGITS.index(c) for c in text)


def read_graph(path: Path) -> tuple[int, np.ndarray]:
    """Alphabet size and count adjacency of a graph file."""
    doc = json.loads(Path(path).read_text())
    n = len(doc["vertices"])
    A = np.zeros((n, n))
    for e in doc["edges"]:
        A[e["from"], e["to"]] += 1
    return doc["q"], A


def read_measure(path: Path) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """State words and stationary vector of a measure file."""
    lines = Path(path).read_text().splitlines()
    n = int(lines[3].split()[1])
    states = [word(s) for s in lines[4 : 4 + n]]
    expect(lines[-2] == "p", f"{path}: no stationary vector block")
    return states, np.array(lines[-1].split(","), dtype=float)


def window_entropies(states, p, q: int, k: int, l: int) -> list[float]:
    """Middle-word entropy (base q) per populated boundary pair.

    The windows of length 2l+k are the states of a block chain that emits its
    whole state word, so the window marginal is the stationary vector.
    """
    groups: dict = {}
    for w, pr in zip(states, p):
        expect(len(w) == 2 * l + k, f"state {w} is not a {2 * l + k}-window")
        if pr > 0:
            groups.setdefault((w[:l], w[l + k :]), []).append(pr)
    out = []
    for masses in groups.values():
        x = np.array(masses) / sum(masses)
        out.append(float(-(x * np.log(x)).sum() / math.log(q)))
    return out


def epsilon_rate_cost(delta: float, q: int, k: int) -> float:
    """H_q(delta) + delta log_q(q^k - 1): the entropy a rate-delta ghost adds."""
    h = sum(-x * math.log(x) for x in (delta, 1 - delta) if x > 0) / math.log(q)
    spread = q**k - 1
    return h + (delta * log_q(spread, q) if spread > 1 else 0.0)


def parse_values(text: str) -> dict[str, str]:
    """First token after each leading key of CLI output lines."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            out.setdefault(parts[0], parts[1])
    return out
