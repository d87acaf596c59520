"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import functools
import math
import time
from itertools import permutations, product

import numpy as np
import pytest

import recovsys as rs
from recovsys.cli import bounds_csv, bounds_rows
from recovsys.measures import higher_block_presentation

from conftest import (
    BINARY_FORBIDDEN,
    brute_force_word_count,
    forbidden_from_graph,
    hop_distances,
    plastic_number,
)

PERRIN_MATRIX = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def criterion(number, summary):
    def deco(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            try:
                f(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {summary}")
                raise
            print(f"criterion {number:2d} PASS  {summary}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def epsilon_sweep(construction_suite):
    """Perturbed measures for the entropy-gain suite, built once."""
    out = {}
    for name, S in construction_suite.items():
        for eps in (0.05, 0.1, 0.5):
            out[(name, eps)] = rs.epsilon_construction(S, eps)
    return out


@criterion(1, "exhaustive search reproduces the binary (1,1) optimum")
def test_criterion_1():
    start = time.perf_counter()
    value, witness = rs.exhaustive_max_capacity(2, 1, 1)
    elapsed = time.perf_counter() - start
    assert abs(value - 0.4057) <= 5e-4
    words = forbidden_from_graph(witness.presentation, 1, 1).words
    relabeled = frozenset(tuple(1 - c for c in w) for w in BINARY_FORBIDDEN)
    assert words in (BINARY_FORBIDDEN, relabeled)
    assert elapsed < 10.0, f"16-candidate search took {elapsed:.2f}s"


@criterion(2, "closed-form capacity matches truncated spectra for t in [2,8]")
def test_criterion_2():
    for t in range(2, 9):
        for r in range(0, t + 1):
            q = t * t - r
            lam = rs.perron_eigenvalue(rs.truncated_matrix(q))
            assert abs(rs.capacity_formula(q) - math.log(lam, q)) < 1e-9, (t, r)
    lam8 = rs.perron_eigenvalue(rs.truncated_matrix(8))
    assert abs(math.log(lam8, 8) - math.log(1 + math.sqrt(3), 8)) < 1e-9
    lam6 = rs.perron_eigenvalue(rs.truncated_matrix(6))
    assert abs(math.log(lam6, 6) - math.log(2, 6)) < 1e-12


@criterion(
    3,
    "truncated graphs: diameter 2 (r <= 1) or 3 (2 <= r < t), "
    "A^3 > 0 and squared rank 2 for r < t",
)
def test_criterion_3():
    # Strong connectivity for every r < t, and the two-row-pattern / rank-2
    # structure of the squared matrix whenever a row was actually deleted
    # (r = 0 leaves the full graph, whose square is the all-ones matrix: a
    # single pattern).
    for t in range(2, 9):
        for r in range(0, t):
            q = t * t - r
            A = rs.truncated_matrix(q)
            system = rs.truncated_debruijn_system(q)
            assert len(rs.scc_decompose(system.presentation)) == 1, (t, r)
            patterns = {tuple(row) for row in (A @ A).tolist()}
            assert len(patterns) == (1 if r == 0 else 2), (t, r)
            assert np.linalg.matrix_rank(A @ A) <= 2, (t, r)
    # The diameter as an exact value, so that a move either way fails.
    # ERRATA.md (criterion 3) proves these values and gives the q = 7
    # counterexample to the claim "diameter <= 2 for every r < t".
    for t in range(2, 9):
        for r in range(0, t):
            A = rs.truncated_matrix(t * t - r)
            dist = hop_distances(A)
            assert (dist >= 0).all(), (t, r)
            expected = 2 if r <= 1 else 3
            assert dist.max() == expected, (
                f"directed diameter {dist.max()} != {expected} "
                f"at t={t}, r={r} (q={t * t - r})"
            )
            assert (np.linalg.matrix_power(A, 3) > 0).all(), (t, r)


@criterion(4, "loop extension beats edge covering at q = 6")
def test_criterion_4(edge4_system):
    S6 = rs.recursive_extend(edge4_system)
    assert S6.q == 6
    assert rs.verify_recoverable(S6.presentation, 1, 1).ok
    bound = 0.5 * math.log(4, 6) + (1 / 16) * math.log(17 / 16, 6)
    assert rs.capacity(S6) >= bound - 1e-9
    assert bound > math.log(2, 6)


@criterion(5, "max-entropy measure matches the worked 4-state chain")
def test_criterion_5(binary_system):
    G3 = rs.higher_power(higher_block_presentation(binary_system), 3)
    mu = rs.max_entropy_measure(G3)
    expected_p = np.array([0.177, 0.411, 0.177, 0.235])
    expected_P = np.array(
        [
            [0.43, 0.57, 0.0, 0.0],
            [0.0, 0.43, 0.245, 0.325],
            [0.0, 0.0, 0.43, 0.57],
            [0.43, 0.57, 0.0, 0.0],
        ]
    )
    assert np.abs(mu.p - expected_p).max() < 5e-3
    assert np.abs(mu.P - expected_P).max() < 5e-3
    assert abs(rs.entropy_rate(mu) - math.log2(plastic_number())) < 1e-9


@criterion(6, "perturbed chain matches the worked 8-state chain")
def test_criterion_6(binary_system):
    built = rs.epsilon_construction(binary_system, 0.286)
    delta = built.params.delta
    assert abs(delta - 0.05) < 5e-4
    a, b, c, d = 0.43, 0.57, 0.245, 0.325
    dl, db = delta, 1 - delta
    row_even = [a * dl, 0, a * db, 0, c * db, d * db, c * dl, d * dl]
    row_odd = [b * dl, a * db, b * db, a * dl, 0, 0, 0, 0]
    row_high = [0, 0, 0, 0, a * db, b * db, a * dl, b * dl]
    expected_P = np.array(
        [row_even, row_odd, row_even, row_odd, row_high, row_odd, row_high, row_odd]
    )
    nu = built.measure
    assert nu.states == tuple(product(range(2), repeat=3))
    assert np.abs(nu.P - expected_P).max() < 5e-3
    expected_p = np.array(
        [0.02, 0.168, 0.391, 0.009, 0.168, 0.223, 0.009, 0.012]
    )
    assert np.abs(nu.p - expected_p).max() < 2e-3
    assert np.abs(nu.p @ nu.P - nu.p).max() < 1e-12
    gain = rs.entropy_rate(nu) - rs.entropy_rate(built.base_measure)
    assert abs(gain - 0.286 / 3) < 1e-9


@criterion(7, "entropy gain is epsilon/(2l+k) across the construction suite")
def test_criterion_7(epsilon_sweep):
    for (name, eps), built in epsilon_sweep.items():
        gain = rs.entropy_rate(built.measure) - rs.entropy_rate(built.base_measure)
        assert abs(gain - eps / 3) < 1e-9, (name, eps)
        report = rs.window_conditional_entropy(built.measure, 1, 1)
        assert report.entries, (name, eps)
        for pair, value in report.entries.items():
            assert abs(value - eps) < 1e-9, (name, eps, pair)


@criterion(8, "decoder confidence is at least 1 - epsilon/2")
def test_criterion_8(epsilon_sweep, construction_suite):
    checked = 0
    for (name, eps), built in epsilon_sweep.items():
        q = construction_suite[name].q
        if not eps < 2 / q:
            continue
        report = rs.window_conditional_entropy(built.measure, 1, 1)
        for alpha, beta in report.entries:
            _, prob = rs.map_decoder(built.measure, 1, 1, alpha, beta)
            assert prob >= 1 - eps / 2, (name, eps, alpha, beta)
            checked += 1
    assert checked > 0


@criterion(9, "exact periodic counts follow the z_n = z_{n-2} + z_{n-3} law")
def test_criterion_9(binary_system):
    start = time.perf_counter()
    for n in range(41):
        assert rs.trace_power(PERRIN_MATRIX, n) == rs.perrin_count(n)
    for n in range(1, 16):
        pts = rs.periodic_points(binary_system.presentation, n)
        assert pts.words is not None and len(pts.words) == pts.count
        assert pts.count == rs.perrin_count(n)
    assert time.perf_counter() - start < 5.0


@criterion(10, "word counts equal the brute-force scan and dominate capacity")
def test_criterion_10(binary_system):
    small_alphabet_systems = {
        "binary_max_capacity": binary_system,
        "truncated_q2": rs.truncated_debruijn_system(2),
        "truncated_q3": rs.truncated_debruijn_system(3),
        "marker_q3_k1": rs.marker_system(3, 1),
    }
    for name, S in small_alphabet_systems.items():
        window = 2 * S.l + S.k
        F = forbidden_from_graph(S.presentation, S.k, S.l)
        cap = rs.capacity(S)
        for n in range(window, 13):
            count = rs.count_words(S.presentation, n)
            assert count == brute_force_word_count(S.q, n, F.words), (name, n)
            assert math.log(count, S.q) / n >= cap - 1e-9, (name, n)


@criterion(11, "bound report regenerates the small-alphabet comparison table")
def test_criterion_11():
    rows = bounds_rows(9, 16)
    csv = bounds_csv(rows).splitlines()
    assert csv[0] == "q,eq11_bound,recursive_bound,upper_bound"
    assert len(csv) == 9
    for q, eq11, rec, upper in rows:
        assert upper == 0.5
        assert rec is not None and rec <= 0.5 + 1e-12, q
        if eq11 is not None:
            assert eq11 <= 0.5 + 1e-12, q
        if 12 <= q <= 16:
            lam = rs.perron_eigenvalue(rs.truncated_matrix(q))
            assert eq11 is not None and abs(eq11 - math.log(lam, q)) < 1e-9, q
