import dataclasses
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recovsys as rs
from recovsys import serialization as ser
from recovsys.graphs import LabeledDigraph

from conftest import forbidden_from_graph, open_walk_points, plastic_number, tuple_window_presentation, word_from_int

DB2_MATRIX = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
    ]
)

DB3_MATRIX = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1],
    ]
)

PERRIN_MATRIX = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def small_graph_strategy():
    """Random deterministic presentations over small alphabets."""

    @st.composite
    def build(draw):
        q = draw(st.integers(min_value=2, max_value=3))
        n = draw(st.integers(min_value=1, max_value=5))
        labels = tuple((i, 0) for i in range(n)) if n <= q else None
        if labels is None:
            labels = tuple(
                word_from_int(i, q, 3) for i in range(n)
            )
        edges = []
        for u in range(n):
            targets = draw(st.lists(st.integers(0, n - 1), max_size=q, unique=True))
            for j, v in enumerate(targets):
                edges.append((u, v, (j,)))
        return LabeledDigraph(q, labels, tuple(edges))

    return build()


def test_de_bruijn_binary_matches_printed_matrix():
    assert np.array_equal(rs.adjacency(rs.de_bruijn(2, 2)), DB2_MATRIX)


def test_de_bruijn_ternary_matches_printed_matrix():
    assert np.array_equal(rs.adjacency(rs.de_bruijn(3, 2)), DB3_MATRIX)


def test_de_bruijn_unary_is_one_self_loop():
    G = rs.de_bruijn(1, 2)
    assert G.labels == ((0, 0),)
    assert G.edges == ((0, 0, (0,)),)


def test_de_bruijn_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rs.de_bruijn(0, 2)
    with pytest.raises(ValueError):
        rs.de_bruijn(2, 0)


@st.composite
def window_lists(draw):
    """(q, width, windows): windows over [q] with repeats, in any order."""
    q, width = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    windows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * width), max_size=30))
    windows += draw(st.lists(st.sampled_from(windows), max_size=10)) if windows else []
    return q, width, draw(st.permutations(windows))


@settings(max_examples=300, deadline=None)
@given(window_lists(), st.sampled_from(["uint8", "int64", "list", "generator", "set"]))
def test_window_presentation_matches_the_tuple_build(drawn, form):
    q, width, windows = drawn
    if form in ("uint8", "int64"):
        given_as = np.array(windows, dtype=form).reshape(len(windows), width)
    else:
        given_as = {"list": list, "generator": iter, "set": set}[form](windows)
    G = rs.graphs.window_presentation(q, given_as)
    expected = tuple_window_presentation(q, windows)
    assert G == expected
    assert (G.labels, G.words, G.edges) == (expected.labels, expected.words, expected.edges)


@pytest.mark.parametrize(
    "windows",
    [
        np.array([[0.0, 1.0], [1.0, 0.5]]),
        np.array([[0, 1], [1, 2**70]], dtype=object),
        [(0, 1), (1, 1.5)],
        [(0, 1), (1,)],
        np.array([0, 1, 1]),
    ],
)
def test_window_presentation_refuses_windows_that_are_not_integer_rows(windows):
    with pytest.raises(ValueError):
        rs.graphs.window_presentation(3, windows)


def test_adjacency_of_edgeless_graph_is_zero():
    G = LabeledDigraph(2, ((0,), (1,)), ())
    assert not rs.adjacency(G).any()


def test_adjacency_counts_parallel_edges():
    G = LabeledDigraph(2, ((0,), (1,)), ((0, 1, (0,)), (0, 1, (1,))))
    assert rs.adjacency(G)[0, 1] == 2


def test_higher_power_one_rewrites_labels(binary_system):
    G = binary_system.presentation
    H = rs.higher_power(G, 1)
    assert rs.adjacency(H).tolist() == rs.adjacency(G).tolist()
    assert all(lab == H.labels[v] for _, v, lab in H.edges)


def test_higher_power_of_de_bruijn_square_is_all_ones():
    G = rs.de_bruijn(2, 2)
    assert np.array_equal(rs.adjacency(rs.higher_power(G, 2)), np.ones((4, 4)))


def test_higher_power_rejects_zero():
    with pytest.raises(ValueError):
        rs.higher_power(rs.de_bruijn(2, 2), 0)


def test_window_power_graph_out_degrees(binary_system):
    from recovsys.measures import higher_block_presentation

    G = higher_block_presentation(binary_system)
    assert G.labels == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1))
    A3 = rs.adjacency(rs.higher_power(G, 3))
    assert A3.sum(axis=1).tolist() == [2, 3, 2, 2]


@settings(max_examples=50, deadline=None)
@given(small_graph_strategy(), st.integers(min_value=1, max_value=5))
def test_higher_power_adjacency_is_matrix_power(G, m):
    A = np.linalg.matrix_power(rs.adjacency(G), m)
    H = rs.higher_power(G, m)
    assert np.array_equal(rs.adjacency(H), A)
    # One row per nonzero entry of the power, in row-major order.
    src, dst = np.nonzero(A)
    assert H.src.tolist() == src.tolist() and H.dst.tolist() == dst.tolist()
    assert H.count.tolist() == A[src, dst].tolist()
    assert H.lab.tolist() == dst.tolist() and H.words == G.labels


def test_strong_connectivity_examples(trunc8_system):
    assert rs.is_strongly_connected(trunc8_system.presentation)
    assert rs.is_strongly_connected(rs.de_bruijn(3, 2))
    assert not rs.is_strongly_connected(LabeledDigraph(2, ((0,), (1,)), ()))


def test_scc_of_strongly_connected_graph_is_everything():
    assert rs.scc_decompose(rs.de_bruijn(2, 2)) == [(0, 1, 2, 3)]


def test_scc_splits_cycle_and_loop():
    G = LabeledDigraph(
        3, ((0,), (1,), (2,)), ((0, 1, (1,)), (1, 0, (0,)), (2, 2, (2,)))
    )
    assert rs.scc_decompose(G) == [(0, 1), (2,)]


def test_scc_separates_truncated_q6_feeders():
    S = rs.truncated_debruijn_system(6)
    comps = rs.scc_decompose(S.presentation)
    assert comps == [(0, 1, 2, 3), (4,), (5,)]


def test_perron_of_de_bruijn_is_alphabet_size():
    for q in range(2, 10):
        lam = rs.perron_eigenvalue(rs.adjacency(rs.de_bruijn(q, 2)))
        assert abs(lam - q) < 1e-12


def test_perron_of_truncated_q8():
    assert abs(rs.perron_eigenvalue(rs.truncated_matrix(8)) - (1 + math.sqrt(3))) < 1e-12


def test_perron_of_perrin_companion_matrix_vs_bisection():
    assert abs(rs.perron_eigenvalue(PERRIN_MATRIX) - plastic_number()) < 1e-12


def test_perron_of_zero_matrix():
    assert rs.perron_eigenvalue(np.zeros((3, 3))) == 0.0


def test_perron_rejects_negative_entries():
    with pytest.raises(ValueError):
        rs.perron_eigenvalue(np.array([[1.0, -1.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_perron_is_permutation_invariant(data):
    rows, perm = data
    A = np.array(rows)
    P = np.eye(len(perm))[list(perm)]
    assert abs(
        rs.perron_eigenvalue(A) - rs.perron_eigenvalue(P @ A @ P.T)
    ) < 1e-12


def chorded_cycle(n, chords=()):
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus (u, v, multiplicity) chords."""
    A = np.zeros((n, n))
    A[np.arange(n), (np.arange(n) + 1) % n] = 1
    for u, v, mult in chords:
        A[u, v] += mult
    return A


def spectral_radius(A):
    return float(max(abs(np.linalg.eigvals(A))))


def charpoly(A):
    """Coefficients, leading first, of det(xI - A) for an integer matrix.

    Faddeev-LeVerrier over Python ints: ``M_k = A M_(k-1) + c_(k-1) I`` and
    ``c_k = -tr(A M_k) / k``, a division that is exact.
    """
    A = np.array(A, dtype=np.int64).astype(object)
    eye = np.eye(len(A), dtype=np.int64).astype(object)
    coeffs, M = [1], np.zeros_like(A)
    for k in range(1, len(A) + 1):
        M = A @ M + coeffs[-1] * eye
        c, r = divmod(-int(np.trace(A @ M)), k)
        assert r == 0
        coeffs.append(c)
    return coeffs


def sturm_sequence(coeffs):
    """The Sturm sequence of a polynomial, each one leading coefficient first, over Fractions."""
    p = [Fraction(c) for c in coeffs]
    seq = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1:
        r = list(seq[-2])
        while len(r) >= len(seq[-1]):
            f = r[0] / seq[-1][0]
            r = [a - f * b for a, b in zip(r[1:], seq[-1][1:])] + r[len(seq[-1]) :]
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def roots_above(seq, x):
    """Distinct real roots above x of the polynomial whose Sturm sequence is `seq`."""

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def value(p):
        v = Fraction(0)
        for c in p:
            v = v * x + c
        return v

    return changes([(value(p) > 0) - (value(p) < 0) for p in seq]) - changes([(p[0] > 0) - (p[0] < 0) for p in seq])


def is_spectral_radius(A, v, tol):
    """Exact check for a nonnegative integer matrix: a root of its
    characteristic polynomial lies within tol of v and none lies above."""
    seq = sturm_sequence(charpoly(A))
    return roots_above(seq, Fraction(v) + Fraction(tol)) == 0 and roots_above(seq, Fraction(v) - Fraction(tol)) >= 1


@pytest.mark.parametrize("length", [1, 50, 400, 799])
def test_perron_of_chorded_800_cycle_matches_eigvals(length):
    # Power iteration mixes slowly here; its estimate at a stall is off by up
    # to 7.9e-5 (length 1), so the value must come from the certified path.
    A = chorded_cycle(800, [(0, length, 1)])
    assert abs(rs.perron_eigenvalue(A) - spectral_radius(A)) <= 1e-12


@st.composite
def cycles_with_chords(draw):
    """A chorded cycle, or (reducible) two cycles with chords that never lead
    from the second back to the first; n <= 60, multiplicities 1-3."""
    n = draw(st.integers(min_value=1, max_value=60))
    split = draw(st.integers(1, n - 1)) if n > 1 and draw(st.booleans()) else n
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            max_size=8,
        )
    )
    A = np.zeros((n, n))
    for lo, hi in ((0, split), (split, n)):
        for u in range(lo, hi):
            A[u, lo + (u - lo + 1) % (hi - lo)] = 1
    for u, v, mult in chords:
        if not (u >= split > v):
            A[u, v] += mult
    return A


@settings(max_examples=80, deadline=None)
@given(cycles_with_chords())
# eigvals is off by 5.5e-12 here, a near-defective spectrum; the solver is right.
@example(chorded_cycle(21, [(0, 0, 3), (1, 1, 3)]))
# Drawn under --hypothesis-seed 114 and 136: the smallest Perron entry is
# 1.3e-9 and 1.9e-6 of the largest, and solves on the unscaled matrix left
# the bracket stalled at 1.1e-12 and 8.4e-12 relative, so the solver raised.
@example(chorded_cycle(48, [(0, 0, 2), (0, 1, 2), (0, 14, 1), (28, 28, 2)]))
@example(chorded_cycle(50, [(0, 0, 1), (20, 0, 1), (49, 46, 3)]))
def test_perron_matches_eigvals_on_random_chorded_cycles(A):
    # The certified bracket is on lam + 1, at most 1e-12 of it wide.
    # Where eigvals disagrees, the exact root count decides.
    rho, lam = spectral_radius(A), rs.perron_eigenvalue(A)
    if abs(lam - rho) > 1e-12 * (rho + 1):
        assert is_spectral_radius(A, lam, 1e-12 * (lam + 1))


def test_the_exact_check_tells_the_solver_from_eigvals_on_the_21_cycle():
    # 3.0000293297028695 is what eigvals gave here; a 50-digit eigensolve
    # gives 3.0000293297083343.
    A = chorded_cycle(21, [(0, 0, 3), (1, 1, 3)])
    lam = rs.perron_eigenvalue(A)
    assert is_spectral_radius(A, lam, 1e-12 * (lam + 1))
    assert not is_spectral_radius(A, 3.0000293297028695, 4e-12)
    assert not is_spectral_radius(A, lam + 1e-9, 1e-12 * (lam + 1))
    assert charpoly(PERRIN_MATRIX) == [1, 0, -1, -1]


@pytest.mark.parametrize(
    "n, u, length, mult",
    [(120, 0, 0, 1), (120, 3, 7, 2), (120, 5, 60, 3), (120, 0, 119, 1), (800, 0, 50, 1)],
)
def test_perron_escalated_path_matches_eigvals(monkeypatch, n, u, length, mult):
    monkeypatch.setattr(rs.graphs, "PERRON_POWER_STEPS", 0)
    A = chorded_cycle(n, [(u, (u + length) % n, mult)])
    rho = spectral_radius(A)
    lam, x = rs.graphs.perron_vectors(A)[:2]
    assert abs(lam - rho) <= 1e-12 * (rho + 1)
    assert x.min() > 0 and abs(x.sum() - 1) < 1e-12
    assert np.allclose(A @ x, lam * x, rtol=0, atol=1e-12 * x.max())


@pytest.mark.parametrize("power_steps", [0, 1])
def test_perron_raises_when_the_bracket_stays_open(monkeypatch, power_steps):
    monkeypatch.setattr(rs.graphs, "PERRON_POWER_STEPS", power_steps)
    monkeypatch.setattr(rs.graphs, "PERRON_CERT_STEPS", 0)
    with pytest.raises(RuntimeError, match=r"did not converge: lam \+ 1 in \["):
        rs.perron_eigenvalue(chorded_cycle(120, [(0, 50, 1)]))


def test_perron_start_with_zero_entries_does_not_certify(monkeypatch):
    # A solve that returns e_0 leaves zero entries in the iterate, whose
    # ratios are inf or nan and must never tighten the bracket: the first
    # step (the uniform vector, not a Perron vector here) leaves it open,
    # and three steps must end in an error.
    monkeypatch.setattr(rs.graphs, "PERRON_POWER_STEPS", 0)
    monkeypatch.setattr(rs.graphs, "PERRON_CERT_STEPS", 3)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.eye(len(b))[0])
    with pytest.raises(RuntimeError, match="did not converge"):
        rs.perron_eigenvalue(chorded_cycle(12, [(0, 5, 1)]))


def _perron_slicing_every_component(M):
    """perron_eigenvalue as it was before trivial components skipped the slice,
    with the number of components it solved."""
    best, solved = 0.0, 0
    for comp in rs.graphs._sccs(*np.nonzero(M > 0), len(M)):
        sub = M[np.ix_(comp, comp)]
        if sub.shape[0] == 1 and sub[0, 0] == 0.0:
            continue
        solved += 1
        best = max(best, rs.graphs.perron_vectors(sub)[0])
    return best, solved


@pytest.mark.parametrize("seed", range(8))
def test_perron_solves_only_nontrivial_components(monkeypatch, seed):
    # Sparse 0/1 matrices: mostly singleton components, some with a
    # self-loop, and a few cycles through back edges.
    rng = np.random.default_rng(seed)
    n = 80
    M = (rng.random((n, n)) < 1.2 / n).astype(float)
    expected, solved = _perron_slicing_every_component(M)
    assert len(rs.graphs._sccs(*np.nonzero(M > 0), n)) - solved >= n // 2
    calls = []
    perron = rs.graphs._perron
    monkeypatch.setattr(rs.graphs, "_perron", lambda sub, cap: calls.append(sub) or perron(sub, cap))
    assert rs.perron_eigenvalue(M) == expected
    assert len(calls) == solved
    assert all(len(sub) > 1 or sub[0, 0] > 0 for sub in calls)


def test_count_words_full_shift():
    assert rs.count_words(rs.de_bruijn(2, 2), 3) == 8


def test_count_words_single_self_loop():
    G = LabeledDigraph(1, ((0,),), ((0, 0, (0,)),))
    for n in (1, 2, 7, 40):
        assert rs.count_words(G, n) == 1


def test_count_words_rejects_zero_length(binary_system):
    with pytest.raises(ValueError):
        rs.count_words(binary_system.presentation, 0)


def test_count_words_matches_brute_force(binary_system):
    from conftest import brute_force_word_count

    F = forbidden_from_graph(binary_system.presentation, 1, 1)
    for n in range(3, 13):
        assert rs.count_words(binary_system.presentation, n) == brute_force_word_count(
            2, n, F.words
        )


def test_count_words_nondeterministic_fallback():
    # two out-edges with the same label force explicit enumeration
    G = LabeledDigraph(
        2,
        ((0,), (1,)),
        ((0, 0, (0,)), (0, 1, (0,)), (1, 0, (0,)), (1, 1, (1,))),
    )
    assert rs.count_words(G, 3) == len(rs.words_of_length(G, 3))


def test_count_words_nondeterministic_fallback_is_capped():
    G = LabeledDigraph(
        2,
        ((0,), (1,)),
        ((0, 0, (0,)), (0, 1, (0,)), (1, 0, (0,)), (1, 1, (1,))),
    )
    with pytest.raises(ValueError, match="capped"):
        rs.count_words(G, 21)


def test_word_counts_dominate_capacity(binary_system, trunc8_system):
    for S in (binary_system, trunc8_system):
        cap = rs.capacity(S)
        for n in range(1, 13):
            count = rs.count_words(S.presentation, n)
            assert math.log(count, S.q) / n >= cap - 1e-9


def test_trace_power_examples():
    assert rs.trace_power(PERRIN_MATRIX, 2) == 2
    assert rs.trace_power(PERRIN_MATRIX, 1) == 0
    assert rs.trace_power(np.diag([3, 4]), 1) == 7
    assert rs.trace_power(PERRIN_MATRIX, 7) == 7
    assert rs.trace_power(np.array([[2.0, 1.0], [1.0, 0.0]]), 3) == 14


@pytest.mark.parametrize(
    "count, A, e", [(rs.trace_power, [[1.9, 0], [0, 1]], 2), (rs.path_count, [[0.5]], 1)]
)
def test_exact_powers_reject_non_integer_entries(count, A, e):
    with pytest.raises(ValueError, match="integers"):
        count(A, e)


def test_trace_power_satisfies_perrin_recursion():
    z = [rs.trace_power(PERRIN_MATRIX, n) for n in range(41)]
    for n in range(3, 41):
        assert z[n] == z[n - 2] + z[n - 3]


ROW_SUM_3 = np.array([[3, 0], [1, 2]])  # row sums 3, and 3**39 < 2**63 < 3**40


def object_power(A, e):
    return np.linalg.matrix_power(np.asarray(A, dtype=object), e)


# Exponents around 3**e = 2**63, where the counts outgrow int64: the residue
# path takes 3 moduli below 2**25 up to e = 41 and 20 at e = 300.  40, 41,
# 57 and 81 end on a product of two powers, and 64 is a pure square, whose
# last product has the identity as its first factor.
GUARD_EXPONENTS = [39, 40, 41, 57, 64, 81, 300]


@pytest.mark.parametrize("e", GUARD_EXPONENTS)
def test_trace_power_on_both_sides_of_the_int64_guard(e):
    # At e >= 40 the trace exceeds 2**63, the largest int64.
    assert rs.trace_power(ROW_SUM_3, e) == np.trace(object_power(ROW_SUM_3, e))


@pytest.mark.parametrize("e", GUARD_EXPONENTS)
def test_path_count_on_both_sides_of_the_int64_guard(e):
    assert rs.path_count(ROW_SUM_3, e) == object_power(ROW_SUM_3, e).sum()


def test_trace_and_path_count_sums_do_not_wrap():
    # Every entry of (3I)**39 is 3**39 < 2**63, but the sum 4 * 3**39
    # exceeds 2**63: the bound V * r**n the moduli must exceed holds the sum.
    A = 3 * np.eye(4, dtype=np.int64)
    assert rs.trace_power(A, 39) == 4 * 3**39
    assert rs.path_count(A, 39) == 4 * 3**39


# V on both sides of every step of V.bit_length(), which sets the moduli's
# bound 2**k, k = (53 - V.bit_length()) // 2.
RESIDUE_SIDES = [0, 1, 2, 3, 7, 8, 15, 16, 31, 33, 64]


def residue_counts(A, n):
    """`trace_power` and `path_count` of ``A**n``, and each call's chunks of moduli."""
    counts, moduli = [], []
    count_mod = rs.graphs._count_mod

    def spy(X, e, p, trace):
        moduli[-1].append(p.ravel().tolist())
        return count_mod(X, e, p, trace)

    with mock.patch.object(rs.graphs, "_count_mod", spy):
        for count in (rs.trace_power, rs.path_count):
            moduli.append([])
            counts.append(count(A, n))
    return counts, moduli


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RESIDUE_SIDES),
    st.sampled_from([1, 3, 2**30, 2**40]),
    st.integers(0, 24),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(V=0, top=1, n=0, huge=False, seed=0)
@example(V=0, top=1, n=5, huge=False, seed=0)
@example(V=3, top=3, n=0, huge=True, seed=0)
@example(V=64, top=2**40, n=4, huge=True, seed=1)
@example(V=8, top=2**40, n=24, huge=True, seed=2)
def test_residue_counts_equal_the_object_power(V, top, n, huge, seed):
    rng = np.random.default_rng(seed)
    if V > 8:
        n %= 5  # the object power oracle is cubic in Python ints
    A = rng.integers(0, top, (V, V), endpoint=True) * (rng.random((V, V)) < 0.5)
    if huge and V:
        A = A.astype(object)
        A[int(rng.integers(V)), int(rng.integers(V))] = 2**63 + int(rng.integers(2**20))
    (trace, paths), moduli = residue_counts(A, n)
    P = object_power(A, n)
    assert trace == np.trace(P) and paths == P.sum()
    r = max(np.asarray(A, dtype=object).sum(axis=1), default=0)
    k = (53 - V.bit_length()) // 2
    for chunks in moduli:
        m = sum(chunks, [])
        assert math.lcm(*m) == math.prod(m) > V * r**n  # pairwise coprime
        assert all(2 <= p < 2**k and V * (p - 1) ** 2 < 2**53 for p in m)


def test_moduli_below_a_small_bound_run_out_by_name():
    # 4 shares 2 with 6, and 3, 2 divide 7 * 6 * 5 = 210
    assert rs.graphs._moduli_over(209, 3) == [7, 6, 5]
    with pytest.raises(ValueError, match=r"more than the moduli below 2\*\*3"):
        rs.graphs._moduli_over(210, 3)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_chunked_residue_counts_equal_unchunked_ones(monkeypatch, per_chunk):
    A = rs.truncated_matrix(36)
    want = rs.trace_power(A, 200), rs.path_count(A, 200)
    assert want == (np.trace(object_power(A, 200)), object_power(A, 200).sum())
    monkeypatch.setattr(rs.graphs, "_RESIDUE_BYTES", per_chunk * 8 * A.size)
    (trace, paths), moduli = residue_counts(A, 200)
    assert (trace, paths) == want
    # every stack but the last holds per_chunk moduli, and each modulus is used once
    for chunks in moduli:
        assert len(chunks) > 3 and {len(c) for c in chunks[:-1]} == {per_chunk}
        assert 1 <= len(chunks[-1]) <= per_chunk
        assert sum(chunks, []) == rs.graphs._moduli_over(len(A) * 6**200, 23)


@pytest.mark.parametrize(
    "A, e, message",
    [
        ([[1, 0], [0, 1]], -1, "exponent must be nonnegative"),
        ([[1, 0, 1], [0, 1, 0]], 2, "matrix must be square"),
        ([1, 2], 2, "matrix must be square"),
        ([[1, -1], [0, 1]], 2, "matrix must be nonnegative"),
        ([[1, 0], [0, -(2**70)]], 2, "matrix must be nonnegative"),
    ],
)
@pytest.mark.parametrize("count", [rs.trace_power, rs.path_count])
def test_exact_counts_reject_bad_input(count, A, e, message):
    with pytest.raises(ValueError, match=message):
        count(A, e)


def test_count_words_past_the_int64_guard():
    assert rs.count_words(rs.de_bruijn(3, 1), 45) == 3**45


@pytest.mark.parametrize("m", [39, 40, 300])
def test_higher_power_on_both_sides_of_the_int64_guard(m):
    # Three edges 0 -> 1 and a loop at 1: row sum 3, yet four paths of each
    # length, so the power graph stays small past the guard.
    G = LabeledDigraph(
        3, ((0,), (1,)), ((0, 1, (0,)), (0, 1, (1,)), (0, 1, (2,)), (1, 1, (0,)))
    )
    want = object_power(rs.adjacency(G), m)
    assert rs.adjacency(rs.higher_power(G, m)).tolist() == want.tolist()


@st.composite
def multigraphs(draw):
    """Graphs on up to 8 vertices whose edge tuples may repeat."""
    n = draw(st.integers(min_value=0, max_value=8))
    labels = tuple(word_from_int(i, 3, 2) for i in range(n))
    edge = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.tuples(st.integers(0, 2))
    )
    edges = draw(st.lists(edge, max_size=20)) if n else []
    edges += draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    return LabeledDigraph(3, labels, tuple(draw(st.permutations(edges))))


def boolean_power(B, e):
    R = np.eye(len(B), dtype=bool)
    for _ in range(e):
        R = (R.astype(int) @ B.astype(int)) > 0
    return R


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_structure_matches_boolean_powers(G):
    n = G.n_vertices
    A = rs.adjacency(G) > 0
    # A vertex lies on a bi-infinite path iff some length-n path ends there
    # and some length-n path starts there.
    An = boolean_power(A, n)
    kept = [v for v in range(n) if An[:, v].any() and An[v].any()]
    E = rs.essential_subgraph(G)
    assert E.labels == tuple(G.labels[v] for v in kept)
    new = {old: i for i, old in enumerate(kept)}
    assert E.edges == tuple(
        (new[u], new[v], lab) for u, v, lab in G.edges if u in new and v in new
    )
    comps = rs.scc_decompose(G)
    assert comps == closure_classes(A)
    assert all(type(v) is int for c in comps for v in c)


def test_essential_subgraph_returns_an_essential_graph_itself():
    G = rs.de_bruijn(2, 3)
    assert rs.essential_subgraph(G) is G
    H = LabeledDigraph(2, ((0,), (1,)), ((0, 0, (0,)), (0, 1, (1,))))
    assert rs.essential_subgraph(H) == LabeledDigraph(2, ((0,),), ((0, 0, (0,)),))


def closure_classes(A):
    """The strongly connected components of the 0/1 matrix `A`, from its boolean closure."""
    n = len(A)
    R = boolean_power(A | np.eye(n, dtype=bool), n)
    return sorted({tuple(v for v in range(n) if R[u, v] and R[v, u]) for u in range(n)})


@pytest.mark.parametrize("seed", range(6))
def test_components_do_not_depend_on_the_order_of_the_edge_rows(seed):
    rng = np.random.default_rng(seed)
    n = 60
    A = rng.random((n, n)) < 1.5 / n
    edges = [(int(u), int(v), (0,)) for u, v in np.argwhere(A)]
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    G = LabeledDigraph(2, [word_from_int(i, 2, 6) for i in range(n)], shuffled)
    assert (np.diff(G.src) < 0).any()
    comps = rs.scc_decompose(G)
    assert max(map(len, comps)) > 1
    assert comps == closure_classes(A)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_strong_connectivity_matches_the_components(G):
    assert rs.is_strongly_connected(G) == (len(rs.scc_decompose(G)) <= 1)


def edge_count_matrix(G):
    A = np.zeros((G.n_vertices, G.n_vertices), dtype=np.int64)
    for u, v, _ in G.edges:
        A[u, v] += 1
    return A


@settings(max_examples=100, deadline=None)
@given(st.one_of(multigraphs(), small_graph_strategy()))
def test_adjacency_counts_the_edge_triples(G):
    assert np.array_equal(rs.adjacency(G), edge_count_matrix(G))


@settings(max_examples=100, deadline=None)
@given(st.one_of(multigraphs(), small_graph_strategy()), st.integers(1, 3))
def test_higher_power_repeats_one_edge_per_path_in_row_major_order(G, m):
    P = object_power(rs.adjacency(G), m)
    n = G.n_vertices
    want = tuple(e for u in range(n) for v in range(n) for e in [(u, v, G.labels[v])] * P[u, v])
    assert rs.higher_power(G, m).edges == want


@st.composite
def row_graph_pairs(draw):
    """Two graphs on three vertices, built from rows as `_from_rows` allows.

    Runs of equal edges may be split over several rows or merged into one,
    and the word tables may hold unused words; half the time both graphs
    expand to the same edge triples.
    """
    edge = st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([(0,), (1,)]))
    runs = st.lists(st.tuples(edge, st.integers(1, 4)), max_size=6)
    first = draw(runs)
    second = draw(st.one_of(st.just(first), runs))

    def build(runs):
        words = sorted({w for (_, _, w), _ in runs} | draw(st.sets(st.sampled_from([(0,), (1,), (2,)]))))
        rows = []
        for (u, v, w), left in runs:
            while left:
                c = draw(st.integers(1, left))
                left -= c
                if rows and rows[-1][:3] == [u, v, words.index(w)] and draw(st.booleans()):
                    rows[-1][3] += c
                else:
                    rows.append([u, v, words.index(w), c])
        src, dst, lab, count = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        return LabeledDigraph._from_rows(3, ((0,), (1,), (2,)), words, src, dst, lab, count)

    return build(first), build(second)


@settings(max_examples=300, deadline=None)
@given(row_graph_pairs())
def test_equality_compares_the_expanded_edges(pair):
    G, H = pair
    assert (G == H) == ((G.q, G.labels, G.edges) == (H.q, H.labels, H.edges))


def test_word_enumeration_builds_no_vertex_matrix(monkeypatch):
    def refuse(G):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(rs.graphs, "adjacency", refuse)
    n = 4000
    labels = [word_from_int(i, 2, 12) for i in range(n)]
    G = LabeledDigraph(2, labels, [(i, (i + 1) % n, (0,)) for i in range(n)])
    assert rs.words_of_length(G, 13) == {w + (0,) for w in labels}


def assert_writes_like_its_triples(H):
    rebuilt = LabeledDigraph(H.q, H.labels, H.edges)
    assert ser.graph_to_json(H) == ser.graph_to_json(rebuilt)
    assert ser.graph_from_json(ser.graph_to_json(H)) == H == rebuilt


@settings(max_examples=100, deadline=None)
@given(st.one_of(multigraphs(), small_graph_strategy()), st.integers(1, 3))
def test_graphs_built_from_rows_write_like_their_triples(G, m):
    assert ser.graph_from_json(ser.graph_to_json(G)) == G
    assert_writes_like_its_triples(rs.higher_power(G, m))
    assert_writes_like_its_triples(rs.essential_subgraph(G))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_epsilon_graph_writes_like_its_triples(binary_system, trunc8_system, eps):
    for S in (binary_system, trunc8_system):
        assert_writes_like_its_triples(rs.epsilon_construction(S, eps).graph)


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.integers(1, 3))
def test_determinism_matches_a_scan_of_the_edges(G, m):
    for H in (G, rs.higher_power(G, m)):
        pairs = [(u, lab) for u, _, lab in H.edges]
        assert rs.graphs._is_deterministic(H) == (len(set(pairs)) == len(pairs))


def test_graphs_are_immutable():
    G = rs.higher_power(rs.de_bruijn(2, 1), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.q = 3
    for row in (G.label_rows, G.word_rows, G.src, G.dst, G.lab, G.count):
        with pytest.raises(ValueError):
            row[0] = 0


def test_higher_power_rejects_counts_past_int64():
    G = LabeledDigraph(3, ((0,),), ((0, 0, (0,)), (0, 0, (1,)), (0, 0, (2,))))
    assert rs.higher_power(G, 39).count.tolist() == [3**39]
    with pytest.raises(ValueError, match="int64"):
        rs.higher_power(G, 40)


def test_higher_power_past_the_guard_keeps_counts_that_fit_and_rejects_the_rest():
    # Row sums 2: 2**63 is not below 2**63, so m = 63 already takes Python
    # ints, and its 2**62 paths per pair still fit.
    G = rs.de_bruijn(2, 1)
    assert rs.higher_power(G, 63).count.tolist() == [2**62] * 4
    with pytest.raises(ValueError, match="does not fit in int64"):
        rs.higher_power(G, 64)


def test_word_functions_check_their_input_and_peel_once(monkeypatch):
    two_symbol = rs.higher_power(rs.de_bruijn(2, 2), 2)
    for words in (rs.words_of_length, rs.count_words):
        with pytest.raises(ValueError):
            words(rs.de_bruijn(2, 1), 0)
        with pytest.raises(ValueError):
            words(two_symbol, 3)
    G = LabeledDigraph(
        2,
        ((0,), (1,)),
        ((0, 0, (0,)), (0, 1, (0,)), (1, 0, (0,)), (1, 1, (1,))),
    )
    want = len(rs.words_of_length(G, 3))
    peels = []
    real = rs.graphs.essential_subgraph
    monkeypatch.setattr(rs.graphs, "essential_subgraph", lambda G: peels.append(G) or real(G))
    assert rs.count_words(G, 3) == want
    assert len(peels) == 1


def walked_words(G, n):
    """Oracle: the words spelled by every length-(n - L) edge sequence of G.

    For n <= L they are the length-n prefixes of the vertex words.
    """
    succ = {}
    for u, v, lab in G.edges:
        succ.setdefault(u, []).append((v, lab))
    words = set()

    def walk(u, word):
        if len(word) >= n:
            words.add(word[:n])
            return
        for v, lab in succ.get(u, ()):
            walk(v, word + lab)

    for u, w in enumerate(G.labels):
        walk(u, w)
    return words


def test_count_words_enumerates_nondeterministic_graphs_past_q_4():
    # Five letters on a strongly connected graph; vertex 0 emits 2 twice.
    edges = [(u, (u + 1) % 5, ((u + 1) % 5,)) for u in range(5)]
    edges += [(u, (u + 2) % 5, ((u * 3) % 5,)) for u in range(5)]
    edges += [(0, 3, (2,))]
    G = LabeledDigraph(5, tuple((i,) for i in range(5)), tuple(edges))
    assert not rs.graphs._is_deterministic(G)
    for n in range(1, 9):
        assert rs.words_of_length(G, n) == walked_words(G, n)
        assert rs.count_words(G, n) == len(walked_words(G, n))


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.integers(1, 6))
def test_word_walk_matches_the_oracle_on_multigraphs(G, n):
    # Repeated rows, tails that the peel strands and labels a vertex emits twice.
    want = walked_words(rs.essential_subgraph(G), n)
    assert rs.words_of_length(G, n) == want
    assert rs.count_words(G, n) == len(want)


def test_enumeration_cap_is_decided_before_any_walk(monkeypatch):
    def no_walk(E, m):
        raise AssertionError("a walk started")

    monkeypatch.setattr(rs.graphs, "_paths", no_walk)
    G = rs.de_bruijn(2, 1)  # 2**(m + 1) paths of length m
    with pytest.raises(ValueError, match="capped"):
        rs.words_of_length(G, 21)
    assert rs.periodic_points(G, 20).words is None


@pytest.mark.parametrize("cap, fits", [(8, True), (7, False)])
def test_enumeration_cap_boundary(monkeypatch, cap, fits):
    monkeypatch.setattr(rs.graphs, "ENUM_CAP", cap)
    G = rs.de_bruijn(2, 1)  # 8 paths of length 2
    # Period-n points are capped on the closed-walk count and the paths of
    # length n - n // 2, not on all length-n paths: at n = 3 both are 8.
    A = rs.adjacency(G)
    assert rs.trace_power(A, 3) == rs.path_count(A, 2) == 8
    assert (rs.periodic_points(G, 3).words is not None) == fits
    if fits:
        assert len(rs.words_of_length(G, 3)) == 8
    else:
        with pytest.raises(ValueError, match="capped"):
            rs.words_of_length(G, 3)


@pytest.mark.parametrize("n, boundary", [(1, 4), (4, 16)])
def test_periodic_cap_is_the_count_or_the_longer_half(monkeypatch, n, boundary):
    # De Bruijn(2, 1) has 2**n closed walks of length n and 2**(m + 1) paths
    # of length m: the half paths bind at n = 1 (4 > 2), the count at n = 4.
    G = rs.de_bruijn(2, 1)
    A = rs.adjacency(G)
    assert max(rs.trace_power(A, n), rs.path_count(A, n - n // 2)) == boundary
    for cap in (boundary, boundary - 1):
        monkeypatch.setattr(rs.graphs, "ENUM_CAP", cap)
        assert (rs.periodic_points(G, n).words is not None) == (cap == boundary)


@st.composite
def counted_multigraphs(draw):
    """`multigraphs()` with each row's count drawn from 1..3."""
    G = draw(multigraphs())
    count = draw(st.lists(st.integers(1, 3), min_size=G.count.size, max_size=G.count.size))
    return LabeledDigraph._from_rows(G.q, G.labels, G.words, G.src, G.dst, G.lab, count)


@settings(max_examples=200, deadline=None)
@given(counted_multigraphs(), st.integers(1, 8))
@example(LabeledDigraph(3, ((0,),), ((0, 0, (2,)), (0, 0, (2,)))), 5)  # two loops, one label
@example(LabeledDigraph._from_rows(3, ((0,), (1,)), ((1,),), (0, 1), (1, 0), (0, 0), (3, 2)), 4)  # counts 3, 2
@example(LabeledDigraph(3, ((0,), (1,)), ((0, 1, (0,)), (0, 1, (1,)))), 3)  # no closed walk
@example(LabeledDigraph(3, (), ()), 1)
def test_closed_walks_match_the_open_walk_filter(G, n):
    A = rs.adjacency(rs.essential_subgraph(G))
    pts = rs.periodic_points(G, n)
    assert (pts.words is None) == (max(pts.count, rs.path_count(A, n - n // 2)) > rs.graphs.ENUM_CAP)
    # The oracle walks every length-n path.
    if rs.path_count(A, n) <= 50_000:
        want = open_walk_points(G, n)
        # The joined rows come out sorted and distinct, before `WordRows`,
        # which holds them with no check of its own.
        joined = rs.graphs._closed_paths(rs.essential_subgraph(G), n)
        assert rs.graphs._strictly_increasing(joined)
        for rows in (pts.words.rows, joined):
            assert rows.dtype == want.dtype
            assert np.array_equal(rows, want)
        assert len(pts.words) <= pts.count


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.integers(0, 5))
def test_enumeration_cap_matches_the_exact_path_count(G, m):
    E = rs.essential_subgraph(G)
    # The power keeps E essential and gives rows whose counts pass the cap.
    for H in (E, rs.higher_power(E, 3)):
        paths = rs.path_count(rs.adjacency(H), m)
        for cap in (1, 7, 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rs.graphs, "ENUM_CAP", cap)
                assert rs.graphs._within_enum_cap(H, m) == (paths <= cap)


def test_enumeration_cap_does_not_wrap_on_counts_near_int64():
    # Four rows of count 2**61: an unclipped int64 total wraps to -2**63.
    G = rs.higher_power(rs.de_bruijn(2, 1), 62)
    with pytest.raises(ValueError, match="capped"):
        rs.words_of_length(G, 3)


def test_structure_past_the_recursion_limit():
    # Both component passes and both peels are iterative: a 5,000-vertex
    # cycle is one component and its own essential graph, and a 5,000-vertex
    # path into a self-loop is 5,000 components and peels, one vertex a
    # round against the rows, down to the loop.
    n = 5000
    assert sys.getrecursionlimit() < n
    labels = [word_from_int(v, 2, 13) for v in range(n)]
    cycle = LabeledDigraph(2, labels, [(v, (v + 1) % n, (0,)) for v in range(n)])
    assert rs.scc_decompose(cycle) == [tuple(range(n))]
    assert rs.essential_subgraph(cycle) is cycle
    path = LabeledDigraph(2, labels, [(v, min(v + 1, n - 1), (0,)) for v in range(n)])
    assert rs.scc_decompose(path) == [(v,) for v in range(n)]
    E = rs.essential_subgraph(path)
    assert (E.labels, E.edges) == ((labels[-1],), ((0, 0, (0,)),))


def test_essential_subgraph_drops_stranded_vertices(binary_system):
    E = rs.essential_subgraph(binary_system.presentation)
    assert E.labels == ((0, 0), (0, 1), (1, 0))


def test_essential_subgraph_drops_a_vertex_once_whatever_drops_it():
    # v dies once both its targets have died, reached from each of them;
    # w keeps its loop, so it stays after v's row from w is dropped.
    w, v, a, b = range(4)
    G = LabeledDigraph(2, ((0, 0), (0, 1), (1, 0), (1, 1)), ((w, w, (0,)), (w, v, (1,)), (v, a, (0,)), (v, b, (1,))))
    E = rs.essential_subgraph(G)
    assert (E.labels, E.edges) == (((0, 0),), ((0, 0, (0,)),))


def test_vertex_order_is_validated():
    with pytest.raises(ValueError):
        LabeledDigraph(2, ((1,), (0,)), ())


def test_edge_triples_need_integer_vertex_ids():
    with pytest.raises(TypeError):
        LabeledDigraph(2, ((0,), (1,)), ((1.5, 0, (0,)),))
    with pytest.raises(ValueError, match="missing vertex"):
        LabeledDigraph(2, ((0,), (1,)), ((0, 0, (0,)), (0, 2, (0,))))


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (lambda: LabeledDigraph(0, (), ()), ValueError, "alphabet size must be at least 1"),
        (lambda: LabeledDigraph(2, ((0.5,),), ()), ValueError, "vertex labels must be words of int64 symbols"),
        (lambda: rs.perron_eigenvalue(np.ones((2, 3))), ValueError, "adjacency matrix must be square"),
        (lambda: rs.perron_eigenvalue([[np.nan]]), ValueError, "adjacency matrix must be finite"),
        (lambda: rs.perron_eigenvalue([[np.inf]]), ValueError, "adjacency matrix must be finite"),
        (lambda: rs.perron_eigenvalue([[0, np.nan], [1, 0]]), ValueError, "adjacency matrix must be finite"),
        (lambda: rs.perron_eigenvalue([[1, 2], [np.inf, 0]]), ValueError, "adjacency matrix must be finite"),
        (lambda: rs.trace_power([[np.inf]], 3), ValueError, "matrix entries must be integers"),
        (lambda: rs.trace_power([[np.nan]], 3), ValueError, "matrix entries must be integers"),
        (lambda: rs.path_count([[-np.inf]], 3), ValueError, "matrix entries must be integers"),
    ],
)
def test_graphs_refuse_bad_input(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_graphs_equal_only_graphs_over_the_same_alphabet():
    G = LabeledDigraph(2, ((0,),), ((0, 0, (0,)),))
    assert G.__eq__(3) is NotImplemented and G != 3
    assert G != LabeledDigraph(3, ((0,),), ((0, 0, (0,)),))
