import functools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import recovsys as rs
from recovsys import measures
from recovsys.graphs import LabeledDigraph, _word_array, _word_graph, _word_grid, _word_rows, window_presentation
from recovsys.measures import higher_block_presentation

from conftest import chorded_cycle_graph, plastic_number, tuple_window_presentation, word_from_int

REFERENCE_P = np.array(
    [
        [0.43, 0.57, 0.0, 0.0],
        [0.0, 0.43, 0.245, 0.325],
        [0.0, 0.0, 0.43, 0.57],
        [0.43, 0.57, 0.0, 0.0],
    ]
)
REFERENCE_STATIONARY = np.array([0.177, 0.411, 0.177, 0.235])


@pytest.fixture(scope="module")
def reference_mu(binary_system):
    G3 = rs.higher_power(higher_block_presentation(binary_system), 3)
    return rs.max_entropy_measure(G3)


@pytest.fixture(scope="module")
def reference_nu(binary_system):
    return rs.epsilon_construction(binary_system, 0.286)


@pytest.fixture()
def uniform_coin():
    P = np.full((2, 2), 0.5)
    return rs.MarkovMeasure(2, ((0,), (1,)), P, np.array([0.5, 0.5]), 1)


def test_max_entropy_on_de_bruijn_is_uniform():
    M = rs.max_entropy_measure(rs.de_bruijn(3, 2))
    assert np.allclose(M.p, 1 / 9, atol=1e-12)
    A = rs.adjacency(rs.de_bruijn(3, 2))
    assert np.allclose(M.P, A / 3, atol=1e-12)


def test_max_entropy_matches_reference_chain(reference_mu):
    assert np.abs(reference_mu.p - REFERENCE_STATIONARY).max() < 5e-3
    assert np.abs(reference_mu.P - REFERENCE_P).max() < 5e-3


def test_max_entropy_rate_equals_capacity(reference_mu):
    assert abs(rs.entropy_rate(reference_mu) - math.log2(plastic_number())) < 1e-9


def test_max_entropy_on_cycle_is_deterministic():
    G = LabeledDigraph(3, ((0,), (1,), (2,)), ((0, 1, (1,)), (1, 2, (2,)), (2, 0, (0,))))
    M = rs.max_entropy_measure(G)
    assert set(np.unique(M.P)) <= {0.0, 1.0}
    assert rs.entropy_rate(M) == 0.0


def chorded_cycle_root(n, length):
    """Perron value of `chorded_cycle_graph`, 0 < length < n: the root above 1
    of lam**-n + lam**-(n - length + 1) = 1, by bisection in 50-digit decimals.

    Returns a Decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(1), Decimal(2)
        for _ in range(170):
            mid = (lo + hi) / 2
            if mid**-n + mid ** -(n - length + 1) > 1:
                lo = mid
            else:
                hi = mid
        return lo


def test_chorded_cycle_root_matches_an_independent_value():
    # log2 of the root for the 300-cycle with a 50-step chord, as computed
    # in 40-digit arithmetic by mpmath and rounded to 17 significant digits.
    with localcontext() as ctx:
        ctx.prec = 50
        log2 = chorded_cycle_root(300, 50).ln() / Decimal(2).ln()
    assert abs(log2 - Decimal("0.0036397611981914549")) <= Decimal("5e-20")


@pytest.mark.parametrize("escalate", [False, True])
@pytest.mark.parametrize(
    "n, length, start", [(300, 50, 0), (300, 50, 123), (300, 299, 7), (120, 2, 5), (40, 9, 39)]
)
def test_max_entropy_matches_the_exact_chorded_cycle_root(monkeypatch, escalate, n, length, start):
    if escalate:
        monkeypatch.setattr(rs.graphs, "PERRON_POWER_STEPS", 0)
    G = chorded_cycle_graph(n, length, start)
    lam = float(chorded_cycle_root(n, length))
    assert abs(rs.graphs.perron_vectors(rs.adjacency(G).astype(float))[0] - lam) <= 1e-12 * (lam + 1)
    h = rs.entropy_rate(rs.max_entropy_measure(G))
    assert abs(2.0**h - lam) <= 1e-12 * (lam + 1)


@pytest.mark.parametrize("start", [0, 123, 299])
def test_max_entropy_on_the_bench_cycle_is_exact_to_the_last_digits(start):
    # |lam_2 / lam_1| of A + I is 0.99963 here, so the vectors come from the
    # solves.  A vector returned as soon as its bracket is 1e-12 wide can
    # put h 1.1e-11 off; the solve past the closed bracket is what holds it.
    with localcontext() as ctx:
        ctx.prec = 50
        h_exact = float(chorded_cycle_root(300, 50).ln() / Decimal(2).ln())
    M = rs.max_entropy_measure(chorded_cycle_graph(300, 50, start))
    assert abs(rs.entropy_rate(M) - h_exact) <= 1e-14 * h_exact
    assert np.abs(M.p @ M.P - M.p).max() <= 1e-15


def _solves_of_max_entropy_measure(monkeypatch, G):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(len(b)) or solve(a, b))
    rs.max_entropy_measure(G)
    return len(calls)


def test_max_entropy_left_vector_reuses_the_right_bracket(monkeypatch):
    # The right vector takes 8 solves here.  The left one, shifted to the
    # right one's certified upper end, needs 2 instead of repeating them.
    assert _solves_of_max_entropy_measure(monkeypatch, chorded_cycle_graph(300, 50, 0)) <= 10


def test_max_entropy_on_a_fast_mixing_graph_makes_no_solve(monkeypatch):
    S = rs.edge_cover_system(rs.systems.recursive_seed(12), "square", l=1)
    while S.q < 12:
        S = rs.recursive_extend(S)
    assert _solves_of_max_entropy_measure(monkeypatch, S.presentation) == 0


@pytest.mark.parametrize(
    "G, pair",
    [
        (LabeledDigraph(2, ((0,),), ((0, 0, (0,)), (0, 0, (1,)))), "vertex 0 has 2 edges to vertex 0"),
        (chorded_cycle_graph(120, 1, 5), "vertex 5 has 2 edges to vertex 6"),
    ],
)
def test_max_entropy_rejects_parallel_edges(G, pair):
    # A chain on vertices would give h = 0 for both: the full binary shift
    # (capacity 1) and a 120-cycle whose chord doubles one cycle edge.
    with pytest.raises(ValueError, match=f"at most one edge per vertex pair; {pair}$"):
        rs.max_entropy_measure(G)


def test_max_entropy_refuses_a_presentation_that_is_not_right_resolving():
    # Its chain would have entropy rate 1 (log base 2), yet the system has
    # 2 words at every length; parallel edges are named first.
    edges = tuple((u, v, (0,)) for u in (0, 1) for v in (0, 1))
    G = LabeledDigraph(2, ((0,), (1,)), edges)
    assert [rs.count_words(G, n) for n in range(1, 7)] == [2] * 6
    with pytest.raises(ValueError, match="^the max-entropy measure needs a right-resolving presentation"):
        rs.max_entropy_measure(G)
    doubled = LabeledDigraph(2, ((0,), (1,)), edges + ((1, 0, (0,)),))
    with pytest.raises(ValueError, match="vertex 1 has 2 edges to vertex 0$"):
        rs.max_entropy_measure(doubled)


@pytest.mark.parametrize("n, length, start", [(300, 50, 123), (40, 9, 39), (6, 5, 0)])
def test_perron_vectors_pair_to_one_and_give_the_parry_mass(n, length, start):
    G = chorded_cycle_graph(n, length, start)
    _, y, x = rs.graphs.perron_vectors(rs.adjacency(G).astype(float))
    assert abs(y.sum() - 1) <= 1e-14 and abs(x @ y - 1) <= 1e-14
    assert np.array_equal(rs.max_entropy_measure(G).p, x * y)


def test_max_entropy_rejects_disconnected():
    G = LabeledDigraph(2, ((0,), (1,)), ((0, 0, (0,)), (1, 1, (1,))))
    with pytest.raises(ValueError):
        rs.max_entropy_measure(G)


def test_entropy_rate_of_uniform_coin(uniform_coin):
    assert abs(rs.entropy_rate(uniform_coin) - 1.0) < 1e-12


def test_window_entropy_of_perturbed_measure_is_epsilon(reference_nu):
    report = rs.window_conditional_entropy(reference_nu.measure, 1, 1)
    assert report.entries
    for value in report.entries.values():
        assert abs(value - 0.286) < 1e-9
    assert abs(rs.binary_entropy(0.05) - 0.286) < 5e-4


def test_window_entropy_of_deterministic_measure_is_zero(reference_mu):
    report = rs.window_conditional_entropy(reference_mu, 1, 1)
    assert report.entries
    assert report.max_entropy == 0.0


def test_window_entropy_of_uniform_coin_is_one(uniform_coin):
    report = rs.window_conditional_entropy(uniform_coin, 1, 1)
    assert set(report.entries.values()) == {1.0}
    assert not report.zero_pairs


def test_epsilon_recoverability_thresholds(reference_nu, reference_mu, uniform_coin):
    assert rs.is_epsilon_recoverable(reference_nu.measure, 0.2861, 1, 1)
    assert rs.is_epsilon_recoverable(reference_mu, 0.0, 1, 1)
    assert not rs.is_epsilon_recoverable(uniform_coin, 0.5, 1, 1)


def test_delta_from_epsilon_examples():
    assert abs(rs.delta_from_epsilon(0.286, 2, 1) - 0.05) < 5e-4
    assert rs.delta_from_epsilon(0.0, 2, 1) == 0.0
    assert abs(rs.delta_from_epsilon(1.0, 2, 1) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        rs.delta_from_epsilon(1.5, 2, 1)
    with pytest.raises(ValueError):
        rs.delta_from_epsilon(-0.1, 2, 1)
    with pytest.raises(ValueError):
        rs.delta_from_epsilon(float("nan"), 2, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (8, 1)]),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_delta_solves_the_rate_equation(qk, frac):
    q, k = qk
    eps = frac * k
    delta = rs.delta_from_epsilon(eps, q, k)
    spread = q**k - 1
    back = rs.binary_entropy(delta) * math.log(2, q)
    if spread > 1:
        back += delta * math.log(spread, q)
    assert abs(back - eps) < 1e-10


def delta_in_200_steps(epsilon, q, k):
    """Oracle: the bisection of `delta_from_epsilon` cut at 200 halvings."""
    spread = q**k - 1
    shift = math.log(spread) / math.log(q) if spread > 1 else 0.0
    lo, hi = 0.0, spread / q**k
    if epsilon >= measures._hq(hi, q) + hi * shift:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if measures._hq(mid, q) + mid * shift < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.filterwarnings("ignore:delta=")
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 36), st.integers(1, 4), st.floats(1e-30, 1.0))
@example(2, 1, 0.286)
@example(3, 1, 0.1)
@example(8, 1, 0.12)
@example(2, 4, 0.1 / 4)
@example(13, 1, 0.05)
def test_delta_bisects_to_where_200_steps_end(q, k, frac):
    # Down to epsilon = 1e-30, 200 halvings reach the fixed point.
    assert rs.delta_from_epsilon(frac * k, q, k) == delta_in_200_steps(frac * k, q, k)


@pytest.mark.parametrize("q, k", [(2, 1), (3, 1), (2, 2), (36, 1)])
@pytest.mark.parametrize("eps", [1e-60, 1e-100, 1e-300])
def test_delta_costs_epsilon_at_tiny_epsilon(q, k, eps):
    # 200 halvings stop short here: at q = 2 and 1e-100 they gave 1.56e-61.
    delta = rs.delta_from_epsilon(eps, q, k)
    spread = q**k - 1
    cost = measures._hq(delta, q) + delta * (math.log(spread) / math.log(q) if spread > 1 else 0.0)
    assert 0 < delta < eps and cost == pytest.approx(eps, rel=1e-12)


def test_epsilon_construction_with_zero_budget(binary_system, reference_mu):
    built = rs.epsilon_construction(binary_system, 0.0)
    ghosts = [w for w in built.measure.states if w not in reference_mu.states]
    idx = {w: i for i, w in enumerate(built.measure.states)}
    assert all(built.measure.p[idx[g]] == 0.0 for g in ghosts)
    mu_idx = {w: i for i, w in enumerate(reference_mu.states)}
    for w in reference_mu.states:
        for v in reference_mu.states:
            assert (
                abs(
                    built.measure.P[idx[w], idx[v]]
                    - reference_mu.P[mu_idx[w], mu_idx[v]]
                )
                < 1e-12
            )


def test_epsilon_construction_entropy_gain(binary_system):
    for eps in (0.05, 0.1, 0.286, 0.5):
        built = rs.epsilon_construction(binary_system, eps)
        gain = rs.entropy_rate(built.measure) - rs.entropy_rate(built.base_measure)
        assert abs(gain - eps / 3) < 1e-9


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("name", ["binary_system", "trunc8_system"])
def test_epsilon_graph_follows_the_parent_windows(request, name, eps):
    S = request.getfixturevalue(name)
    built = rs.epsilon_construction(S, eps)
    G, states = built.graph, built.measure.states
    assert G.labels == states
    base = rs.higher_power(higher_block_presentation(S), 2 * S.l + S.k)
    owner = {(w[: S.l], w[S.l + S.k :]): i for i, w in enumerate(base.labels)}
    parent = [owner[w[: S.l], w[S.l + S.k :]] for w in states]
    want = rs.adjacency(base)[np.ix_(parent, parent)]
    assert np.array_equal(rs.adjacency(G), want)
    assert all(label == states[v] for _, v, label in G.edges)


def test_epsilon_graph_over_the_edge_cap_is_refused_before_any_array():
    # 46,656 states: the states**2 mask alone would take 2.2 GB.
    built = rs.epsilon_construction(rs.truncated_debruijn_system(36), 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="epsilon graph on 46656 states has up to 2176782336 edges"):
            built.graph
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # The cap is on states**2: at truncated q=9, 729**2 edges pass a cap of
    # 729**2 and one less refuses them.
    S = rs.truncated_debruijn_system(9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "EPSILON_GRAPH_EDGES", 729**2 - 1)
        with pytest.raises(ValueError, match=f"on 729 states has up to {729**2} edges, over the cap of {729**2 - 1}"):
            rs.epsilon_construction(S, 0.1).graph
        mp.setattr(measures, "EPSILON_GRAPH_EDGES", 729**2)
        assert rs.epsilon_construction(S, 0.1).graph.n_vertices == 729


@st.composite
def presentations(draw):
    """Presentations on up to 6 vertices with dead vertices and parallel edges."""
    q, L = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = draw(st.integers(0, min(6, q**L)))
    labels = tuple(word_from_int(i, q, L) for i in range(n))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.tuples(st.integers(0, q - 1)))
    edges = draw(st.lists(edge, max_size=16)) if n else []
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return LabeledDigraph(q, labels, edges)


@settings(max_examples=300, deadline=None)
@given(presentations(), st.integers(1, 2), st.integers(1, 2))
def test_higher_block_presentation_matches_the_membership_build(G, k, l):
    # The drawn presentation's windows go in as the rows of a table, which
    # need not be recoverable: the windows -> block presentation step alone.
    # They are read with parallel edges merged, which spell the same words
    # and keep the walk under its path cap.  Oracle: every occurring window
    # extended by every symbol, kept when its last window occurs too, tested
    # against a set of tuples.
    W = 2 * l + k
    allowed = rs.words_of_length(LabeledDigraph(G.q, G.labels, set(G.edges)), W)
    rows = np.array(sorted(allowed), dtype=np.int64).reshape(len(allowed), W)
    table = rs.RecoveryTable(rows[:, np.r_[0:l, l + k : W, l : l + k]], (l, 2 * l))
    S = rs.RecoverableSystem(G.q, k, l, G, table, "drawn")
    if not allowed:
        with pytest.raises(ValueError, match="the system has no occurring windows"):
            higher_block_presentation(S)
        return
    expected = tuple_window_presentation(
        G.q, (w + (a,) for w in allowed for a in range(G.q) if w[1:] + (a,) in allowed)
    )
    H = higher_block_presentation(S)
    assert H == expected
    assert (H.labels, H.words, H.edges) == (expected.labels, expected.words, expected.edges)


BUILT_SYSTEMS = {
    **{f"truncated_q{q}": lambda q=q: rs.truncated_debruijn_system(q) for q in (4, 8, 13, 36)},
    "marker_q3_k1": lambda: rs.marker_system(3, 1),
    "marker_q4_k2": lambda: rs.marker_system(4, 2),
    "square_t2_l1": lambda: rs.edge_cover_system(2, "square", l=1),
    "square_t2_l2": lambda: rs.edge_cover_system(2, "square", l=2),
    "power_t2_k2": lambda: rs.edge_cover_system(2, "power", k=2),
    "power_t3_k1": lambda: rs.edge_cover_system(3, "power", k=1),
    **{
        f"search_q{q}_k{k}_l{l}": lambda q=q, k=k, l=l: rs.exhaustive_max_capacity(q, k, l)[1]
        for q, k, l in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2))
    },
    "loop_q6": lambda: rs.recursive_extend(rs.edge_cover_system(2, "square", l=1)),
    "loop_q11": lambda: rs.recursive_extend(rs.edge_cover_system(3, "square", l=1)),
    "loop_q13": lambda: rs.recursive_extend(rs.recursive_extend(rs.edge_cover_system(3, "square", l=1))),
}


@pytest.mark.parametrize("name", BUILT_SYSTEMS)
def test_higher_block_presentation_from_the_table_equals_the_presentation_walk(name):
    # The build that read the windows off the presentation: an essential
    # subgraph peel and a walk of its (2l + k)-words.
    S = BUILT_SYSTEMS[name]()
    W = 2 * S.l + S.k
    walked = window_presentation(S.q, _word_rows(_word_graph(S.presentation, W), W))
    want = window_presentation(S.q, _word_rows(walked, W + 1))
    H = higher_block_presentation(S)
    for field in ("label_rows", "word_rows", "src", "dst", "lab", "count"):
        assert np.array_equal(getattr(H, field), getattr(want, field)), field


def test_a_table_of_the_wrong_shape_is_refused(binary_system):
    # The table is converted and checked once, when the system is built.
    message = re.escape("recovery table words have lengths (1, 1, 2), not (l, l, k) = (1, 1, 1)")
    with pytest.raises(ValueError, match=message):
        rs.RecoverableSystem(2, 1, 1, binary_system.presentation, {((0,), (1,)): (0, 0)}, "wrong shape")


def test_epsilon_construction_rejects_two_parents():
    # The full binary shift: its table holds all 8 windows, two middles a pair.
    S = rs.RecoverableSystem(2, 1, 1, rs.de_bruijn(2, 2), rs.RecoveryTable(_word_grid(2, 3), (1, 2)), "full shift")
    with pytest.raises(AssertionError, match="two parents"):
        rs.epsilon_construction(S, 0.1)


@pytest.fixture(scope="module", params=["binary_q2", "search_q2_k2", "truncated_q8", "truncated_q13"])
def factored_nu(request, binary_system):
    systems = {
        "binary_q2": lambda: binary_system,
        "search_q2_k2": lambda: rs.exhaustive_max_capacity(2, 2, 1)[1],
        "truncated_q8": lambda: rs.truncated_debruijn_system(8),
        "truncated_q13": lambda: rs.truncated_debruijn_system(13),
    }
    return rs.epsilon_construction(systems[request.param](), 0.12)


def test_lazy_epsilon_measure_is_the_dense_product_of_its_factors(factored_nu):
    mu, parent, weight = factored_nu.base_measure, factored_nu.parent, factored_nu.weight
    nu = factored_nu.measure
    assert nu.states == factored_nu.states
    assert np.array_equal(nu.P, mu.P[np.ix_(parent, parent)] * weight)
    assert np.array_equal(nu.p, mu.p[parent] * weight)
    assert np.array_equal(nu.p, factored_nu.p)


def test_factored_window_report_equals_the_dense_one(factored_nu):
    k, l = factored_nu.params.k, factored_nu.params.l
    assert factored_nu.window_conditional_entropy() == rs.window_conditional_entropy(
        factored_nu.measure, k, l
    )


def test_factored_entropy_rate_matches_the_dense_one(factored_nu):
    h = factored_nu.entropy_rate()
    assert abs(h - rs.entropy_rate(factored_nu.measure)) <= 1e-12
    gain = h - rs.entropy_rate(factored_nu.base_measure)
    assert abs(gain - 0.12 / (2 * factored_nu.params.l + factored_nu.params.k)) < 1e-9


def test_factored_measure_text_equals_the_dense_text(factored_nu):
    from recovsys import serialization as ser

    assert ser.measure_to_text(factored_nu) == ser.measure_to_text(factored_nu.measure)


def test_factored_chain_check_rejects_broken_factors(factored_nu):
    mu, parent, weight, p = (
        factored_nu.base_measure, factored_nu.parent, factored_nu.weight, factored_nu.p
    )
    measures._check_factored_chain(mu, parent, weight, p)
    with pytest.raises(ValueError, match="row must sum to 1"):
        measures._check_factored_chain(mu, parent, weight * 1.01, p * 1.01 / (p * 1.01).sum())
    with pytest.raises(ValueError, match="must sum to 1"):
        measures._check_factored_chain(mu, parent, weight, p * 1.01)
    shifted = np.roll(p, 1)
    with pytest.raises(ValueError, match="not stationary"):
        measures._check_factored_chain(mu, parent, weight, shifted)


def test_epsilon_construction_stationarity(reference_nu):
    nu = reference_nu.measure
    assert np.abs(nu.p @ nu.P - nu.p).max() < 1e-12


def test_markov_approximation_is_idempotent(binary_system):
    core = rs.essential_subgraph(binary_system.presentation)
    M = rs.max_entropy_measure(core)
    marg = rs.window_marginal(M, 3)
    again = rs.markov_approximation(marg, 3, 2)
    assert again.states == M.states
    assert np.abs(again.P - M.P).max() < 1e-12
    assert np.abs(again.p - M.p).max() < 1e-12


def test_markov_approximation_preserves_marginal(reference_nu):
    marg = rs.symbol_marginal(reference_nu.measure, 3)
    eta = rs.markov_approximation(marg, 3, 2)
    back = rs.window_marginal(eta, 3)
    for w, pr in marg.items():
        assert abs(back.get(w, 0.0) - pr) < 1e-12


def test_markov_approximation_of_iid_is_iid():
    marg = {}
    for a in range(2):
        for b in range(2):
            marg[(a, b)] = 0.25
    M = rs.markov_approximation(marg, 2, 2)
    assert np.allclose(M.P, 0.5, atol=1e-12)
    assert np.allclose(M.p, 0.5, atol=1e-12)


def test_markov_approximation_flags_inconsistent_marginal(reference_nu):
    # The block-aligned window marginal of the perturbed chain is not shift
    # consistent; only the phase-averaged lift is.
    raw = rs.window_marginal(reference_nu.measure, 3)
    with pytest.raises(rs.InconsistentMarginalError):
        rs.markov_approximation(raw, 3, 2)


def test_markov_approximation_names_the_first_step_to_a_massless_state():
    # Shift consistent within MARGINAL_TOL, but 01 and 02 step from state 0
    # to states 1 and 2, which carry no prefix mass; 01 comes first.
    marg = {(0, 2): 2e-13, (0, 0): 1.0 - 3e-13, (0, 1): 1e-13}
    with pytest.raises(rs.InconsistentMarginalError, match=re.escape("at (1,): prefix mass 0.0 vs suffix mass 1e-13")):
        rs.markov_approximation(marg, 2, 3)


def test_symbol_lift_entropy_meets_lower_bound(binary_system):
    cap = rs.capacity(binary_system)
    for eps in (0.1, 0.286):
        built = rs.epsilon_construction(binary_system, eps)
        marg = rs.symbol_marginal(built.measure, 3)
        eta = rs.markov_approximation(marg, 3, 2)
        assert rs.entropy_rate(eta) >= rs.entropy_rate(built.measure) - 1e-12
        assert rs.entropy_rate(eta) >= cap + eps / 3 - 1e-9


def test_one_letter_entropies_are_zero():
    # With q = 1 the log base q**emit is 1: rates and window entropies read
    # 0, as `graphs.log_base` does, not a division by zero or NaN.
    M = rs.max_entropy_measure(rs.de_bruijn(1, 2))
    report = rs.window_conditional_entropy(M, 1, 1)
    assert rs.entropy_rate(M) == 0.0
    assert (report.entries, report.max_entropy) == ({((0,), (0,)): 0.0}, 0.0)
    base = rs.MarkovMeasure(1, [(0, 0, 0)], [[1.0]], [1.0], 3)
    params = measures.EpsilonParams(0.0, 1, 1, 1, 0.0)
    built = measures.EpsilonConstruction(base, params, base.state_rows, np.zeros(1, int), np.ones(1), np.ones(1))
    assert built.entropy_rate() == 0.0
    assert built.window_conditional_entropy().entries == {((0,), (0,)): 0.0}


def test_binary_entropy_dominates_parabola():
    for i in range(10_001):
        x = i / 10_000
        assert rs.binary_entropy(x) >= 4 * x * (1 - x) - 1e-12


def test_map_decoder_on_perturbed_measure(reference_nu):
    word, prob = rs.map_decoder(reference_nu.measure, 1, 1, (0,), (1,))
    assert word == (0,)
    assert abs(prob - (1 - reference_nu.params.delta)) < 1e-12
    assert prob >= 1 - 0.286 / 2


def test_map_decoder_on_deterministic_measure(reference_mu):
    word, prob = rs.map_decoder(reference_mu, 1, 1, (0,), (1,))
    assert word == (0,) and prob == 1.0


def test_map_decoder_breaks_ties_numerically(uniform_coin):
    word, prob = rs.map_decoder(uniform_coin, 1, 1, (0,), (1,))
    assert word == (0,)
    assert abs(prob - 0.5) < 1e-12


def test_map_decoder_rejects_impossible_boundary():
    G = LabeledDigraph(3, ((0,), (1,), (2,)), ((0, 1, (1,)), (1, 2, (2,)), (2, 0, (0,))))
    M = rs.max_entropy_measure(G)
    with pytest.raises(ValueError):
        rs.map_decoder(M, 1, 1, (0,), (0,))


def test_measure_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        rs.MarkovMeasure(
            2, ((0,), (1,)), np.array([[0.6, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5]), 1
        )
    with pytest.raises(ValueError):
        rs.MarkovMeasure(
            2, ((0,), (1,)), np.full((2, 2), 0.5), np.array([0.9, 0.1]), 1
        )
    with pytest.raises(ValueError, match="sum to 1"):
        rs.MarkovMeasure(2, (), np.zeros((0, 0)), np.zeros(0), 1)


def test_measure_validation_rejects_non_finite_entries():
    nan = float("nan")
    with pytest.raises(ValueError, match="finite"):
        rs.MarkovMeasure(2, ((0,), (1,)), [[nan, nan], [0.5, 0.5]], [0.5, 0.5], 1)
    with pytest.raises(ValueError, match="finite"):
        rs.MarkovMeasure(2, ((0,), (1,)), np.full((2, 2), 0.5), [nan, 0.5], 1)
    with pytest.raises(ValueError, match="finite"):
        rs.MarkovMeasure(2, ((0,), (1,)), [[1.0, 0.0], [0.0, 1.0]], [float("inf"), 0.5], 1)


def test_window_marginal_needs_a_single_symbol_chain_for_long_windows(reference_nu):
    with pytest.raises(ValueError, match="single-symbol chain"):
        rs.window_marginal(reference_nu.measure, reference_nu.measure.state_len + 1)


def test_window_marginal_rejects_non_overlapping_transitions():
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    M = rs.MarkovMeasure(2, states, np.full((4, 4), 0.25), np.full(4, 0.25), 1)
    assert rs.window_marginal(M, 2) == dict.fromkeys(states, 0.25)
    with pytest.raises(ValueError, match="non-overlapping states"):
        rs.window_marginal(M, 3)


def test_symbol_marginal_stops_at_the_block_size(reference_nu):
    with pytest.raises(ValueError, match="up to the block size"):
        rs.symbol_marginal(reference_nu.measure, reference_nu.measure.state_len + 1)


@pytest.mark.parametrize("q", [None, 4])
def test_window_masses_are_state_path_cylinders(binary_system, q):
    S = binary_system if q is None else rs.truncated_debruijn_system(q)
    M = rs.max_entropy_measure(rs.essential_subgraph(S.presentation))
    L = M.state_len
    index = {w: i for i, w in enumerate(M.states)}
    for n in range(L, L + 5):
        marg = rs.window_marginal(M, n)
        assert abs(sum(marg.values()) - 1.0) < 1e-12
        for w, pr in marg.items():
            ids = [index[w[i : i + L]] for i in range(n - L + 1)]
            cylinder = float(M.p[ids[0]])
            for u, v in zip(ids, ids[1:]):
                cylinder *= float(M.P[u, v])
            assert pr == cylinder


def test_window_marginal_is_capped(uniform_coin):
    with pytest.raises(ValueError, match="enumeration cap"):
        rs.window_marginal(uniform_coin, 25)


def test_epsilon_condition_is_the_maximum_over_pairs():
    # No two 1s in a row: only the boundary pair (0, 0) leaves its middle open.
    M = rs.MarkovMeasure(2, ((0,), (1,)), [[0.5, 0.5], [1.0, 0.0]], [2 / 3, 1 / 3], 1)
    report = rs.window_conditional_entropy(M, 1, 1)
    weight = dict.fromkeys(report.entries, 0.0)
    for w, pr in rs.window_marginal(M, 3).items():
        weight[w[:1], w[2:]] += pr
    average = sum(weight[pair] * h for pair, h in report.entries.items())
    assert report.max_entropy == pytest.approx(rs.binary_entropy(1 / 3))
    assert average == pytest.approx(rs.binary_entropy(1 / 3) / 2)
    assert average < 0.5 < report.max_entropy
    assert not rs.is_epsilon_recoverable(M, 0.5, 1, 1)


def test_state_length_windows_are_the_states_and_their_masses():
    M = rs.epsilon_construction(rs.truncated_debruijn_system(13), 0.1).measure
    rows, mass = measures._window_rows(M, M.state_len)
    assert np.array_equal(rows, M.state_rows)
    assert [x.hex() for x in mass.tolist()] == [x.hex() for x in M.p.tolist()]
    windows = rs.window_marginal(M, M.state_len)
    assert list(windows) == list(M.states)
    assert [x.hex() for x in windows.values()] == [x.hex() for x in M.p.tolist()]


def dict_window_report(marg, q, k, l):
    """Oracle: the report from a dict of dicts, one pair at a time.

    The windows are grouped by (alpha, beta) in the marginal's order, each
    pair's total is Python's running sum and its entropy numpy's `.sum()`
    of its own array; ``+ 0.0`` turns the -0.0 of a certain middle into 0.0.
    """
    grouped = {}
    for w, pr in marg.items():
        if pr <= 0:
            continue
        grouped.setdefault((w[:l], w[l + k :]), {})[w[l : l + k]] = pr
    entries, zero = {}, []
    for pair in product(product(range(q), repeat=l), repeat=2):
        mids = grouped.get(pair)
        if not mids:
            zero.append(pair)
            continue
        total = sum(mids.values())
        probs = np.array([m / total for m in mids.values()])
        entries[pair] = float(-measures._xlogx(probs).sum()) / math.log(q) + 0.0
    return entries, tuple(zero), max(entries.values(), default=0.0)


@st.composite
def window_marginals(draw):
    """Distinct windows in numeric order with masses, zeros among them.

    Up to 5 boundary pairs, each with its own number of middles, up to all
    q**k of them: 8 or more when q**k allows, where numpy's pairwise `.sum()`
    and a running sum part ways.
    """
    q, k, l = draw(st.sampled_from([(2, 1, 1), (3, 2, 1), (8, 1, 1), (9, 1, 2), (4, 2, 2), (3, 1, 2)]))
    pair = st.tuples(*[st.integers(0, q - 1)] * (2 * l))
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0))
    marg = {}
    for p in draw(st.sets(pair, min_size=1, max_size=5)):
        middles = draw(st.sets(st.tuples(*[st.integers(0, q - 1)] * k), min_size=1, max_size=q**k))
        for m in middles:
            marg[p[:l] + m + p[l:]] = draw(mass)
    return q, k, l, dict(sorted(marg.items()))


@settings(max_examples=200, deadline=None)
@given(window_marginals())
def test_row_window_report_equals_the_dict_report_bit_for_bit(drawn):
    q, k, l, marg = drawn
    windows = np.array(list(marg), dtype=np.int64)
    report = measures._window_report(windows, np.array(list(marg.values())), q, k, l)
    entries, zero, top = dict_window_report(marg, q, k, l)
    assert list(report.entries) == list(entries)
    assert [x.hex() for x in report.entries.values()] == [x.hex() for x in entries.values()]
    assert report.zero_pairs == zero
    assert report.max_entropy.hex() == top.hex()


def dict_path_report(M, k, l):
    """Oracle: the report read through the window marginal's dict, as before."""
    marg = rs.window_marginal(M, 2 * l + k)
    windows = _word_array("window", marg)
    return measures._window_report(windows, np.fromiter(marg.values(), float, len(marg)), M.q, k, l)


@functools.lru_cache(maxsize=None)
def drawn_measure(name, eps):
    """The max-entropy chain of a built system, or for eps >= 0 its dense epsilon measure."""
    S = BUILT_SYSTEMS[name]()
    if eps < 0:
        return rs.max_entropy_measure(rs.essential_subgraph(S.presentation))
    return rs.epsilon_construction(S, eps).measure


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["truncated_q4", "marker_q3_k1", "square_t2_l1", "search_q2_k1_l1", "power_t2_k2"]),
    st.sampled_from([-1.0, 0.0, 0.05, 0.286]),
    st.integers(1, 2),
    st.integers(1, 2),
)
def test_dense_window_report_equals_the_dict_path_bit_for_bit(name, eps, k, l):
    M = drawn_measure(name, eps)
    # Block chains read windows up to their state length only.
    assume(M.emit == 1 or 2 * l + k <= M.state_len)
    report, want = rs.window_conditional_entropy(M, k, l), dict_path_report(M, k, l)
    assert list(report.entries) == list(want.entries)
    assert [x.hex() for x in report.entries.values()] == [x.hex() for x in want.entries.values()]
    assert report.zero_pairs == want.zero_pairs
    assert report.max_entropy.hex() == want.max_entropy.hex()


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (lambda M: rs.MarkovMeasure(2, M.state_rows, np.eye(3), M.p, 1), ValueError,
         "matrix and vector shapes must match the state count"),
        (lambda M: rs.MarkovMeasure(2, M.state_rows[::-1], M.P, M.p, 1), ValueError,
         "states must be strictly increasing words"),
        (lambda M: rs.MarkovMeasure(2, M.state_rows, [[1.5, -0.5], [0.0, 1.0]], [0.0, 1.0], 1), ValueError,
         "transition probabilities must be nonnegative"),
        (lambda M: rs.MarkovMeasure(2, [(0,), (5,)], M.P, M.p, 1), ValueError, "state (5,) is not a word over [2]"),
        (lambda M: rs.MarkovMeasure(2, [(-1,), (0,)], M.P, M.p, 1), ValueError, "state (-1,) is not a word over [2]"),
        (lambda M: rs.MarkovMeasure(0, M.state_rows, M.P, M.p, 1), ValueError, "q and emit must be at least 1"),
        (lambda M: rs.MarkovMeasure(2, M.state_rows, M.P, M.p, 0), ValueError, "q and emit must be at least 1"),
        (lambda M: rs.MarkovMeasure(2, M.state_rows, M.P, M.p, -1), ValueError, "q and emit must be at least 1"),
        (lambda M: rs.binary_entropy(1.5), ValueError, "entropy argument must lie in [0, 1]"),
        (lambda M: rs.binary_entropy(float("nan")), ValueError, "entropy argument must lie in [0, 1]"),
        (lambda M: rs.max_entropy_measure(LabeledDigraph(2, ((0,),), ())), ValueError,
         "the max-entropy measure needs at least one edge"),
        (lambda M: rs.window_marginal(M, 0), ValueError, "window length must be at least 1"),
        (lambda M: rs.window_conditional_entropy(M, 0, 1), ValueError, "k and l must be at least 1"),
        (lambda M: rs.delta_from_epsilon(0.1, 1, 1), ValueError, "the rate equation needs q >= 2 and k >= 1"),
        (lambda M: measures.markov_approximation({(0,): 1.0}, 1, 2), ValueError,
         "the approximation needs windows of length at least 2"),
        (lambda M: measures.markov_approximation({(0,): 1.0}, 2, 2), ValueError,
         "marginal word (0,) does not have length 2"),
        (lambda M: measures.markov_approximation({(0, 0): 1.5, (0, 1): -0.5}, 2, 2), ValueError,
         "marginal probabilities must be nonnegative"),
        (lambda M: measures.markov_approximation({(0, 0): 0.5}, 2, 2), ValueError, "marginal masses sum to 0.5, not 1"),
        (lambda M: measures.markov_approximation(dict.fromkeys([(0, 0), (0, 3), (3, 0), (3, 3)], 0.25), 2, 2),
         ValueError, "marginal word (0, 3) is not over [2]"),
        (lambda M: measures.markov_approximation({(0, 0): 0.5, (0, -1): 0.5}, 2, 2), ValueError,
         "marginal word (0, -1) is not over [2]"),
        (lambda M: measures.map_decoder(M, 1, 1, (), (0,)), ValueError, "boundary words must have length l"),
    ],
)
def test_measures_refuse_bad_input(uniform_coin, call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call(uniform_coin)


def test_symbol_marginal_of_a_sliding_chain_is_its_window_marginal(uniform_coin):
    assert measures.symbol_marginal(uniform_coin, 2) == rs.window_marginal(uniform_coin, 2)
