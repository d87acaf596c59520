import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recovsys as rs
from recovsys.graphs import LabeledDigraph

from conftest import BINARY_FORBIDDEN, brute_force_word_count, forbidden_from_graph, hop_distances, is_admissible

PERRIN_MATRIX = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def test_admissible_examples():
    F = rs.ForbiddenSet(2, 1, 1, BINARY_FORBIDDEN)
    assert is_admissible(F)
    assert not is_admissible(rs.ForbiddenSet(2, 1, 1, frozenset()))
    everything = frozenset(product(range(2), repeat=3))
    assert is_admissible(rs.ForbiddenSet(2, 1, 1, everything))


def test_forbidden_set_validates_word_length():
    with pytest.raises(ValueError):
        rs.ForbiddenSet(2, 1, 1, frozenset({(0, 0)}))


def test_presentation_of_empty_forbidden_set_is_de_bruijn():
    F = rs.ForbiddenSet(2, 1, 1, frozenset())
    assert rs.presentation_from_forbidden(F) == rs.de_bruijn(2, 2)


def test_presentation_of_everything_forbidden_is_edgeless():
    F = rs.ForbiddenSet(2, 1, 1, frozenset(product(range(2), repeat=3)))
    assert rs.presentation_from_forbidden(F).edges == ()


@st.composite
def forbidden_sets(draw):
    q = draw(st.sampled_from((2, 3)))
    k, l = draw(st.sampled_from(((1, 1), (2, 1), (1, 2))))
    windows = list(product(range(q), repeat=2 * l + k))
    picked = draw(st.sets(st.sampled_from(windows)))
    # half the time the drawn set is the allowed one: sparse systems, some
    # of them recoverable, so the recovery tables are not all empty
    if draw(st.booleans()):
        picked = set(windows) - picked
    return rs.ForbiddenSet(q, k, l, frozenset(picked))


@settings(max_examples=60, deadline=None)
@given(forbidden_sets())
def test_presentation_from_forbidden_matches_de_bruijn_reference(F):
    G = rs.presentation_from_forbidden(F)
    # reference: the de Bruijn graph of order 2l+k-1, written out here so it
    # shares no code with the builder, minus the edges spelling F
    labels = tuple(product(range(F.q), repeat=F.word_len - 1))
    index = {w: i for i, w in enumerate(labels)}
    edges = tuple(
        (index[w[:-1]], index[w[1:]], w[-1:])
        for w in product(range(F.q), repeat=F.word_len)
        if w not in F.words
    )
    ref = LabeledDigraph(F.q, labels, edges)
    assert rs.essential_subgraph(G) == rs.essential_subgraph(ref)
    words = rs.words_of_length(G, F.word_len)
    assert words == rs.words_of_length(ref, F.word_len)
    assert rs.system_capacity(G) == rs.system_capacity(ref)
    assert rs.verify_recoverable(G, F.k, F.l) == rs.verify_recoverable(ref, F.k, F.l)
    # F itself may allow windows that no bi-infinite sequence uses; the
    # system's own forbidden set is the complement of its occurring windows
    unused = frozenset(product(range(F.q), repeat=F.word_len)) - words
    for n in range(F.word_len, F.word_len + 3):
        assert rs.count_words(G, n) == brute_force_word_count(F.q, n, unused)


def test_binary_core_matches_printed_matrix(binary_system):
    core = rs.essential_subgraph(binary_system.presentation)
    A = rs.adjacency(core)
    hits = [
        perm
        for perm in permutations(range(3))
        if np.array_equal(A[np.ix_(perm, perm)], PERRIN_MATRIX)
    ]
    assert hits, "core is not a reordering of the 3-state reference matrix"


def test_verify_recoverable_binary_table(binary_system):
    res = rs.verify_recoverable(binary_system.presentation, 1, 1)
    assert res.ok
    assert res.table == {
        ((0,), (0,)): (1,),
        ((0,), (1,)): (0,),
        ((1,), (0,)): (0,),
        ((1,), (1,)): (0,),
    }


def test_full_shift_is_not_recoverable():
    res = rs.verify_recoverable(rs.de_bruijn(2, 2), 1, 1)
    assert not res.ok
    assert res.conflict == ((0,), (0,), (0,), (1,))


def test_marker_k2_is_recoverable():
    S = rs.marker_system(3, 2)
    assert rs.verify_recoverable(S.presentation, 2, 3).ok


def test_capacity_examples(binary_system):
    assert abs(rs.capacity(binary_system) - 0.4057) < 5e-4
    full = rs.de_bruijn(3, 2)
    assert abs(rs.system_capacity(full) - 1.0) < 1e-12
    S6 = rs.truncated_debruijn_system(6)
    assert abs(rs.capacity(S6) - math.log(2, 6)) < 1e-12


def test_capacity_of_edgeless_presentation_is_minus_infinity():
    G = LabeledDigraph(2, ((0,), (1,)), ())
    assert rs.system_capacity(G) == float("-inf")


def test_capacity_refuses_a_presentation_that_is_not_right_resolving():
    # Every vertex emits label 0 to both vertices: log2 of the spectral
    # radius is 1, but the system has 2 words at every length, capacity 0.
    edges = tuple((u, v, (0,)) for u in (0, 1) for v in (0, 1))
    G = LabeledDigraph(2, ((0,), (1,)), edges)
    assert [rs.count_words(G, n) for n in range(1, 7)] == [2] * 6
    message = "the capacity needs a right-resolving presentation: a vertex emits a label twice"
    with pytest.raises(ValueError, match=f"^{message}$"):
        rs.system_capacity(G)


def test_upper_bound_is_exact_rational():
    assert rs.upper_bound(1, 1) == Fraction(1, 2)
    assert rs.upper_bound(3, 3) == Fraction(1, 2)
    assert rs.upper_bound(3, 1) == Fraction(1, 4)
    with pytest.raises(ValueError):
        rs.upper_bound(0, 1)


def test_edge_cover_square_examples():
    S4 = rs.edge_cover_system(2, "square", l=1)
    assert (S4.q, S4.k, S4.l) == (4, 1, 1)
    assert abs(rs.capacity(S4) - 0.5) < 1e-12
    S9 = rs.edge_cover_system(3, "square", l=1)
    assert S9.q == 9 and abs(rs.capacity(S9) - 0.5) < 1e-12
    S_l2 = rs.edge_cover_system(2, "square", l=2)
    assert (S_l2.q, S_l2.k, S_l2.l) == (4, 2, 2)
    assert abs(rs.capacity(S_l2) - 0.5) < 1e-12


def test_edge_cover_power_example():
    S8 = rs.edge_cover_system(2, "power", k=2)
    assert (S8.q, S8.k, S8.l) == (8, 2, 1)
    assert abs(rs.capacity(S8) - 1 / 3) < 1e-12
    S16 = rs.edge_cover_system(2, "power", k=3)
    assert (S16.q, S16.k, S16.l) == (16, 3, 1)
    assert abs(rs.capacity(S16) - 1 / 4) < 1e-12


def test_edge_cover_rejects_bad_mode():
    with pytest.raises(ValueError):
        rs.edge_cover_system(2, "diagonal")


@pytest.mark.parametrize(
    "mode, option, message",
    [("square", {"k": 2}, "square mode takes l, not k"), ("power", {"k": 2, "l": 7}, "power mode takes k, not l")],
)
def test_edge_cover_refuses_the_option_its_mode_does_not_use(mode, option, message):
    with pytest.raises(ValueError, match=message):
        rs.edge_cover_system(2, mode, **option)
    # The other option, given as its default 1, is accepted.
    assert rs.edge_cover_system(2, mode, k=1, l=1).provenance == f"edge_cover(t=2, mode={mode}, k=1, l=1)"


def test_a_system_holds_the_table_it_is_given_as_one_recovery_table(tmp_path):
    # Built from a dict, as a caller outside the package builds it, the
    # system holds a RecoveryTable equal to the dict, which writes the same
    # table text as the construction's own table.
    S = rs.truncated_debruijn_system(8)
    given = dict(S.recovery_table)
    T = rs.RecoverableSystem(S.q, 1, 1, S.presentation, given, "from a dict")
    assert isinstance(T.recovery_table, rs.RecoveryTable) and T.recovery_table == given
    assert np.array_equal(T.recovery_table.rows, S.recovery_table.rows)
    rs.serialization.save_recovery_table(T.recovery_table, tmp_path / "t.table")
    rs.serialization.save_recovery_table(S.recovery_table, tmp_path / "s.table")
    assert (tmp_path / "t.table").read_bytes() == (tmp_path / "s.table").read_bytes()
    # A RecoveryTable is held as it is.
    assert rs.RecoverableSystem(S.q, 1, 1, S.presentation, S.recovery_table, "same").recovery_table is S.recovery_table


def test_marker_capacity_formula():
    S = rs.marker_system(3, 1)
    assert abs(rs.capacity(S) - math.log(2, 3) / 3) < 1e-9
    S2 = rs.marker_system(3, 2)
    assert abs(rs.capacity(S2) - math.log(2, 3) / 4) < 1e-9
    for q in (3, 4):
        S3 = rs.marker_system(q, 3)
        assert abs(rs.capacity(S3) - math.log(2, q) / 5) < 1e-9
    # only the prefixes and suffixes of its 24 allowed windows are vertices
    assert rs.marker_system(4, 2).presentation.n_vertices == 20
    with pytest.raises(ValueError):
        rs.marker_system(2, 1)


def test_truncated_matrices_match_printed_values():
    A8 = rs.truncated_matrix(8)
    expected8 = np.array(
        [
            [1, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 0, 0],
        ]
    )
    assert np.array_equal(A8, expected8)
    A6 = rs.truncated_matrix(6)
    expected6 = np.array(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
        ]
    )
    assert np.array_equal(A6, expected6)


def test_truncated_q4_is_full_de_bruijn():
    assert np.array_equal(rs.truncated_matrix(4), rs.adjacency(rs.de_bruijn(2, 2)))


def test_truncated_q7_diameter_counterexample():
    # ERRATA.md, criterion 3: vertex i is (i // 3, i % 3); (0,2) misses the
    # whole row (1,*) within two steps and (1,2) misses (1,0) and (1,1).
    dist = hop_distances(rs.truncated_matrix(7))
    far = {(u, v) for u in range(7) for v in range(7) if not 0 <= dist[u, v] <= 2}
    assert far == {(2, 3), (2, 4), (2, 5), (5, 3), (5, 4)}
    assert all(dist[u, v] == 3 for u, v in far)


def test_no_deletion_set_gives_diameter_2_and_squared_rank_2():
    # ERRATA.md, criterion 3: among deletions of r vertices from the order-2
    # de Bruijn graph over [t] that keep the eq. 11 spectral radius (checked
    # with numpy eigvals, independent of the Perron solver), some have
    # diameter <= 2 and some have rank(A^2) <= 2, but none has both.
    expected = {(3, 2): (18, 3, 12), (4, 2): (36, 6, 24), (4, 3): (192, 4, 24)}
    for (t, r), counts in expected.items():
        full = rs.adjacency(rs.de_bruijn(t, 2))
        lam = (t * t - r) ** rs.capacity_formula(t * t - r)
        kept = short = low_rank = 0
        for deleted in combinations(range(t * t), r):
            keep = [i for i in range(t * t) if i not in deleted]
            A = full[np.ix_(keep, keep)]
            if abs(np.abs(np.linalg.eigvals(A)).max() - lam) > 1e-9:
                continue
            dist = hop_distances(A)
            diameter_ok = bool((dist >= 0).all() and dist.max() <= 2)
            rank_ok = np.linalg.matrix_rank(A @ A) <= 2
            assert not (diameter_ok and rank_ok), (t, r, deleted)
            kept += 1
            short += diameter_ok
            low_rank += rank_ok
        assert (kept, short, low_rank) == counts, (t, r)


def test_truncation_domain_errors():
    with pytest.raises(ValueError):
        rs.truncated_debruijn_system(1)
    with pytest.raises(ValueError):
        rs.truncated_debruijn_system(11)  # t=4, r=5 > t
    assert rs.truncated_debruijn_system(3).q == 3  # t=2, r=1 < t is fine
    assert rs.truncated_debruijn_system(2).q == 2  # t=2, r=2 = t is fine


def test_capacity_formula_examples():
    assert abs(rs.capacity_formula(8) - math.log(1 + math.sqrt(3), 8)) < 1e-12
    assert abs(rs.capacity_formula(9) - 0.5) < 1e-12
    assert abs(rs.capacity_formula(16) - 0.5) < 1e-12
    assert abs(rs.capacity_formula(6) - math.log(2, 6)) < 1e-12


def test_truncated_systems_verify_and_report_effective_alphabet():
    S6 = rs.truncated_debruijn_system(6)
    assert rs.verify_recoverable(S6.presentation, 1, 1).ok
    assert "effective_alphabet=4" in S6.provenance
    assert S6.presentation.n_vertices == 6  # feeders retained, never pruned


def test_perron_equals_t_minus_one_when_r_equals_t():
    for t in range(2, 9):
        q = t * t - t
        assert abs(rs.perron_eigenvalue(rs.truncated_matrix(q)) - (t - 1)) < 1e-12


def test_recursive_extend_binary_example(edge4_system):
    S6 = rs.recursive_extend(edge4_system)
    assert S6.q == 6
    assert rs.verify_recoverable(S6.presentation, 1, 1).ok
    bound = 0.5 * math.log(4, 6) + (1 / 16) * math.log(17 / 16, 6)
    assert rs.capacity(S6) >= bound - 1e-9
    assert bound > math.log(2, 6)


def test_recursive_extend_from_q9():
    S11 = rs.recursive_extend(rs.edge_cover_system(3, "square", l=1))
    assert S11.q == 11
    assert rs.verify_recoverable(S11.presentation, 1, 1).ok


def test_recursive_chain_tracks_formula_bounds():
    S = rs.edge_cover_system(3, "square", l=1)
    for q in (11, 13, 15):
        S = rs.recursive_extend(S)
        assert S.q == q
        assert rs.capacity(S) >= rs.recursive_chain_bound(q) - 1e-9


def test_recursive_extend_rejects_disconnected_core():
    G = LabeledDigraph(2, ((0,), (1,)), ((0, 0, (0,)), (1, 1, (1,))))
    res = rs.verify_recoverable(G, 1, 1)
    assert res.ok
    S = rs.RecoverableSystem(2, 1, 1, G, dict(res.table), "two_loops")
    with pytest.raises(ValueError):
        rs.recursive_extend(S)


def test_exhaustive_binary_recovers_known_optimum():
    value, witness = rs.exhaustive_max_capacity(2, 1, 1)
    assert abs(value - 0.4057) < 5e-4
    F = forbidden_from_graph(witness.presentation, 1, 1)
    relabeled = frozenset(tuple(1 - c for c in w) for w in BINARY_FORBIDDEN)
    assert F.words in (BINARY_FORBIDDEN, relabeled)


def test_exhaustive_respects_upper_bound():
    value, witness = rs.exhaustive_max_capacity(2, 2, 1)
    assert value <= float(rs.upper_bound(2, 1)) + 1e-9
    assert rs.verify_recoverable(witness.presentation, 2, 1).ok


def test_exhaustive_trivial_alphabet():
    value, witness = rs.exhaustive_max_capacity(1, 1, 1)
    assert value == 0.0
    assert witness.q == 1


def test_exhaustive_rejects_oversized_search():
    with pytest.raises(ValueError, match="exceeds the cap"):
        rs.exhaustive_max_capacity(4, 1, 2)


@pytest.mark.parametrize(
    "q, k, l, count",
    [
        (6, 1, 4, "6**1679616"),
        (36, 1, 1, "36**1296"),
        (2, 3, 2, "8**16"),
        (6, 5000, 1, "(6**5000)**36"),
        (6, 1, 10**9, "6**(6**2000000000)"),
    ],
)
def test_oversized_search_is_refused_before_anything_is_built(q, k, l, count):
    # (q**k)**(q**(2l)) candidates: 6**1679616 has 1.3 million digits, past
    # what Python prints, and its boundary pairs alone take over 100 MB.
    # Factors past 2**64 stay powers: 6**5000 alone has 3,891 digits.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            rs.exhaustive_max_capacity(q, k, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cap = rs.systems.SEARCH_CANDIDATE_CAP
    assert str(info.value) == f"search space of {count} recovery functions exceeds the cap of {cap}"
    assert peak < 1 << 20


def test_recovery_table_is_a_mapping_view_over_its_rows(trunc8_system):
    table = trunc8_system.recovery_table
    assert isinstance(table, rs.RecoveryTable) and not table.rows.flags.writeable
    assert rs.RecoveryTable.of(table) is table
    assert len(table) == len(table.rows) == 60
    assert list(table) == sorted(dict(table)) and table[(0,), (1,)] == (0,)
    assert repr(table) == "RecoveryTable(60 entries)"


def boundary_pairs(q, l):
    """Every (u, v) pair of l-words, as tuples, in enumeration order."""
    sides = list(product(range(q), repeat=l))
    return [(u, v) for u in sides for v in sides]


@pytest.mark.parametrize("q, k, l", [(2, 1, 1), (2, 2, 1), (3, 1, 1)])
def test_search_bounds_every_candidate_and_keeps_the_scan_winner(q, k, l):
    # Reference: one overlap matrix per recovery function, built window by
    # window, and the tie rule run over every candidate in enumeration order.
    pairs = boundary_pairs(q, l)
    middles = list(product(range(q), repeat=k))
    n = q ** (2 * l + k - 1)
    cells = rs.systems._window_cells(q, n, np.array([[u + m + v for m in middles] for u, v in pairs]))
    every = np.arange(len(middles) ** len(pairs))
    hi = rs.systems._search_bounds(cells[np.arange(len(pairs)), rs.systems._digits(every, cells)], n)
    assert len(hi) == len(every)
    best_lam, best = -1.0, None
    for c, choice in enumerate(product(middles, repeat=len(pairs))):
        A = np.zeros((n, n), dtype=np.int64)
        for (u, v), keep in zip(pairs, choice):
            w = u + keep + v
            A[rs.systems._ranks(np.array(w[:-1]), q), rs.systems._ranks(np.array(w[1:]), q)] = 1
        lam = rs.perron_eigenvalue(A)
        assert hi[c] * (1 + 2e-12) >= lam + 1
        if lam > best_lam + 1e-12:
            best_lam, best = lam, choice
    value, S = rs.exhaustive_max_capacity(q, k, l)
    assert value == rs.graphs.log_base(best_lam, q)
    windows = (u + keep + v for (u, v), keep in zip(pairs, best))
    assert S.presentation == rs.graphs.window_presentation(q, windows)


def _dense_scan(q, k, l):
    """The exhaustive search as it ran before orbit pruning: dense (B, n, n)
    Collatz-Wielandt bounds on every candidate, certification in bound
    order, then the tie rule over the certified candidates."""
    sy = rs.systems
    pairs = boundary_pairs(q, l)
    middles = list(product(range(q), repeat=k))
    n = q ** (2 * l + k - 1)
    cells = sy._window_cells(q, n, np.array([[u + m + v for m in middles] for u, v in pairs]))
    n_candidates = len(middles) ** len(pairs)
    per_stack = max(1, sy._STACK_BYTES // (8 * n * n))
    rows, diag = np.arange(len(pairs)), np.arange(n)
    hi = np.empty(n_candidates)
    for start in range(0, n_candidates, per_stack):
        flat = cells[rows, sy._digits(np.arange(start, min(start + per_stack, n_candidates)), cells)]
        M = np.zeros((len(flat), n * n))
        M[np.arange(len(flat))[:, None], flat] = 1.0
        M = M.reshape(-1, n, n)
        M[:, diag, diag] += 1.0
        v = np.ones((len(flat), n, 1))
        bound = np.full(len(flat), np.inf)
        for _ in range(sy._BOUND_STEPS):
            w = M @ v
            bound = np.minimum(bound, (w / v).max(axis=(1, 2)))
            v = w / w.max(axis=1, keepdims=True)
        hi[start : start + len(flat)] = bound
    lams, top = {}, -1.0
    for c in np.argsort(-hi, kind="stable"):
        line = hi[c] * (1.0 + 2e-12) - 1.0
        if line + 1e-12 < top and not any(line <= lam <= line + 1e-12 for lam in lams.values()):
            break
        A = np.zeros(n * n, dtype=np.int64)
        A[cells[rows, sy._digits(c, cells)]] = 1
        lams[c] = rs.perron_eigenvalue(A.reshape(n, n))
        top = max(top, lams[c])
    best_lam, best = -1.0, 0
    for c in sorted(lams):
        if lams[c] > best_lam + 1e-12:
            best_lam, best = lams[c], c
    windows = (u + middles[j] + v for (u, v), j in zip(pairs, sy._digits(best, cells)))
    value = float("-inf") if best_lam == 0.0 else rs.graphs.log_base(best_lam, q)
    return value, rs.graphs.window_presentation(q, windows)


@pytest.mark.parametrize("q, k, l", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 3, 1), (2, 1, 2)])
def test_orbit_search_keeps_the_dense_scan_witness(q, k, l):
    value, S = rs.exhaustive_max_capacity(q, k, l)
    expected, presentation = _dense_scan(q, k, l)
    assert value == expected
    assert S.presentation == presentation


def _recovery_functions(q, k, l):
    pairs = boundary_pairs(q, l)
    middles = list(product(range(q), repeat=k))
    return pairs, middles, list(product(middles, repeat=len(pairs)))


def _symmetry_maps(pairs, middles, q):
    """Every alphabet permutation s, (u, v) -> m  |->  (s u, s v) -> s m, and
    each composed with reversal, (u, v) -> m  |->  (rev v, rev u) -> rev m,
    as the new position of each pair and the image of each middle."""
    l = len(pairs[0][0])
    position = {pair: i for i, pair in enumerate(pairs)}
    maps = []
    for s in permutations(range(q)):
        for flip in (1, -1):
            def act(w):
                return tuple(s[a] for a in w[::flip])

            targets = [position[w[:l], w[l:]] for w in (act(u + v) for u, v in pairs)]
            maps.append((targets, {m: act(m) for m in middles}))
    return maps


def _image(f, symmetry):
    targets, middle_map = symmetry
    g = [None] * len(f)
    for target, m in zip(targets, f):
        g[target] = middle_map[m]
    return tuple(g)


@pytest.mark.parametrize("q, k, l", [(2, 1, 1), (2, 2, 1), (3, 1, 1)])
def test_orbit_minima_match_a_closure_of_the_symmetries(q, k, l):
    pairs, middles, functions = _recovery_functions(q, k, l)
    maps = _symmetry_maps(pairs, middles, q)
    minima, seen = [], set()
    for c, f in enumerate(functions):
        if f in seen:
            continue
        minima.append(c)
        seen.add(f)
        frontier = [f]
        while frontier:
            h = frontier.pop()
            for g in (_image(h, symmetry) for symmetry in maps):
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
    tables = rs.systems._symmetry_tables(q, np.array([u + v for u, v in pairs]), np.array(middles))
    assert rs.systems._orbit_minima(tables).tolist() == minima


def _overlap_matrix(f, pairs, q, n):
    A = np.zeros((n, n))
    for (u, v), m in zip(pairs, f):
        w = u + m + v
        A[rs.systems._ranks(np.array(w[:-1]), q), rs.systems._ranks(np.array(w[1:]), q)] = 1
    return A


@pytest.mark.parametrize("q, k, l", [(2, 1, 1), (2, 2, 1), (3, 1, 1)])
def test_symmetric_images_have_the_same_spectral_radius(q, k, l):
    pairs, middles, functions = _recovery_functions(q, k, l)
    maps = _symmetry_maps(pairs, middles, q)
    n = q ** (2 * l + k - 1)
    rng = np.random.default_rng(2 * q + 3 * k)
    for c in rng.choice(len(functions), size=min(len(functions), 24), replace=False):
        rho = max(abs(np.linalg.eigvals(_overlap_matrix(functions[c], pairs, q, n))))
        for symmetry in maps:
            image = max(abs(np.linalg.eigvals(_overlap_matrix(_image(functions[c], symmetry), pairs, q, n))))
            assert abs(image - rho) <= 1e-9 * (rho + 1)


def test_exhaustive_ternary_witness():
    value, S = rs.exhaustive_max_capacity(3, 1, 1)
    assert value == 0.4380178794859414
    assert S.recovery_table == {
        ((0,), (0,)): (0,), ((0,), (1,)): (0,), ((0,), (2,)): (1,),
        ((1,), (0,)): (0,), ((1,), (1,)): (2,), ((1,), (2,)): (2,),
        ((2,), (0,)): (1,), ((2,), (1,)): (2,), ((2,), (2,)): (1,),
    }


def test_exhaustive_binary_l2():
    value, S = rs.exhaustive_max_capacity(2, 1, 2)
    assert abs(value - 0.583414617170) < 1e-12
    assert value <= float(rs.upper_bound(1, 2))
    assert rs.verify_recoverable(S.presentation, 1, 2).ok


def test_every_induced_forbidden_set_is_admissible():
    middles = [(0,), (1,)]
    pairs = [(u, v) for u in middles for v in middles]
    for choice in product(middles, repeat=4):
        words = frozenset(
            u + w + v
            for (u, v), keep in zip(pairs, choice)
            for w in middles
            if w != keep
        )
        assert is_admissible(rs.ForbiddenSet(2, 1, 1, words))


def test_constructed_capacities_respect_upper_bound(construction_suite):
    extra = {
        "marker_q3_k1": rs.marker_system(3, 1),
        "edge_power_q8": rs.edge_cover_system(2, "power", k=2),
        "truncated_q6": rs.truncated_debruijn_system(6),
    }
    for name, S in {**construction_suite, **extra}.items():
        assert rs.capacity(S) <= float(rs.upper_bound(S.k, S.l)) + 1e-9, name
        assert rs.verify_recoverable(S.presentation, S.k, S.l).ok, name


def per_word_verify(G, k, l):
    """`verify_recoverable` as a loop over the sorted words: the oracle."""
    table = {}
    for w in sorted(rs.words_of_length(G, 2 * l + k)):
        key, mid = (w[:l], w[l + k :]), w[l : l + k]
        prev = table.get(key)
        if prev is not None and prev != mid:
            return False, {}, (key[0], key[1], prev, mid)
        table[key] = mid
    return True, table, None


@st.composite
def windows_to_verify(draw):
    """(q, windows, k, l): a window set and the parameters to check it at.

    Half the draws are any set of equal-length windows, or all windows but
    such a set, checked at any k, l in {1, 2}, so clashes, empty essential
    parts and words no longer than the vertex labels all occur; the other
    half spell a partial recovery function at the k, l they are checked at.
    """
    q, k, l = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        length = draw(st.integers(2, 5))
        words = list(product(range(q), repeat=length))
        chosen = draw(st.sets(st.sampled_from(words)))
        return q, set(words) - chosen if draw(st.booleans()) else chosen, k, l
    sides, middles = list(product(range(q), repeat=l)), list(product(range(q), repeat=k))
    pairs = draw(st.sets(st.tuples(st.sampled_from(sides), st.sampled_from(sides))))
    return q, {u + draw(st.sampled_from(middles)) + v for u, v in sorted(pairs)}, k, l


@settings(max_examples=300, deadline=None)
@given(windows_to_verify())
def test_verify_recoverable_matches_the_per_word_loop(drawn):
    q, windows, k, l = drawn
    G = rs.graphs.window_presentation(q, windows)
    res = rs.verify_recoverable(G, k, l)
    ok, table, conflict = per_word_verify(G, k, l)
    assert (res.ok, res.table, res.conflict) == (ok, table, conflict)
    # the view iterates in (alpha, beta) order, over the rows a dict gives
    assert list(res.table) == sorted(table)
    assert res.table.rows.tolist() == rs.RecoveryTable.of(table).rows.tolist()


_LOOP = LabeledDigraph(2, ((0,),), ((0, 0, (0,)),))


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (lambda: rs.ForbiddenSet(0, 1, 1, frozenset()), ValueError, "q, k, l must all be at least 1"),
        (lambda: rs.ForbiddenSet(2, 1, 1, frozenset({(0, 2, 0)})), ValueError, "forbidden word (0, 2, 0) is not over [2]"),
        (lambda: rs.RecoverableSystem(2, 0, 1, _LOOP, {}, "x"), ValueError, "q, k, l must all be at least 1"),
        (lambda: rs.RecoverableSystem(3, 1, 1, _LOOP, {}, "x"), ValueError,
         "presentation alphabet differs from system alphabet"),
        (lambda: rs.verify_recoverable(_LOOP, 0, 1), ValueError, "k and l must be at least 1"),
        (lambda: rs.edge_cover_system(1, "square"), ValueError, "edge covering needs t >= 2"),
        (lambda: rs.edge_cover_system(2, "square", l=0), ValueError, "square mode needs l >= 1"),
        (lambda: rs.edge_cover_system(2, "power", k=0), ValueError, "power mode needs k >= 1"),
        (lambda: rs.marker_system(4, 0), ValueError, "marker construction needs k >= 1"),
        (lambda: rs.recursive_extend(rs.edge_cover_system(2, "power", k=2)), ValueError,
         "the loop extension applies to (1, 1) systems only"),
        # a system with no windows: without the refusal, the 0 x 0 Perron solve divides by zero
        (lambda: rs.recursive_extend(rs.RecoverableSystem(2, 1, 1, _LOOP, {}, "no_windows")), ValueError,
         "the loop extension needs a strongly connected core with at least one edge"),
        (lambda: rs.exhaustive_max_capacity(0, 1, 1), ValueError, "q, k, l must all be at least 1"),
    ],
)
def test_systems_refuse_bad_input(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_no_loop_extension_chain_reaches_q3():
    assert rs.systems.recursive_seed(3) is None
    assert rs.recursive_chain_bound(3) is None


def test_an_empty_forbidden_set_presents_the_full_shift():
    assert rs.presentation_from_forbidden(rs.ForbiddenSet(2, 1, 1, frozenset())) == rs.de_bruijn(2, 2)
