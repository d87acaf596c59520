import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recovsys as rs
from recovsys import serialization as ser
from recovsys.graphs import LabeledDigraph
from recovsys.storage import StorageVerification, WordRows

from conftest import cycle_code, open_walk_points, word_from_int

PERRIN_MATRIX = np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]])


def test_perrin_initial_values():
    assert [rs.perrin_count(n) for n in range(3)] == [3, 0, 2]


def test_perrin_unrolled():
    assert rs.perrin_count(5) == 5
    with pytest.raises(ValueError):
        rs.perrin_count(-1)


def test_perrin_matches_trace_up_to_40():
    for n in range(41):
        assert rs.perrin_count(n) == rs.trace_power(PERRIN_MATRIX, n)


def test_perrin_growth_rate_approaches_capacity():
    rate = math.log2(rs.perrin_count(60)) / 60
    assert abs(rate - 0.4057) < 0.01


def test_periodic_points_of_binary_system(binary_system):
    G = binary_system.presentation
    assert rs.periodic_points(G, 1).count == 0
    assert rs.periodic_points(G, 2).count == 2
    assert rs.periodic_points(G, 7).count == 7
    for n in range(1, 41):
        assert rs.periodic_points(G, n).count == rs.perrin_count(n)


def test_periodic_word_enumeration_matches_count(binary_system):
    G = binary_system.presentation
    for n in range(1, 39):
        pts = rs.periodic_points(G, n)
        want = open_walk_points(G, n)
        assert len(pts.words) == pts.count == len(want) == rs.perrin_count(n)
        assert pts.words.rows.dtype == want.dtype
        assert np.array_equal(pts.words.rows, want)


def test_periodic_points_self_loop_count():
    G = rs.de_bruijn(2, 2)
    pts = rs.periodic_points(G, 1)
    assert pts.count == 2  # loops at 00 and 11
    assert pts.words == frozenset({(0,), (1,)})


def test_storage_code_on_five_cycle(binary_system):
    code = rs.storage_code_for_cycle(binary_system, 5)
    assert len(code.codewords) == 5
    assert len(code.codewords) == rs.perrin_count(5)
    assert abs(code.rate() - math.log2(5) / 5) < 1e-12
    assert rs.verify_storage_code(code).ok


def test_storage_code_rejects_short_cycles(binary_system):
    with pytest.raises(ValueError):
        rs.storage_code_for_cycle(binary_system, 2)


@pytest.mark.parametrize(
    "n, q, words, match",
    [
        (2, 2, {(0, 1), (1, 0)}, "at least 3"),
        (1, 2, {(0,), (1,)}, "at least 3"),
        (-3, 2, set(), "at least 3"),
        (3, 0, {(0, 0, 0)}, "alphabet size"),
        (3, 2, {(5, 5, 5)}, r"\(5, 5, 5\) is not a word over \[2\]"),
        (3, 2, {(0, -1, 0)}, r"not a word over \[2\]"),
    ],
)
def test_cycle_storage_code_needs_a_cycle_code_over_q(n, q, words, match):
    with pytest.raises(ValueError, match=match):
        cycle_code(n, q, words)


def test_storage_code_enumeration_is_capped(trunc8_system):
    with pytest.raises(ValueError, match="enumeration cap"):
        rs.storage_code_for_cycle(trunc8_system, 40)


def test_storage_cap_counts_the_walk_not_the_points(trunc8_system, monkeypatch):
    # The walk is two half walks joined on their endpoints: at period 13 it
    # holds 9,136 paths of length 7 and one entry per closed walk, 472,448,
    # never the 3,799,168 length-13 paths.  The larger number is the boundary.
    A = rs.adjacency(rs.essential_subgraph(trunc8_system.presentation))
    assert (rs.trace_power(A, 13), rs.path_count(A, 7)) == (472_448, 9_136)
    monkeypatch.setattr(rs.graphs, "ENUM_CAP", 472_448)
    assert len(rs.storage_code_for_cycle(trunc8_system, 13).codewords) == 472_448
    monkeypatch.setattr(rs.graphs, "ENUM_CAP", 472_447)
    with pytest.raises(ValueError, match="enumeration cap") as info:
        rs.storage_code_for_cycle(trunc8_system, 13)
    assert "enumeration cap of 472447 paths" in str(info.value)


def test_truncated_q8_period_13_code_is_enumerated(trunc8_system):
    A = rs.adjacency(trunc8_system.presentation)
    code = rs.storage_code_for_cycle(trunc8_system, 13)
    assert len(code.codewords) == rs.trace_power(A, 13) == 472_448
    assert code.codewords.rows.dtype == np.uint8
    assert rs.verify_storage_code(code).ok


@pytest.mark.parametrize("n, cap", [(14, None), (3, 59)])
def test_storage_refusal_comes_before_any_walk(trunc8_system, monkeypatch, n, cap):
    # n = 14: 1,290,752 closed walks; n = 3: 20 closed walks, 60 paths of length 2.
    def no_walk(E, m):
        raise AssertionError("a walk started")

    monkeypatch.setattr(rs.graphs, "_paths", no_walk)
    if cap is not None:
        monkeypatch.setattr(rs.graphs, "ENUM_CAP", cap)
    with pytest.raises(ValueError, match="enumeration cap"):
        rs.storage_code_for_cycle(trunc8_system, n)
    assert rs.periodic_points(trunc8_system.presentation, n).words is None


def test_deterministic_loops_can_share_a_word():
    # Both loops spell 0: two period-n points, one word.
    G = LabeledDigraph(2, ((0,), (1,)), ((0, 0, (0,)), (1, 1, (0,))))
    assert rs.graphs._is_deterministic(G)
    for n in (1, 3):
        pts = rs.periodic_points(G, n)
        assert pts.count == 2
        assert pts.words == frozenset({(0,) * n})


@st.composite
def tailed_multigraphs(draw):
    """Multigraphs on up to 5 core vertices plus a source and a sink tail."""
    n = draw(st.integers(1, 5))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.tuples(st.integers(0, 2)))
    edges = draw(st.lists(edge, max_size=10))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    # Vertex n only leaves, vertex n + 1 only enters: neither is essential.
    edges += [(n, draw(st.integers(0, n - 1)), (0,)), (draw(st.integers(0, n - 1)), n + 1, (1,))]
    labels = tuple(word_from_int(i, 3, 2) for i in range(n + 2))
    return LabeledDigraph(3, labels, tuple(draw(st.permutations(edges))))


def closed_edge_sequences(G, n):
    """Oracle: the label words of all closed sequences of n edges of G."""
    edges = G.edges
    found = []

    def extend(start, v, word):
        if len(word) == n:
            if v == start:
                found.append(word)
            return
        for u, w, lab in edges:
            if u == v:
                extend(start, w, word + lab)

    for start in range(G.n_vertices):
        extend(start, start, ())
    return found


@settings(max_examples=100, deadline=None)
@given(tailed_multigraphs(), st.integers(1, 4))
def test_periodic_points_match_closed_edge_sequences(G, n):
    assert rs.essential_subgraph(G).n_vertices < G.n_vertices
    closed = closed_edge_sequences(G, n)
    pts = rs.periodic_points(G, n)
    assert pts.count == len(closed)
    assert pts.words == frozenset(closed)


def test_storage_code_on_edge_cover_cycle(edge4_system):
    code = rs.storage_code_for_cycle(edge4_system, 6)
    A = rs.adjacency(edge4_system.presentation)
    assert len(code.codewords) == rs.trace_power(A, 6)
    assert rs.verify_storage_code(code).ok
    # the closed 6-paths spell 2**6 words, so the rate hits 1/2 on the nose
    assert abs(code.rate() - 0.5) < 1e-12


def test_codewords_closed_under_cyclic_shift(binary_system, edge4_system):
    for S, n in ((binary_system, 7), (edge4_system, 5)):
        code = rs.storage_code_for_cycle(S, n)
        for w in code.codewords:
            assert w[1:] + w[:1] in code.codewords


def test_hand_built_violation_is_reported():
    table = {((0,), (0,)): (0,), ((1,), (1,)): (0,)}
    code = cycle_code(5, 2, {(0,) * 5, (1,) * 5}, table)
    res = rs.verify_storage_code(code)
    assert not res.ok
    assert res.violation == ((1, 1, 1, 1, 1), 0)
    fixed = cycle_code(5, 2, {(0,) * 5, (1,) * 5}, {((0,), (0,)): (0,), ((1,), (1,)): (1,)})
    assert rs.verify_storage_code(fixed).ok


def test_missing_table_entry_is_a_violation():
    code = cycle_code(3, 2, {(0, 0, 0)})
    assert not rs.verify_storage_code(code).ok


def test_trace_and_periodic_counts_agree(trunc8_system):
    A = rs.adjacency(trunc8_system.presentation)
    for n in (1, 3, 5, 9, 40):
        assert rs.periodic_points(trunc8_system.presentation, n).count == rs.trace_power(A, n)


def verify_by_loop(C, table):
    """Oracle: look up every position of every codeword, in sorted order.

    Reads the mapping `C` was built from, not the `RecoveryTable` it holds.
    """
    for w in sorted(C.codewords):
        for i in range(C.n):
            left = (w[(i - 1) % C.n],)
            right = (w[(i + 1) % C.n],)
            repaired = table.get((left, right))
            if repaired != (w[i],):
                return StorageVerification(False, (w, i))
    return StorageVerification(True)


@st.composite
def codes_and_tables(draw):
    """A code over [q] with a one-symbol table that repairs some positions, not all, and that table.

    The table holds the entries some codewords need, then entries with
    missing or rewritten middles, and entries naming symbols outside the
    codewords' range: -1, q, q + 1, top - 1, top + 1, 65,535 and 2**70.  A
    wide code also holds the symbol 65,535 (uint16 rows), 2**64 - 1 (uint64
    rows) or 2**70 (object rows), and its alphabet grows to hold it.
    """
    q = draw(st.sampled_from([1, 2, 3, 4, 256, 300]))
    top = draw(st.sampled_from([q - 1, 2**16 - 1, 2**64 - 1, 2**70]))
    n = draw(st.integers(3, 6))
    word = st.tuples(*[st.integers(0, q - 1) | st.just(top)] * n)
    words = draw(st.lists(word, max_size=8))
    table = {}
    for w in draw(st.lists(st.sampled_from(words), max_size=4)) if words else []:
        for i in range(n):
            table[(w[i - 1],), (w[(i + 1) % n],)] = (w[i],)
    symbol = st.integers(-1, q + 1) | st.sampled_from([top - 1, top, top + 1, 2**16 - 1, 2**70])
    for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=3)) if table else []:
        if draw(st.booleans()):
            table.pop(key, None)
        else:
            table[key] = (draw(symbol),)
    one = st.tuples(symbol)
    table.update(draw(st.dictionaries(st.tuples(one, one), one, max_size=6)))
    return cycle_code(n, top + 1, words, table), table


@settings(max_examples=300, deadline=None)
@given(codes_and_tables())
def test_verify_storage_code_matches_the_loop(code_and_table):
    C, table = code_and_table
    assert isinstance(C.recovery_table, rs.RecoveryTable)
    assert rs.verify_storage_code(C) == verify_by_loop(C, table)


@st.composite
def malformed_tables(draw):
    """A table no cycle code holds: ragged, empty middles, wider words or a float symbol."""

    def words(length):
        return st.tuples(*[st.integers(0, 3)] * length)

    def uniform(a, b, m):
        return draw(st.dictionaries(st.tuples(words(a), words(b)), words(m), min_size=1, max_size=4))

    lengths = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda s: s != (1, 1, 1))
    kind = draw(st.sampled_from(["ragged", "empty middle", "two symbols", "float"]))
    if kind == "empty middle":
        return uniform(1, 1, 0)
    if kind == "two symbols":
        return uniform(*draw(lengths.filter(lambda s: min(s) >= 1)))
    table = uniform(1, 1, 1)
    if kind == "ragged":
        a, b, m = draw(lengths)
        table[draw(words(a)), draw(words(b))] = draw(words(m))
    else:
        (alpha, beta), middle = draw(st.sampled_from(sorted(table.items())))
        entry = [*alpha, *beta, *middle]
        entry[draw(st.integers(0, 2))] = draw(st.integers(0, 3)) + 0.5
        table[(entry[0],), (entry[1],)] = (entry[2],)
    return table


@settings(max_examples=100, deadline=None)
@given(malformed_tables())
def test_cycle_codes_refuse_tables_that_are_not_one_symbol_integers(table):
    with pytest.raises(ValueError, match="recovery table"):
        cycle_code(3, 4, [(0, 1, 2)], table)


def test_wide_rows_verify_in_memory_bounded_by_the_table():
    # A table indexed by symbol values would hold 65,536**2 cells here.
    top = 2**16 - 1
    words = [(0, 1, top), (1, top, 0), (top, 0, 1)]
    table = {((top,), (1,)): (0,), ((0,), (top,)): (1,), ((1,), (0,)): (top,)}
    code = cycle_code(3, top + 1, words, table)
    assert code.codewords.rows.dtype == np.uint16
    tracemalloc.start()
    try:
        res = rs.verify_storage_code(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and peak < 8 << 20


def test_tables_naming_many_wide_symbols_verify_like_the_loop():
    # 6,000 entries name 6,000 symbols, too many for a 256 x 256 table, and
    # a dense table of their ranks would hold 36 million cells.
    base = 2**20
    words = [(base + 3 * i, base + 3 * i + 1, base + 3 * i + 2) for i in range(2000)]
    table = {((w[i - 1],), (w[(i + 1) % 3],)): (w[i],) for w in words for i in range(3)}
    code = cycle_code(3, base + 6000, words, table)
    tracemalloc.start()
    try:
        assert rs.verify_storage_code(code).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    keys = sorted(table)
    for key in (keys[0], keys[1234], keys[-1]):
        for broken in ({**table, key: (base,)}, {k: v for k, v in table.items() if k != key}):
            broken_code = cycle_code(3, base + 6000, words, broken)
            res = rs.verify_storage_code(broken_code)
            assert not res.ok and res == verify_by_loop(broken_code, broken)


def test_codes_over_alphabets_past_uint64_are_verified():
    # Periodic points over q > 2**64 come out as object rows.
    q = 2**70
    G = LabeledDigraph(q, ((0,), (1,)), ((0, 1, (1,)), (1, 0, (0,))))
    S = rs.RecoverableSystem(q, 1, 1, G, dict(rs.verify_recoverable(G, 1, 1).table), "big")
    code = rs.storage_code_for_cycle(S, 4)
    assert code.codewords.rows.dtype == object
    assert rs.verify_storage_code(code) == StorageVerification(True)


def test_perrin_count_at_period_200(binary_system):
    pts = rs.periodic_points(binary_system.presentation, 200)
    assert pts.count == rs.perrin_count(200) and pts.words is None


@pytest.mark.parametrize("block_bytes", [1, 200, 1 << 20])
def test_verify_storage_code_finds_the_first_violation_in_any_block(binary_system, monkeypatch, block_bytes):
    # 12 codewords of 9 symbols: one row per block, two, or all in one.
    monkeypatch.setattr(rs.storage, "_BLOCK_BYTES", block_bytes)
    code = rs.storage_code_for_cycle(binary_system, 9)
    tables = [dict(code.recovery_table)]
    for key, (middle,) in code.recovery_table.items():
        tables.append({**code.recovery_table, key: (1 - middle,)})
        tables.append({k: v for k, v in code.recovery_table.items() if k != key})
    tables.append({k: (1 - m,) for k, (m,) in sorted(code.recovery_table.items())[1:]})
    found = set()
    for table in tables:
        broken = rs.CycleStorageCode(9, 2, code.codewords, table)
        res = rs.verify_storage_code(broken)
        assert res == verify_by_loop(broken, table)
        found.add(res.violation)
    assert len(found) > 3


def test_word_rows_are_sorted_distinct_and_read_only(binary_system):
    pts = rs.periodic_points(binary_system.presentation, 12)
    rows = pts.words.rows
    assert rows.dtype == np.uint8 and not rows.flags.writeable
    assert list(pts.words) == sorted(set(pts.words))
    assert len(pts.words) == len(rows) == pts.count
    code = cycle_code(3, 2, [(0, 1, 1), (1, 1, 0), (0, 1, 1)])
    assert list(code.codewords) == [(0, 1, 1), (1, 1, 0)]
    assert (0, 1, 1) in code.codewords and (1, 1, 1) not in code.codewords
    assert code.codewords & {(0, 1, 1)} == frozenset({(0, 1, 1)})


@pytest.mark.parametrize("name, n", [("binary_system", 38), ("trunc8_system", 11)])
def test_closed_walk_rows_come_out_sorted_and_distinct(request, name, n):
    # `periodic_points` holds these rows in `WordRows` without checking them.
    E = rs.essential_subgraph(request.getfixturevalue(name).presentation)
    rows = rs.graphs._closed_paths(E, n)
    assert rs.graphs._strictly_increasing(rows)
    assert len(rows) == rs.trace_power(rs.adjacency(E), n)
    assert np.array_equal(rs.periodic_points(E, n).words.rows, rows)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_word_rows_sort_unsorted_input_and_keep_sorted_input(dtype):
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 3, size=(400, 6)).astype(dtype)
    raw[1::7] = raw[::7][: len(raw[1::7])]  # repeats, some adjacent
    words = WordRows(raw)
    assert list(words) == sorted(set(map(tuple, raw.tolist())))
    assert words.rows.dtype == dtype and not words.rows.flags.writeable
    again = WordRows(words.rows)
    assert np.array_equal(again.rows, words.rows)
    assert again.rows.dtype == dtype and not again.rows.flags.writeable
    # A sorted input is copied, never frozen in place.
    sorted_rows = words.rows.copy()
    kept = WordRows(sorted_rows)
    assert np.array_equal(kept.rows, sorted_rows) and sorted_rows.flags.writeable
    # Rows that are sorted but repeat, or increase only in a later column
    # after a decrease, are not strictly increasing and still get sorted.
    for rows in ([[0, 1], [0, 1], [1, 0]], [[0, 2], [1, 0], [0, 3]], [[1, 0], [0, 9]]):
        rows = np.array(rows, dtype=dtype)
        assert list(WordRows(rows)) == sorted(set(map(tuple, rows.tolist())))
    assert WordRows(np.empty((2, 0), dtype=dtype)).rows.shape == (1, 0)


def test_cycle_storage_code_names_the_first_bad_word_in_sorted_order():
    with pytest.raises(ValueError, match=r"codeword \(0, 5, 0\) is not a word over \[2\]"):
        cycle_code(3, 2, [(3, 0, 0), (0, 1, 1), (0, 5, 0), (1, 7, 1)])


@pytest.mark.parametrize("q", [300, 2**64, 10**23])
def test_codes_read_from_text_are_verified_at_any_q(q):
    # The text rows are uint8, whatever q is; the table may name larger symbols.
    table = {((2,), (1,)): (0,), ((0,), (2,)): (1,), ((1,), (0,)): (2,), ((q - 1,), (0,)): (1,)}
    code = rs.CycleStorageCode(3, q, ser.codewords_from_text("012\n120\n201\n"), table)
    assert code.codewords.rows.dtype == np.uint8
    assert rs.verify_storage_code(code).ok
    # The code holds a copy of the table: rewriting a middle takes a new code.
    table[(1,), (0,)] = (q - 1,)
    bad = rs.CycleStorageCode(3, q, code.codewords, table)
    assert not rs.verify_storage_code(bad).ok
    assert rs.verify_storage_code(bad) == verify_by_loop(bad, table)


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (lambda: rs.periodic_points(rs.de_bruijn(2, 1), 0), ValueError, "the period must be at least 1"),
        (lambda: rs.storage_code_for_cycle(rs.edge_cover_system(2, "power", k=2), 5), ValueError,
         "cycle codes come from (1, 1)-recoverable systems"),
    ],
)
def test_storage_refuses_bad_input(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_word_rows_repr_and_the_rate_of_an_empty_code():
    assert repr(WordRows(np.array([[1, 0], [0, 1]]))) == "WordRows(2 words of length 2)"
    assert cycle_code(3, 2, []).rate() == -math.inf
