import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recovsys as rs
from recovsys import serialization as ser
from recovsys.graphs import LabeledDigraph
from recovsys.storage import WordRows

from conftest import chorded_cycle_graph, cycle_code, word_from_int


def test_word_text_round_trip():
    assert ser.word_to_text((0, 10, 35)) == "0az"
    assert ser.text_to_word("0az") == (0, 10, 35)
    with pytest.raises(ValueError):
        ser.text_to_word("0!")


def test_graph_round_trip(tmp_path, trunc8_system):
    path = tmp_path / "graph.json"
    ser.save_graph(trunc8_system.presentation, path)
    assert ser.graph_from_json(path.read_text()) == trunc8_system.presentation


def test_graph_files_list_vertices_in_any_order(trunc8_system):
    G = trunc8_system.presentation
    doc = json.loads(ser.graph_to_json(G))
    random.Random(7).shuffle(doc["vertices"])
    H = ser.graph_from_json(json.dumps(doc))
    assert H == G and H.labels == G.labels and H.words == G.words


@pytest.mark.parametrize("field", ["q", "label_len", "id", "from", "to"])
def test_graph_files_refuse_booleans(field):
    # operator.index reads true as 1 and false as 0; the reader must not.
    doc = {
        "q": 1,
        "label_len": 1,
        "vertices": [{"id": 0, "label": "0"}],
        "edges": [{"from": 0, "to": 0, "label": "0"}],
    }
    assert ser.graph_from_json(json.dumps(doc)) == rs.de_bruijn(1, 1)
    holder = doc if field in doc else doc["vertices"][0] if field == "id" else doc["edges"][0]
    holder[field] = bool(holder[field])
    with pytest.raises(ValueError, match=f"^malformed graph file: {json.dumps(holder[field])} is a boolean"):
        ser.graph_from_json(json.dumps(doc))


def test_recovery_table_round_trip(binary_system):
    text = ser.recovery_table_to_text(binary_system.recovery_table)
    assert "->" in text
    assert ser.recovery_table_from_text(text) == dict(binary_system.recovery_table)


def test_measure_round_trip_is_bit_identical(tmp_path, binary_system):
    M = rs.epsilon_construction(binary_system, 0.286).measure
    path = tmp_path / "measure.txt"
    ser.save_measure(M, path)
    lines = path.read_text().splitlines()
    n = len(M.states)
    assert lines[:4] == [f"q {M.q}", f"emit {M.emit}", f"log_base {M.log_base}", f"states {n}"]
    assert [ser.text_to_word(w) for w in lines[4 : 4 + n]] == list(M.states)
    assert lines[4 + n] == "P" and lines[5 + 2 * n] == "p" and len(lines) == 7 + 2 * n
    P = [[float(x) for x in row.split(",")] for row in lines[5 + n : 5 + 2 * n]]
    p = [float(x) for x in lines[-1].split(",")]
    assert P == M.P.tolist()
    assert p == M.p.tolist()


def per_cell_measure_text(M):
    """`measure_to_text` as one `fmt` call per nonzero cell: the oracle."""
    lines = [f"q {M.q}", f"emit {M.emit}", f"log_base {M.log_base}", f"states {len(M.states)}"]
    lines += [ser.word_to_text(w) for w in M.states]
    lines.append("P")
    lines += [",".join(ser.fmt(x) if x else "0" for x in row) for row in M.P.tolist()]
    lines += ["p", ",".join(ser.fmt(x) if x else "0" for x in M.p.tolist())]
    return "\n".join(lines)


def random_chain():
    """A chain on the 8 binary words of length 3 whose entries all differ."""
    rng = np.random.default_rng(11)
    P = rng.random((8, 8)) + 0.01
    P /= P.sum(axis=1, keepdims=True)
    p = np.full(8, 1 / 8)
    for _ in range(500):
        p = p @ P
    states = tuple(word_from_int(i, 2, 3) for i in range(8))
    return rs.MarkovMeasure(2, states, P, p / p.sum(), 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: rs.epsilon_construction(rs.truncated_debruijn_system(9), 0.1).measure,
        lambda: rs.max_entropy_measure(chorded_cycle_graph(300, 50, 17)),
        random_chain,
    ],
    ids=["epsilon_truncated_q9", "maxent_chorded_cycle300", "random_distinct_entries"],
)
def test_measure_text_equals_the_per_cell_join(make):
    M = make()
    assert ser.measure_to_text(M) == per_cell_measure_text(M)


def test_codewords_round_trip(binary_system):
    code = rs.storage_code_for_cycle(binary_system, 7)
    text = ser.codewords_to_text(code.codewords)
    assert ser.codewords_from_text(text) == code.codewords


def test_system_export(tmp_path, trunc8_system):
    gpath = tmp_path / "g.json"
    tpath = tmp_path / "t.txt"
    ser.save_graph(trunc8_system.presentation, gpath)
    ser.save_recovery_table(trunc8_system.recovery_table, tpath)
    assert ser.graph_from_json(gpath.read_text()) == trunc8_system.presentation
    assert ser.recovery_table_from_text(tpath.read_text()) == dict(
        trunc8_system.recovery_table
    )


@pytest.mark.parametrize("name, n", [("binary_system", 38), ("trunc8_system", 11)])
def test_codewords_text_is_one_sorted_word_per_line(request, name, n):
    code = rs.storage_code_for_cycle(request.getfixturevalue(name), n)
    text = ser.codewords_to_text(code.codewords)
    assert text == "\n".join(ser.word_to_text(w) for w in sorted(code.codewords))
    assert ser.codewords_from_text(text) == code.codewords


def test_codewords_from_text_reads_padded_crlf_lines_and_repeats_once():
    words = ser.codewords_from_text("  120\r\n\r\n012 \r\n\t201\r\n012\r\n")
    assert list(words) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert len(ser.codewords_from_text("\n \n")) == 0


def read_code(reader, text):
    """The dtype, shape and bytes of the rows a code reader gives, or its ValueError message."""
    try:
        rows = reader(text).rows
    except ValueError as exc:
        return str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


@st.composite
def code_texts(draw):
    """Code text as `codewords_to_text` lays it out, or with one change from that."""
    width = draw(st.integers(1, 3))
    lines = draw(st.lists(st.text("019az", min_size=width, max_size=width), max_size=6))
    change = draw(st.sampled_from([None, "odd line", "crlf", "no final newline"]))
    if change == "odd line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text("019az \t!", max_size=4)))
    text = "".join(ln + ("\r\n" if change == "crlf" else "\n") for ln in lines)
    return text[:-1] if change == "no final newline" else text


@settings(max_examples=300, deadline=None)
@given(code_texts())
@example("012\n\n120\n")  # a blank line
@example("120\n012")  # no final newline
@example("012\n0a12")  # no final newline, the text still n + 1 bytes a line
@example("012\r\n120\r\n")  # CRLF lines
@example(" 012\n120 \n")  # leading and trailing spaces
@example("012\n0!2\n")  # a bad digit
@example("012\n01\n")  # ragged lines
@example("0a9\n")  # a single line
@example("")  # empty text
def test_block_reader_agrees_with_the_line_reader(text):
    assert read_code(ser.codewords_from_text, text) == read_code(ser._codewords_from_lines, text)


def test_code_files_as_written_are_read_as_one_block(monkeypatch, binary_system):
    code = rs.storage_code_for_cycle(binary_system, 38)
    text = ser.codewords_to_text(code.codewords) + "\n"

    def line_reader(text):
        raise AssertionError("the line reader read a code file as written")

    monkeypatch.setattr(ser, "_codewords_from_lines", line_reader)
    words = ser.codewords_from_text(text)
    assert words.rows.dtype == np.uint8 and np.array_equal(words.rows, code.codewords.rows)


@pytest.mark.parametrize(
    "text, where",
    [
        ("012\n\n01\n120\n", "line 3 '01': length 2, but line 1 has length 3"),
        ("\n 01 \n10\n012\n", "line 4 '012': length 3, but line 2 has length 2"),
        ("012\n01\n0!2\n", "line 3 '0!2': '0!2' is not a digit-string word"),
        ("012\n0 2\n", "line 2 '0 2': '0 2' is not a digit-string word"),
        ("012\n0é2\n", "line 2 '0é2': '0é2' is not a digit-string word"),
        ("012\n\n!12\n", "line 3 '!12': '!12' is not a digit-string word"),
        ("0\ud800\n", "line 1 '0\\ud800': '0\\ud800' is not a digit-string word"),
    ],
)
def test_codewords_from_text_names_the_bad_line(text, where):
    with pytest.raises(ValueError) as info:
        ser.codewords_from_text(text)
    assert str(info.value) == where


def test_codewords_to_text_needs_symbols_below_36():
    code = cycle_code(3, 40, {(0, 1, 2), (35, 36, 0)})
    with pytest.raises(ValueError, match="text encoding supports alphabets up to size 36"):
        ser.codewords_to_text(code.codewords)
    assert ser.codewords_to_text(cycle_code(3, 36, {(35, 0, 9)}).codewords) == "z09"


@pytest.mark.parametrize("c", [-1, 36])
def test_text_writers_reject_symbols_outside_the_digits(c):
    writes = [
        lambda: ser.word_to_text((c, 0)),
        lambda: ser.recovery_table_to_text({((c,), (0,)): (0,), ((0,), (0,)): (1,)}),
        lambda: ser.recovery_table_to_text({((0,), (0,)): (c,)}),
        lambda: ser.codewords_to_text(WordRows(np.array([(c, 0), (1, 1)], dtype=np.int64))),
    ]
    for write in writes:
        with pytest.raises(ValueError, match="text encoding supports alphabets up to size 36"):
            write()


@pytest.mark.parametrize(
    "table, where",
    [
        (
            {((0,), (1,)): (2,), ((1,), (0, 1)): (2,)},
            "recovery table entry (1,) (0, 1) -> (2,): word lengths differ from (1, 1, 1)",
        ),
        (
            {((0,), (1,)): (2,), ((1,), (0,)): (2,), ((1, 1), (0,)): (2, 0)},
            "recovery table entry (1, 1) (0,) -> (2, 0): word lengths differ from (1, 1, 1)",
        ),
    ],
)
def test_ragged_recovery_table_names_the_first_odd_entry(table, where):
    with pytest.raises(ValueError) as info:
        ser.recovery_table_to_text(table)
    assert str(info.value) == where


# ------------------------------------------------ oracles: the per-item writers


def json_graph_text(G):
    """`graph_to_json` as a document of the expanded edges through `json.dumps`."""
    doc = {
        "q": G.q,
        "label_len": G.label_len,
        "vertices": [{"id": i, "label": ser.word_to_text(w)} for i, w in enumerate(G.labels)],
        "edges": [{"from": u, "to": v, "label": ser.word_to_text(lab)} for u, v, lab in G.edges],
    }
    return json.dumps(doc, indent=1)


def per_line_table_text(table):
    """`recovery_table_to_text` as one line per sorted entry."""
    return "\n".join(
        f"{ser.word_to_text(a)} {ser.word_to_text(b)} -> {ser.word_to_text(w)}"
        for (a, b), w in sorted(table.items())
    )


def chained_system(q):
    """The system `construct recursive --q q` builds."""
    S = rs.edge_cover_system(rs.systems.recursive_seed(q), "square", l=1)
    while S.q < q:
        S = rs.recursive_extend(S)
    return S


@pytest.fixture(scope="module")
def construct_systems():
    """Every system the `construct` benchmark workload writes."""
    systems = {f"truncated_q{q}": rs.truncated_debruijn_system(q) for q in (12, 14, 16, 25, 34, 36)}
    for q, k in ((3, 1), (3, 2), (4, 1), (4, 2)):
        systems[f"marker_q{q}_k{k}"] = rs.marker_system(q, k)
    for t, l in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2)):
        systems[f"square_t{t}_l{l}"] = rs.edge_cover_system(t, "square", l=l)
    for t, k in ((2, 2), (3, 1)):
        systems[f"power_t{t}_k{k}"] = rs.edge_cover_system(t, "power", k=k)
    for q in (12, 16, 20, 24, 27):
        systems[f"recursive_q{q}"] = chained_system(q)
    return systems


def test_graph_json_equals_json_dumps(construct_systems, trunc8_system):
    graphs = {name: S.presentation for name, S in construct_systems.items()}
    graphs["higher_power_3"] = rs.higher_power(trunc8_system.presentation, 3)
    graphs["epsilon_q9"] = rs.epsilon_construction(rs.truncated_debruijn_system(9), 0.1).graph
    graphs["no_vertices"] = LabeledDigraph(3, (), ())
    graphs["no_edges"] = LabeledDigraph(3, ((0, 1), (2, 2)), ())
    assert graphs["higher_power_3"].count.max() > 1
    for name, G in graphs.items():
        assert ser.graph_to_json(G) == json_graph_text(G), name


def test_table_text_equals_the_per_line_writer(construct_systems):
    for name, S in construct_systems.items():
        assert ser.recovery_table_to_text(S.recovery_table) == per_line_table_text(S.recovery_table), name
    table = dict(construct_systems["marker_q4_k1"].recovery_table)
    items = list(table.items())
    random.Random(5).shuffle(items)
    shuffled = dict(items)
    assert list(shuffled) != sorted(shuffled)
    assert ser.recovery_table_to_text(shuffled) == per_line_table_text(table)
    assert ser.recovery_table_to_text({}) == per_line_table_text({}) == ""


@pytest.fixture(scope="module")
def writer_cases(trunc8_system):
    """Per writer: its `save_x`, its `x_to_text`, and what it writes, with the text expected.

    The objects cover rows with count > 1, no vertices, no edges, an empty
    table, and an `EpsilonConstruction`, whose text is its dense measure's.
    """
    built = rs.epsilon_construction(rs.truncated_debruijn_system(4), 0.1)
    graphs = {
        "higher_power_3": rs.higher_power(trunc8_system.presentation, 3),
        "epsilon_q4": built.graph,
        "no_vertices": LabeledDigraph(3, (), ()),
        "no_edges": LabeledDigraph(3, ((0, 1), (2, 2)), ()),
    }
    assert graphs["higher_power_3"].count.max() > 1
    tables = {"truncated_q8": trunc8_system.recovery_table, "empty": {}}
    M, chain = rs.max_entropy_measure(chorded_cycle_graph(40, 9, 3)), random_chain()
    measures = {"epsilon_q4": (built, built.measure), "maxent_chorded_cycle40": (M, M), "random": (chain, chain)}
    cases = [(ser.save_graph, ser.graph_to_json, name, G, json_graph_text(G)) for name, G in graphs.items()]
    cases += [
        (ser.save_recovery_table, ser.recovery_table_to_text, name, table, per_line_table_text(table))
        for name, table in tables.items()
    ]
    cases += [
        (ser.save_measure, ser.measure_to_text, name, M, per_cell_measure_text(dense))
        for name, (M, dense) in measures.items()
    ]
    return cases


@pytest.mark.parametrize("chunk", [1, 2, 3, 20])
def test_saved_files_are_the_text_and_a_newline_in_chunks_of_any_size(tmp_path, monkeypatch, writer_cases, chunk):
    monkeypatch.setattr(ser, "_CHUNK_ITEMS", chunk)
    for save, to_text, name, obj, text in writer_cases:
        path = tmp_path / f"{save.__name__}_{name}"
        save(obj, path)
        assert path.read_bytes() == (text + "\n").encode(), (save.__name__, name)
        assert to_text(obj) == text, (to_text.__name__, name)


def test_a_refused_write_opens_no_file(tmp_path, monkeypatch, binary_system):
    built = rs.epsilon_construction(binary_system, 0.1)
    monkeypatch.setattr(ser, "MEASURE_TEXT_CELLS", len(built.states) ** 2 - 1)
    refused = [
        (ser.save_graph, LabeledDigraph(40, ((36,),), ((0, 0, (36,)),)), "text encoding supports"),
        (ser.save_recovery_table, {((0,), (36,)): (0,)}, "text encoding supports"),
        (ser.save_measure, built, "cells of text, over the cap"),
    ]
    for save, obj, message in refused:
        new, old = tmp_path / f"{save.__name__}.new", tmp_path / f"{save.__name__}.old"
        old.write_text("kept\n")
        for path in (new, old):
            with pytest.raises(ValueError, match=message):
                save(obj, path)
        assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (
            lambda: ser.graph_from_json(
                '{"q": 2, "label_len": 2, "vertices": [{"id": 0, "label": "0"}], "edges": []}'
            ),
            ValueError,
            "label_len field disagrees with the vertex labels",
        ),
    ],
)
def test_serialization_refuses_bad_input(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()
