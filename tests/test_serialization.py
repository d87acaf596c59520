import numpy as np
import pytest

import recovsys as rs
from recovsys import serialization as ser
from recovsys.graphs import word_from_int

from conftest import chorded_cycle_graph, cycle_code


def test_word_text_round_trip():
    assert ser.word_to_text((0, 10, 35)) == "0az"
    assert ser.text_to_word("0az") == (0, 10, 35)
    with pytest.raises(ValueError):
        ser.text_to_word("0!")


def test_graph_round_trip(tmp_path, trunc8_system):
    path = tmp_path / "graph.json"
    ser.save_graph(trunc8_system.presentation, path)
    assert ser.graph_from_json(path.read_text()) == trunc8_system.presentation


def test_matrix_csv(tmp_path):
    A = rs.truncated_matrix(6)
    path = tmp_path / "m.csv"
    ser.save_matrix_csv(A, path)
    rows = [
        [int(x) for x in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    assert np.array_equal(np.array(rows), A)


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
