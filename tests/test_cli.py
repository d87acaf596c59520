import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from click.testing import CliRunner

import recovsys as rs
from recovsys import serialization as ser
from recovsys.cli import main
from recovsys.graphs import LabeledDigraph


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_construct_truncated_prints_capacity():
    res = run("construct", "truncated", "--q", "8")
    assert res.exit_code == 0
    assert "capacity 0.48332810449216423 (log base 8)" in res.output


def test_construct_rejects_degenerate_alphabet():
    assert run("construct", "truncated", "--q", "1").exit_code == 2
    assert run("construct", "truncated", "--q", "11").exit_code == 2


def test_construct_edgecover_square():
    res = run("construct", "edgecover", "--t", "2", "--mode", "square")
    assert res.exit_code == 0
    assert "capacity 0.5 (log base 4)" in res.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "square", "--k", "2"], "square mode takes l, not k (got k=2)"),
        (["--mode", "power", "--k", "2", "--l", "7"], "power mode takes k, not l (got l=7)"),
    ],
)
def test_construct_edgecover_refuses_the_option_its_mode_does_not_use(args, message):
    res = run("construct", "edgecover", "--t", "2", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


def test_construct_debruijn_prints_and_writes_the_graph(tmp_path):
    out = tmp_path / "db.json"
    res = run("construct", "debruijn", "--q", "2", "--d", "2", "--out", str(out))
    assert res.exit_code == 0
    assert res.stdout == f"vertices 4 edges 8\ncapacity 1 (log base 2)\nwrote graph {out}\n"
    assert ser.graph_from_json(out.read_text()) == rs.de_bruijn(2, 2)


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "truncated", "--q", "49", "--out-graph", "{dir}/g.json"],
        ["construct", "truncated", "--q", "8", "--out-table", "{dir}/missing/t.table"],
        ["construct", "debruijn", "--q", "2", "--out", "{dir}/missing/g.json"],
        ["measure", "maxent", "--graph", "{dir}/g8.json", "--out", "{dir}/missing/m.txt"],
        ["measure", "epsilon", "--q", "2", "--eps", "0.1", "--out-graph", "{dir}/missing/e.json"],
    ],
)
def test_a_failed_write_prints_no_results(tmp_path, trunc8_system, args):
    ser.save_graph(trunc8_system.presentation, tmp_path / "g8.json")
    res = run(*(a.format(dir=tmp_path) for a in args))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


def test_construct_marker_and_recursive():
    res = run("construct", "marker", "--q", "3", "--k", "1")
    assert res.exit_code == 0
    res = run("construct", "recursive", "--q", "6")
    assert res.exit_code == 0
    assert "(log base 6)" in res.output


def test_verify_system_exit_codes(tmp_path, trunc8_system):
    gpath = tmp_path / "g.json"
    ser.save_graph(trunc8_system.presentation, gpath)
    res = run("verify", "system", "--graph", str(gpath), "--k", "1", "--l", "1")
    assert res.exit_code == 0
    assert res.output.startswith("PASS")

    full = tmp_path / "full.json"
    ser.save_graph(rs.de_bruijn(2, 2), full)
    res = run("verify", "system", "--graph", str(full), "--k", "1", "--l", "1")
    assert res.exit_code == 1
    assert res.output.startswith("FAIL")

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    res = run("verify", "system", "--graph", str(bad), "--k", "1", "--l", "1")
    assert res.exit_code == 2


def test_verify_system_unwritable_table_is_an_error(tmp_path, trunc8_system):
    gpath = tmp_path / "g.json"
    ser.save_graph(trunc8_system.presentation, gpath)
    table = tmp_path / "missing_dir" / "t.table"
    res = run(
        "verify", "system", "--graph", str(gpath), "--k", "1", "--l", "1",
        "--out-table", str(table),
    )
    assert res.exit_code == 2
    assert "error:" in res.output
    assert "PASS" not in res.output


def test_construct_and_verify_write_the_same_table(tmp_path, trunc8_system):
    g, t1, t2 = (tmp_path / name for name in ("g.json", "t1.table", "t2.table"))
    res = run("construct", "truncated", "--q", "8", "--out-graph", str(g), "--out-table", str(t1))
    assert res.exit_code == 0
    res = run("verify", "system", "--graph", str(g), "--k", "1", "--l", "1", "--out-table", str(t2))
    assert res.exit_code == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert t1.read_text() == ser.recovery_table_to_text(trunc8_system.recovery_table) + "\n"


def test_verify_storage_roundtrip(tmp_path, binary_system):
    code = rs.storage_code_for_cycle(binary_system, 5)
    cpath = tmp_path / "code.txt"
    tpath = tmp_path / "table.txt"
    cpath.write_text(ser.codewords_to_text(code.codewords) + "\n")
    tpath.write_text(ser.recovery_table_to_text(code.recovery_table) + "\n")
    res = run(
        "verify", "storage", "--code", str(cpath), "--table", str(tpath),
        "--q", "2", "--n", "5",
    )
    assert res.exit_code == 0 and res.output.startswith("PASS")

    tpath.write_text("0 0 -> 1\n")
    res = run(
        "verify", "storage", "--code", str(cpath), "--table", str(tpath),
        "--q", "2", "--n", "5",
    )
    assert res.exit_code == 1 and res.output.startswith("FAIL")


def test_verify_storage_rejects_codewords_of_the_wrong_length(tmp_path, binary_system):
    tpath = tmp_path / "table.txt"
    tpath.write_text(ser.recovery_table_to_text(binary_system.recovery_table) + "\n")
    cpath = tmp_path / "code.txt"
    # 00101 is a codeword of the binary optimum at n = 5.
    for word in ("0010111", "0010"):
        cpath.write_text(word + "\n")
        res = run(
            "verify", "storage", "--code", str(cpath), "--table", str(tpath),
            "--q", "2", "--n", "5",
        )
        assert res.exit_code == 2
        assert "error:" in res.output


@pytest.mark.parametrize(
    "code, table, q, n",
    [
        ("01\n10\n", "1 1 -> 0\n0 0 -> 1\n", "2", "2"),
        ("0\n1\n", "0 0 -> 0\n1 1 -> 1\n", "2", "1"),
        ("", "", "2", "-3"),
        ("555\n", "5 5 -> 5\n", "2", "3"),
        ("000\n", "0 0 -> 0\n", "0", "3"),
    ],
)
def test_verify_storage_rejects_codes_that_are_not_cycle_codes_over_q(tmp_path, code, table, q, n):
    # A shared repair rule can hold on codes of length < 3 and on symbols
    # outside [q], so such inputs are rejected before any repair is checked.
    cpath, tpath = tmp_path / "code.txt", tmp_path / "table.txt"
    cpath.write_text(code)
    tpath.write_text(table)
    res = run("verify", "storage", "--code", str(cpath), "--table", str(tpath), "--q", q, "--n", n)
    assert res.exit_code == 2
    assert "PASS" not in res.stdout
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize(
    "code, table, where",
    [
        ("012\n", "2 1 -> 0\n0 2 1\n", "table.txt: line 2 '0 2 1'"),
        ("012\n", "2 1 0 -> 0\n", "table.txt: line 1 '2 1 0 -> 0'"),
        ("012\n", "0 1 -> 0\n0 1 -> 1\n", "table.txt: line 2 '0 1 -> 1': boundary pair given twice"),
        ("012\n", "2 1 -> 0\n\n0 ! -> 1\n", "table.txt: line 3 '0 ! -> 1'"),
        ("012\n\n0!1\n", "2 1 -> 0\n", "code.txt: line 3 '0!1'"),
    ],
)
def test_verify_storage_names_the_malformed_line(tmp_path, code, table, where):
    cpath, tpath = tmp_path / "code.txt", tmp_path / "table.txt"
    cpath.write_text(code)
    tpath.write_text(table)
    res = run("verify", "storage", "--code", str(cpath), "--table", str(tpath), "--q", "3", "--n", "3")
    assert res.exit_code == 2
    assert "PASS" not in res.stdout
    assert res.stderr.startswith("error: ")
    assert f"{tmp_path / where}" in res.stderr


def test_verify_storage_counts_a_repeated_codeword_once(tmp_path):
    cpath, tpath = tmp_path / "code.txt", tmp_path / "table.txt"
    cpath.write_text("012\n120\n012\n201\n")
    tpath.write_text("2 1 -> 0\n0 2 -> 1\n1 0 -> 2\n")
    res = run("verify", "storage", "--code", str(cpath), "--table", str(tpath), "--q", "3", "--n", "3")
    assert res.exit_code == 0
    assert res.stdout.startswith("PASS 3 codewords")


def test_verify_storage_names_the_first_ragged_line(tmp_path):
    cpath, tpath = tmp_path / "code.txt", tmp_path / "table.txt"
    cpath.write_text("012\n\n120\n20\n1\n")
    tpath.write_text("2 1 -> 0\n0 2 -> 1\n1 0 -> 2\n")
    res = run("verify", "storage", "--code", str(cpath), "--table", str(tpath), "--q", "3", "--n", "3")
    assert res.exit_code == 2
    assert "PASS" not in res.stdout
    assert f"{cpath}: line 4 '20': length 2, but line 1 has length 3" in res.stderr


def test_measure_epsilon_reports_delta_and_gain():
    res = run(
        "measure", "epsilon", "--q", "2", "--k", "1", "--l", "1", "--eps", "0.286"
    )
    assert res.exit_code == 0
    lines = dict(
        line.split(" ", 1) for line in res.output.strip().splitlines()
    )
    assert abs(float(lines["delta"]) - 0.05) < 5e-4
    assert abs(float(lines["gain"].split()[0]) - 0.286 / 3) < 1e-9
    assert lines["epsilon_recoverable"] == "True"


def test_measure_epsilon_zero_budget_has_zero_gain():
    res = run("measure", "epsilon", "--q", "2", "--eps", "0")
    assert res.exit_code == 0
    gain = [l for l in res.output.splitlines() if l.startswith("gain")][0]
    assert abs(float(gain.split()[1])) < 1e-12


def test_measure_epsilon_on_the_ternary_search_optimum():
    res = run("measure", "epsilon", "--q", "3", "--eps", "0.1")
    assert res.exit_code == 0
    assert res.output == (
        "delta 0.019555992053003596\n"
        "h_mu 0.43801787948594245 (log base 27)\n"
        "h_nu 0.47135121281927589 (log base 27)\n"
        "gain 0.033333333333333437 (log base 27)\n"
        "max_window_entropy 0.10000000000000006 (log base 3)\n"
        "epsilon_recoverable True\n"
    )


@pytest.mark.parametrize("system", ["search_q3_k1", "truncated_q13"])
def test_measure_epsilon_reports_a_certain_middle_as_zero(tmp_path, system):
    # With no budget every populated pair has one middle; its entropy is +0.
    if system == "search_q3_k1":
        args, base = ["--q", "3"], 3
    else:
        ser.save_graph(rs.truncated_debruijn_system(13).presentation, tmp_path / "g.json")
        args, base = ["--q", "13", "--graph", str(tmp_path / "g.json")], 13
    res = run("measure", "epsilon", *args, "--eps", "0")
    assert res.exit_code == 0
    assert f"max_window_entropy 0 (log base {base})" in res.output.splitlines()


BENCH_EPSILONS = (0.05, 0.08, 0.1, 0.12, 0.15, 0.286)


def decimal_entropy_rate(M):
    """Entropy rate of the dense chain `M`, summed in 40-digit decimals.

    Every float of P and p is read exactly; each distinct value of P gets
    one 40-digit ``x ln x``, and each row adds them with their multiplicities.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        values, inverse = np.unique(M.P, return_inverse=True)
        inverse = inverse.reshape(M.P.shape)
        xlnx = [Decimal(v) * Decimal(v).ln() if v else Decimal(0) for v in values.tolist()]
        total = Decimal(0)
        for pi, row in zip(M.p.tolist(), inverse):
            times = np.bincount(row, minlength=len(values))
            total -= Decimal(pi) * sum(int(times[v]) * xlnx[v] for v in np.flatnonzero(times))
        return total / Decimal(M.log_base).ln()


@pytest.mark.parametrize(
    "system, args",
    [
        ((2, 1, 1), ["--q", "2"]),
        ((3, 1, 1), ["--q", "3"]),
        ((2, 2, 1), ["--q", "2", "--k", "2"]),
        (4, ["--q", "4"]),
        (9, ["--q", "9"]),
    ],
    ids=["search_q2_k1", "search_q3_k1", "search_q2_k2", "truncated_q4", "truncated_q9"],
)
def test_measure_epsilon_h_nu_is_within_8_ulp_of_a_decimal_oracle(tmp_path, system, args):
    if isinstance(system, tuple):
        _, S = rs.exhaustive_max_capacity(*system)
    else:
        S = rs.truncated_debruijn_system(system)
        ser.save_graph(S.presentation, tmp_path / "g.json")
        args = args + ["--graph", str(tmp_path / "g.json")]
    for eps in BENCH_EPSILONS:
        res = run("measure", "epsilon", *args, "--eps", str(eps))
        assert res.exit_code == 0
        h_nu = float(res.output.splitlines()[2].split()[1])
        exact = decimal_entropy_rate(rs.epsilon_construction(S, eps).measure)
        with localcontext() as ctx:
            ctx.prec = 40
            assert abs(Decimal(h_nu) - exact) <= 8 * Decimal(math.ulp(float(exact)))


def test_measure_epsilon_writes_the_dense_measure_text(tmp_path):
    S = rs.truncated_debruijn_system(13)
    ser.save_graph(S.presentation, tmp_path / "g.json")
    out = tmp_path / "nu.txt"
    res = run("measure", "epsilon", "--q", "13", "--graph", str(tmp_path / "g.json"),
              "--eps", "0.12", "--out-measure", str(out))
    assert res.exit_code == 0
    assert res.output.endswith(f"wrote measure {out}\n")
    assert out.read_text() == ser.measure_to_text(rs.epsilon_construction(S, 0.12).measure) + "\n"


def test_measure_epsilon_refuses_a_measure_file_over_the_cap(tmp_path, monkeypatch):
    _, S = rs.exhaustive_max_capacity(2, 1, 1)
    n = len(rs.epsilon_construction(S, 0.1).states)
    out = tmp_path / "nu.txt"
    args = ["measure", "epsilon", "--q", "2", "--eps", "0.1", "--out-measure", str(out)]
    monkeypatch.setattr(ser, "MEASURE_TEXT_CELLS", n * n - 1)
    res = run(*args)
    assert res.exit_code == 2
    assert f"a measure on {n} states is {n * n} cells of text, over the cap of {n * n - 1}" in res.stderr
    assert res.stdout == ""
    assert not out.exists()
    monkeypatch.setattr(ser, "MEASURE_TEXT_CELLS", n * n)
    assert run(*args).exit_code == 0
    assert out.read_text() == ser.measure_to_text(rs.epsilon_construction(S, 0.1).measure) + "\n"


def test_measure_epsilon_refuses_an_epsilon_graph_over_the_cap(tmp_path, monkeypatch):
    S = rs.truncated_debruijn_system(9)
    ser.save_graph(S.presentation, tmp_path / "g.json")
    n = len(rs.epsilon_construction(S, 0.1).states)
    out = tmp_path / "e.json"
    args = ["measure", "epsilon", "--q", "9", "--graph", str(tmp_path / "g.json"), "--eps", "0.1", "--out-graph", str(out)]
    monkeypatch.setattr(ser, "MEASURE_TEXT_CELLS", n * n - 1)
    # Refused before the epsilon graph, whose build starts from a states**2 array.
    monkeypatch.setattr(rs.EpsilonConstruction, "graph", property(lambda self: pytest.fail("graph was built")))
    res = run(*args)
    assert res.exit_code == 2
    assert f"an epsilon graph on {n} states has up to {n * n} edges, over the cap of {n * n - 1}" in res.stderr
    assert res.stdout == ""
    assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(ser, "MEASURE_TEXT_CELLS", n * n)
    assert run(*args).exit_code == 0
    assert ser.graph_from_json(out.read_text()) == rs.epsilon_construction(S, 0.1).graph


def test_measure_epsilon_writes_the_epsilon_graph(tmp_path):
    gpath = tmp_path / "d.json"
    res = run("measure", "epsilon", "--q", "2", "--eps", "0.1", "--out-graph", str(gpath))
    assert res.exit_code == 0
    _, S = rs.exhaustive_max_capacity(2, 1, 1)
    assert ser.graph_from_json(gpath.read_text()) == rs.epsilon_construction(S, 0.1).graph


def test_measure_maxent_on_edge_cover(tmp_path, edge4_system):
    gpath = tmp_path / "g.json"
    ser.save_graph(edge4_system.presentation, gpath)
    res = run("measure", "maxent", "--graph", str(gpath))
    assert res.exit_code == 0
    h = float(res.output.split()[1])
    assert abs(h - 0.5) < 1e-9


def test_measure_maxent_rejects_parallel_edges(tmp_path):
    gpath = tmp_path / "g.json"
    ser.save_graph(LabeledDigraph(2, ((0,),), ((0, 0, (0,)), (0, 0, (1,)))), gpath)
    res = run("measure", "maxent", "--graph", str(gpath))
    assert res.exit_code == 2
    assert "vertex 0 has 2 edges to vertex 0" in res.output
    assert not any(line.startswith("h ") for line in res.output.splitlines())


def test_report_bounds_csv_and_determinism():
    first = run("report", "bounds", "--q", "9..16")
    second = run("report", "bounds", "--q", "9..16")
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    lines = first.output.strip().splitlines()
    assert lines[0] == "q,eq11_bound,recursive_bound,upper_bound"
    assert len(lines) == 9
    row9 = lines[1].split(",")
    assert row9[0] == "9" and float(row9[2]) == 0.5


def test_report_bounds_rejects_bad_range():
    assert run("report", "bounds", "--q", "16..9").exit_code == 2


@pytest.mark.parametrize("ids", [(0, 0), (0, 2)])
def test_graph_files_need_vertex_ids_0_to_n_minus_1(tmp_path, ids):
    doc = {
        "q": 2,
        "label_len": 1,
        "vertices": [{"id": i, "label": str(j)} for j, i in enumerate(ids)],
        "edges": [{"from": 0, "to": 0, "label": "0"}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    res = run("measure", "maxent", "--graph", str(path))
    assert res.exit_code == 2
    assert "vertex ids must be 0..n-1, each exactly once" in res.output


MALFORMED_GRAPHS = {
    "float endpoints": {
        "q": 2,
        "label_len": 1,
        "vertices": [{"id": 0, "label": "0"}, {"id": 1, "label": "1"}],
        "edges": [{"from": 0, "to": 1.9, "label": "1"}, {"from": 1.5, "to": 0, "label": "0"}],
    },
    "not an object": [],
    "numeric label": {"q": 2, "label_len": 1, "vertices": [{"id": 0, "label": 5}], "edges": []},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_files_are_usage_errors(tmp_path, name):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(MALFORMED_GRAPHS[name]))
    for args in (("verify", "system", "--k", "1", "--l", "1"), ("measure", "maxent")):
        res = run(*args, "--graph", str(path))
        assert res.exit_code == 2
        assert "malformed graph file" in res.output
        assert "PASS" not in res.output


BROKEN_GRAPH_FILES = {
    "no edges field": ('{"q": 2, "vertices": []}', "malformed graph file: missing field 'edges'"),
    "not JSON": ("not json", "Expecting value: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_GRAPH_FILES))
@pytest.mark.parametrize(
    "args",
    [
        ("verify", "system", "--k", "1", "--l", "1"),
        ("measure", "maxent"),
        ("measure", "epsilon", "--q", "2", "--eps", "0.1"),
    ],
    ids=["verify system", "measure maxent", "measure epsilon"],
)
def test_broken_graph_files_name_the_file_and_the_field(tmp_path, args, name):
    text, message = BROKEN_GRAPH_FILES[name]
    path = tmp_path / "g.json"
    path.write_text(text)
    res = run(*args, "--graph", str(path))
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}: {message}\n"
    assert res.stdout == ""


def test_measure_epsilon_rejects_nan():
    res = run("measure", "epsilon", "--q", "2", "--eps", "nan")
    assert res.exit_code == 2
    assert "epsilon must lie in" in res.output


def test_measure_epsilon_refuses_an_oversized_search_by_its_size():
    res = run("measure", "epsilon", "--q", "6", "--l", "4", "--eps", "0.1")
    assert res.exit_code == 2
    assert res.stderr == "error: search space of 6**1679616 recovery functions exceeds the cap of 10000000\n"
    assert res.stdout == ""


def graph_doc(vertex_labels, edge_labels, q=2):
    return {
        "q": q,
        "label_len": len(vertex_labels[0]),
        "vertices": [{"id": i, "label": w} for i, w in enumerate(vertex_labels)],
        "edges": [{"from": 0, "to": 0, "label": w} for w in edge_labels],
    }


FAULTY_LABELS = {
    "bad digit": (graph_doc(["!"], ["0"]), "'!' is not a digit-string word"),
    "symbol past q": (graph_doc(["0"], ["z"]), "edge label (35,) is not a nonempty word over [2]"),
    "ragged vertex labels": (graph_doc(["0", "12"], ["0"]), "vertex labels must have equal length"),
    "ragged edge labels": (graph_doc(["0"], ["1", "01"]), "edge labels must have equal length"),
}


@pytest.mark.parametrize("name", sorted(FAULTY_LABELS))
def test_graph_files_with_faulty_labels_name_the_file_and_the_fault(tmp_path, name):
    doc, message = FAULTY_LABELS[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    res = run("verify", "system", "--graph", str(path), "--k", "1", "--l", "1")
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}: {message}\n"
    assert res.stdout == ""
