"""Command-line front end for constructions, verification, measures, reports.

Exit codes: 0 on success or PASS, 1 on verification FAIL, 2 on usage or
domain errors.  All numeric output is printed with 17 significant digits and
entropy values name their logarithm base, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import measures, serialization, storage, systems
from .graphs import de_bruijn, essential_subgraph
from .serialization import fmt


class _Main(click.Group):
    """The root group: a domain error in any command prints ``error: ...`` and exits 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, KeyError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _parse_file(parse, path):
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@click.group(cls=_Main)
def main() -> None:
    """Recoverable-system constructions, verification, and measures."""


@main.group()
def construct() -> None:
    """Build presentations and recovery tables."""


def _emit_system(S: systems.RecoverableSystem, out_graph, out_table) -> None:
    # Files are written first, so a failed write prints no results.
    if out_graph:
        serialization.save_graph(S.presentation, out_graph)
    if out_table:
        serialization.save_recovery_table(S.recovery_table, out_table)
    click.echo(f"provenance {S.provenance}")
    click.echo(f"capacity {fmt(systems.capacity(S))} (log base {S.q})")
    if out_graph:
        click.echo(f"wrote graph {out_graph}")
    if out_table:
        click.echo(f"wrote recovery table {out_table}")


@construct.command("debruijn")
@click.option("--q", type=int, required=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Graph file.")
def construct_debruijn(q, d, out):
    """De Bruijn graph of order d over [q] (presents the full shift)."""
    G = de_bruijn(q, d)
    if out:
        serialization.save_graph(G, out)
    click.echo(f"vertices {G.n_vertices} edges {G.count.sum()}")
    click.echo(f"capacity {fmt(systems.system_capacity(G))} (log base {q})")
    if out:
        click.echo(f"wrote graph {out}")


@construct.command("truncated")
@click.option("--q", type=int, required=True)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-table", type=click.Path(), default=None)
def construct_truncated(q, out_graph, out_table):
    """(1,1)-recoverable system over q letters by de Bruijn truncation."""
    _emit_system(systems.truncated_debruijn_system(q), out_graph, out_table)


@construct.command("marker")
@click.option("--q", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-table", type=click.Path(), default=None)
def construct_marker(q, k, out_graph, out_table):
    """(k, k+1)-recoverable marker-block system over [q]."""
    _emit_system(systems.marker_system(q, k), out_graph, out_table)


@construct.command("edgecover")
@click.option("--t", type=int, required=True)
@click.option("--mode", type=click.Choice(["square", "power"]), required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--l", type=int, default=1, show_default=True)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-table", type=click.Path(), default=None)
def construct_edgecover(t, mode, k, l, out_graph, out_table):
    """Edge-covering system: (l,l) over t^2 letters or (k,1) over t^(k+1)."""
    _emit_system(systems.edge_cover_system(t, mode, k=k, l=l), out_graph, out_table)


@construct.command("recursive")
@click.option("--q", type=int, required=True, help="Target alphabet size.")
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-table", type=click.Path(), default=None)
def construct_recursive(q, out_graph, out_table):
    """Chain loop extensions from the largest same-parity square below q."""
    seed = systems.recursive_seed(q)
    if seed is None:
        raise ValueError(f"no perfect square of matching parity below q={q}")
    S = systems.edge_cover_system(seed, "square", l=1)
    while S.q < q:
        S = systems.recursive_extend(S)
    _emit_system(S, out_graph, out_table)


@main.group()
def verify() -> None:
    """Check recoverability of systems and repairability of cycle codes."""


@verify.command("system")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--k", type=int, required=True)
@click.option("--l", type=int, required=True)
@click.option("--out-table", type=click.Path(), default=None)
def verify_system(graph_path, k, l, out_table):
    """PASS iff the graph presents a (k, l)-recoverable system."""
    G = _parse_file(serialization.graph_from_json, graph_path)
    res = systems.verify_recoverable(G, k, l)
    if not res.ok:
        a, b, w1, w2 = res.conflict
        click.echo(
            "FAIL boundary "
            f"({serialization.word_to_text(a)}, {serialization.word_to_text(b)}) "
            f"keeps middles {serialization.word_to_text(w1)} and "
            f"{serialization.word_to_text(w2)}"
        )
        sys.exit(1)
    if out_table:
        serialization.save_recovery_table(res.table, out_table)
    click.echo(f"PASS {len(res.table)} boundary pairs")


@verify.command("storage")
@click.option("--code", "code_path", type=click.Path(exists=True), required=True)
@click.option("--table", "table_path", type=click.Path(exists=True), required=True)
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
def verify_storage(code_path, table_path, q, n):
    """PASS iff every codeword symbol is repaired by the shared table."""
    words = _parse_file(serialization.codewords_from_text, code_path)
    table = _parse_file(serialization.recovery_table_from_text, table_path)
    code = storage.CycleStorageCode(n, q, words, table)
    res = storage.verify_storage_code(code)
    if not res.ok:
        w, i = res.violation
        click.echo(f"FAIL codeword {serialization.word_to_text(w)} position {i}")
        sys.exit(1)
    click.echo(f"PASS {len(words)} codewords, rate {fmt(code.rate())} (log base {q})")


@main.group()
def measure() -> None:
    """Max-entropy and entropy-relaxed Markov measures."""


@measure.command("maxent")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None)
def measure_maxent(graph_path, out):
    """Max-entropy measure of the essential part of a presentation."""
    G = essential_subgraph(_parse_file(serialization.graph_from_json, graph_path))
    M = measures.max_entropy_measure(G)
    if out:
        serialization.save_measure(M, out)
    click.echo(f"h {fmt(measures.entropy_rate(M))} (log base {M.log_base})")
    if out:
        click.echo(f"wrote measure {out}")


@measure.command("epsilon")
@click.option("--q", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--l", type=int, default=1, show_default=True)
@click.option("--eps", type=float, required=True)
@click.option(
    "--graph",
    "graph_path",
    type=click.Path(exists=True),
    default=None,
    help="Presentation of the base system; defaults to the max-capacity search.",
)
@click.option("--out-measure", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None)
def measure_epsilon(q, k, l, eps, graph_path, out_measure, out_graph):
    """Entropy-epsilon measure built from a recoverable system."""
    if graph_path:
        G = _parse_file(serialization.graph_from_json, graph_path)
        res = systems.verify_recoverable(G, k, l)
        if not res.ok:
            raise ValueError(f"input graph is not (k={k}, l={l})-recoverable")
        S = systems.RecoverableSystem(q, k, l, G, res.table, f"file:{graph_path}")
    else:
        _, S = systems.exhaustive_max_capacity(q, k, l)
    built = measures.epsilon_construction(S, eps)
    # Built and written before anything is printed: a refused graph writes no
    # file, and a refused or failed write prints no results.
    graph = built.graph if out_graph else None
    if out_measure:
        serialization.save_measure(built, out_measure)
    if out_graph:
        serialization.save_graph(graph, out_graph)
    h_mu = measures.entropy_rate(built.base_measure)
    h_nu = built.entropy_rate()
    report = built.window_conditional_entropy()
    base = built.base_measure.log_base
    click.echo(f"delta {fmt(built.params.delta)}")
    click.echo(f"h_mu {fmt(h_mu)} (log base {base})")
    click.echo(f"h_nu {fmt(h_nu)} (log base {base})")
    click.echo(f"gain {fmt(h_nu - h_mu)} (log base {base})")
    click.echo(f"max_window_entropy {fmt(report.max_entropy)} (log base {q})")
    click.echo(f"epsilon_recoverable {report.within(eps)}")
    if out_measure:
        click.echo(f"wrote measure {out_measure}")
    if out_graph:
        click.echo(f"wrote graph {out_graph}")


@main.group()
def report() -> None:
    """Capacity-bound tables."""


def _parse_q_range(qrange: str) -> tuple[int, int]:
    bad = ValueError(f"bad alphabet range {qrange!r}")
    lo_s, dots, hi_s = qrange.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise bad from None
    if lo > hi or lo < 2:
        raise bad
    return lo, hi


def bounds_rows(lo: int, hi: int) -> list[tuple[int, float | None, float | None, float]]:
    rows = []
    for q in range(lo, hi + 1):
        try:
            eq11 = systems.capacity_formula(q)
        except ValueError:
            eq11 = None
        rec = systems.recursive_chain_bound(q)
        rows.append((q, eq11, rec, 0.5))
    return rows


def bounds_csv(rows) -> str:
    return "".join(_csv_chunks(rows))


def _csv_chunks(rows):
    """The CSV text of `rows`: its header, then one chunk per block of rows."""
    yield "q,eq11_bound,recursive_bound,upper_bound"
    step = serialization._CHUNK_ITEMS
    for s in range(0, len(rows), step):
        yield "".join(
            f"\n{q},{'' if eq11 is None else fmt(eq11)},{'' if rec is None else fmt(rec)},{fmt(upper)}"
            for q, eq11, rec, upper in rows[s : s + step]
        )


@report.command("bounds")
@click.option("--q", "q_spec", type=str, required=True, help="Single q or a..b range.")
@click.option("--out", type=click.Path(), default=None)
def report_bounds(q_spec, out):
    """Lower bounds on (1,1) capacity per alphabet size, against the 1/2 cap."""
    lo, hi = _parse_q_range(q_spec)
    rows = bounds_rows(lo, hi)
    if out:
        serialization._write_chunks(out, _csv_chunks(rows))
        click.echo(f"wrote {out}")
    else:
        click.echo(bounds_csv(rows))


if __name__ == "__main__":
    main()
