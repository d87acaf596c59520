"""The four workloads: fixed job lists, each job with an independent check.

A workload function builds its inputs from the seed (this is set-up) and
returns its jobs.  A job's `run` is timed; its `check` runs after the timed
region on what `run` returned and raises `OracleError` when the output is
wrong.  The seed draws only free choices (epsilon from a fixed set, letter
relabellings of input graphs, the chord's position on the cycle); problem
sizes never depend on it.  The job order is fixed: a seeded order moved the
peak memory of the storage workload by 7% through heap fragmentation, which
is spread between seeds that no change to the program causes.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

import oracles as O
from oracles import expect, expect_close

EPSILONS = (0.05, 0.08, 0.1, 0.12, 0.15)
BINARY_FORBIDDEN = ((0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 1, 1))


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    rs: ModuleType  # the recovsys package
    work: Path
    rng: random.Random
    smoke: bool

    def path(self, name: str) -> str:
        return str(self.work / name)

    def perm(self, q: int) -> list[int]:
        letters = list(range(q))
        self.rng.shuffle(letters)
        return letters


class CliError(Exception):
    """A CLI command exited with a non-zero code."""


def cli(rs: ModuleType, *args) -> str:
    """Run one `recovsys` command in this process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rs.cli.main([str(a) for a in args], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise CliError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------- inputs


def truncated_adjacency(q: int) -> np.ndarray:
    """Eq. 11: the order-2 de Bruijn matrix over [t] minus r vertices."""
    t, r = O.truncation(q)
    keep = list(range(t * t - r)) if r < t else [i for i in range(t * t) if i % t != t - 1]
    return np.array([[int(i % t == j // t) for j in keep] for i in keep])


def letters_graph(rs: ModuleType, A: np.ndarray, perm: list[int]):
    """Presentation over len(perm) letters: vertex i is letter perm[i]."""
    edges = [(perm[u], perm[v], (perm[v],)) for u, v in zip(*np.nonzero(A))]
    return rs.LabeledDigraph(len(perm), tuple((a,) for a in range(len(perm))), tuple(sorted(edges)))


def relabel(rs: ModuleType, G, perm: list[int]):
    """The same graph with every letter c renamed perm[c]."""

    def rename(w):
        return tuple(perm[c] for c in w)

    labels = sorted(rename(w) for w in G.labels)
    ids = {w: i for i, w in enumerate(labels)}
    edges = sorted(
        (ids[rename(G.labels[u])], ids[rename(G.labels[v])], rename(lab)) for u, v, lab in G.edges
    )
    return rs.LabeledDigraph(G.q, tuple(labels), tuple(edges))


def chorded_cycle(rs: ModuleType, n: int, length: int, start: int):
    """n-cycle (edges labelled 0) plus one chord start -> start+length (label 1)."""
    L = max(1, (n - 1).bit_length())
    labels = tuple(tuple(int(b) for b in format(i, f"0{L}b")) for i in range(n))
    edges = [(i, (i + 1) % n, (0,)) for i in range(n)] + [(start, (start + length) % n, (1,))]
    return rs.LabeledDigraph(2, labels, tuple(sorted(edges)))


def adjacency_of(G) -> np.ndarray:
    A = np.zeros((G.n_vertices, G.n_vertices), dtype=np.int64)
    for u, v, _ in G.edges:
        A[u, v] += 1
    return A


def periodic_summary(rs: ModuleType, G, n: int) -> tuple[int, int, int | None]:
    """(n, count, number of words) of the period-n points.

    Only counts are kept, so no job's output stays alive to slow the
    garbage collector or raise the peak memory of the jobs after it.
    """
    pts = rs.periodic_points(G, n)
    return n, pts.count, None if pts.words is None else len(pts.words)


def system_from(rs: ModuleType, G, name: str):
    res = rs.verify_recoverable(G, 1, 1)
    return rs.RecoverableSystem(G.q, 1, 1, G, dict(res.table), name)


# ---------------------------------------------------------------- checks


def check_system(q: int, want: Callable[[float], None] | float):
    """Check `construct` output, then its `verify system` table against the file."""

    def check(obs) -> None:
        out, verify_out, table_path, verify_table_path = obs
        cap = float(O.parse_values(out)["capacity"])
        if callable(want):
            want(cap)
        else:
            expect_close(cap, want, f"capacity over {q} letters")
        written = Path(table_path).read_text()
        expect(verify_out.startswith("PASS "), f"verify system: {verify_out!r}")
        expect(
            int(verify_out.split()[1]) == len(written.splitlines()),
            "verify system pair count differs from the written table",
        )
        expect(Path(verify_table_path).read_text() == written, "verified table differs from the written one")

    return check


def check_epsilon(q: int, k: int, l: int, eps: float, h_mu: Callable[[], float]):
    def check(out: str) -> None:
        v = O.parse_values(out)
        expect_close(O.epsilon_rate_cost(float(v["delta"]), q, k), eps, "entropy cost of delta")
        expect_close(float(v["gain"]), eps / (2 * l + k), "gain")
        expect_close(float(v["h_nu"]) - float(v["h_mu"]), eps / (2 * l + k), "h_nu - h_mu")
        expect_close(float(v["h_mu"]), h_mu(), "h_mu")
        expect_close(float(v["max_window_entropy"]), eps, "max window entropy")
        expect(v["epsilon_recoverable"] == "True", "measure is not epsilon-recoverable")

    return check


# ---------------------------------------------------------------- workloads


def construct(ctx: Context) -> list[Job]:
    """CLI constructions, each re-verified from the files it wrote."""
    rs = ctx.rs
    jobs: list[Job] = []

    def add(name: str, args: list, k: int, l: int, check):
        graph, table, vtable = (ctx.path(f"{name}.{ext}") for ext in ("json", "table", "vtable"))

        def run():
            out = cli(rs, "construct", *args, "--out-graph", graph, "--out-table", table)
            verify = cli(rs, "verify", "system", "--graph", graph, "--k", k, "--l", l, "--out-table", vtable)
            return out, verify, table, vtable

        jobs.append(Job(name, run, check))

    smoke = ctx.smoke
    for q in (12, 16) if smoke else (12, 14, 16, 25, 34, 36):
        add(f"truncated_q{q}", ["truncated", "--q", q], 1, 1, check_system(q, O.truncated_capacity(q)))
    for q, k in ((3, 1),) if smoke else ((3, 1), (3, 2), (4, 1), (4, 2)):
        add(f"marker_q{q}_k{k}", ["marker", "--q", q, "--k", k], k, k + 1, check_system(q, O.log_q(2, q) / (k + 2)))
    squares = [(t, 1) for t in ((2,) if smoke else (2, 3, 4, 5))] + [(2, 2)]
    for t, l in squares:
        args = ["edgecover", "--t", t, "--mode", "square", "--l", l]
        add(f"edgecover_square_t{t}_l{l}", args, l, l, check_system(t * t, 0.5))
    for t, k in ((2, 2),) if smoke else ((2, 2), (3, 1)):
        args = ["edgecover", "--t", t, "--mode", "power", "--k", k]
        add(f"edgecover_power_t{t}_k{k}", args, k, 1, check_system(t ** (k + 1), 1 / (k + 1)))
    for q in (12,) if smoke else (12, 16, 20, 24, 27):
        graph = ctx.path(f"recursive_q{q}.json")

        def want(cap: float, q=q, graph=graph) -> None:
            bound = O.chain_bound(q)
            expect(cap >= bound - O.TOL, f"capacity {cap!r} below the loop bound {bound!r}")
            q_file, A = O.read_graph(Path(graph))
            expect(q_file == q, f"written graph has q={q_file}, want {q}")
            expect_close(cap, O.log_q(O.spectral_radius(A), q), "capacity against eigvals")

        add(f"recursive_q{q}", ["recursive", "--q", q], 1, 1, check_system(q, want))

    hi = 30 if smoke else 200

    def check_bounds(out: str) -> None:
        rows = [line.split(",") for line in out.splitlines()]
        expect(rows[0] == ["q", "eq11_bound", "recursive_bound", "upper_bound"], f"header {rows[0]}")
        expect([int(r[0]) for r in rows[1:]] == list(range(2, hi + 1)), "rows are not q = 2..hi")
        for q, eq11, rec, upper in rows[1:]:
            for cell, want in ((eq11, O.truncated_capacity(int(q))), (rec, O.chain_bound(int(q)))):
                expect((cell == "") == (want is None), f"q={q}: cell {cell!r}, want {want!r}")
                if want is not None:
                    expect_close(float(cell), want, f"bound at q={q}")
            expect_close(float(upper), 0.5, f"upper bound at q={q}")

    jobs.append(Job("report_bounds", lambda: cli(rs, "report", "bounds", "--q", f"2..{hi}"), check_bounds))
    return jobs


def measure(ctx: Context) -> list[Job]:
    """Epsilon measures on truncated systems and a max-entropy measure."""
    rs = ctx.rs
    eps = ctx.rng.choice(EPSILONS)
    jobs: list[Job] = []
    for q, out_measure in ((4, False), (9, True)) if ctx.smoke else ((13, False), (9, True)):
        graph = ctx.path(f"truncated_q{q}.json")
        rs.serialization.save_graph(letters_graph(rs, truncated_adjacency(q), ctx.perm(q)), graph)
        args = ["measure", "epsilon", "--q", q, "--graph", graph, "--eps", eps]
        check = check_epsilon(q, 1, 1, eps, lambda q=q: O.truncated_capacity(q))
        if out_measure:
            path = ctx.path(f"epsilon_q{q}.measure")
            args += ["--out-measure", path]
            check = _with_window_check(check, path, q, eps)
        jobs.append(Job(f"epsilon_q{q}", lambda args=args: cli(rs, *args), check))

    n, length = (40, 9) if ctx.smoke else (300, 50)
    G = chorded_cycle(rs, n, length, ctx.rng.randrange(n))
    graph, path = ctx.path("cycle.json"), ctx.path("cycle.measure")
    rs.serialization.save_graph(G, graph)

    def check_maxent(out: str) -> None:
        expect_close(float(O.parse_values(out)["h"]), O.log_q(O.spectral_radius(adjacency_of(G)), 2), "h")
        states, p = O.read_measure(Path(path))
        expect(len(states) == n, f"measure has {len(states)} states, want {n}")
        expect_close(float(p.sum()), 1.0, "stationary mass")

    jobs.append(Job(f"maxent_cycle{n}", lambda: cli(rs, "measure", "maxent", "--graph", graph, "--out", path), check_maxent))
    return jobs


def _with_window_check(check, path: str, q: int, eps: float):
    def both(out: str) -> None:
        check(out)
        states, p = O.read_measure(Path(path))
        entropies = O.window_entropies(states, p, q, 1, 1)
        expect(len(entropies) > 0, "no populated boundary pair")
        worst = max(entropies, key=lambda h: abs(h - eps))
        expect_close(worst, eps, "window entropy")

    return both


def search(ctx: Context) -> list[Job]:
    """Epsilon measures on the exhaustive-search optimum (no input graph)."""
    rs = ctx.rs
    eps = ctx.rng.choice(EPSILONS)
    jobs = []
    for q, k in ((2, 1), (2, 2)) if ctx.smoke else ((3, 1), (2, 2)):
        def run(q=q, k=k) -> str:
            return cli(rs, "measure", "epsilon", "--q", q, "--k", k, "--eps", eps)

        def h_mu(q=q, k=k) -> float:
            return O.log_q(O.best_recovery_radius(q, k, 1), q)

        jobs.append(Job(f"search_q{q}_k{k}", run, check_epsilon(q, k, 1, eps, h_mu)))
    return jobs


def storage(ctx: Context) -> list[Job]:
    """Periodic points and cycle storage codes through the API, plus CLI reads."""
    rs = ctx.rs
    smoke = ctx.smoke
    swap = ctx.perm(2)
    F = rs.ForbiddenSet(2, 1, 1, frozenset(tuple(swap[c] for c in w) for w in BINARY_FORBIDDEN))
    binary = system_from(rs, rs.presentation_from_forbidden(F), "binary_optimum")
    edge4 = system_from(rs, relabel(rs, rs.edge_cover_system(2, "square").presentation, ctx.perm(4)), "edge_cover_q4")
    trunc8 = system_from(rs, letters_graph(rs, truncated_adjacency(8), ctx.perm(8)), "truncated_q8")
    trunc36 = letters_graph(rs, truncated_adjacency(36), ctx.perm(36))
    jobs = []

    top = 12 if smoke else 38

    def periodic_binary():
        return [periodic_summary(rs, binary.presentation, n) for n in range(1, top + 1)]

    def check_binary(points) -> None:
        for n, count, n_words in points:
            expect(count == O.perrin(n), f"period {n}: {count} points, want {O.perrin(n)}")
            expect(n_words in (None, count), f"period {n}: {n_words} words for {count} points")

    jobs.append(Job(f"periodic_binary_n1-{top}", periodic_binary, check_binary))

    codes = ((edge4, 6), (trunc8, 5), (binary, 10)) if smoke else ((edge4, 14), (trunc8, 11), (binary, 38))
    for S, n in codes:
        code_path, table_path = ctx.path(f"{S.provenance}_n{n}.code"), ctx.path(f"{S.provenance}_n{n}.table")

        def run(S=S, n=n, code_path=code_path, table_path=table_path):
            C = rs.storage_code_for_cycle(S, n)
            ok = rs.verify_storage_code(C).ok
            Path(code_path).write_text(rs.serialization.codewords_to_text(C.codewords) + "\n")
            Path(table_path).write_text(rs.serialization.recovery_table_to_text(S.recovery_table) + "\n")
            out = cli(rs, "verify", "storage", "--code", code_path, "--table", table_path, "--q", S.q, "--n", n)
            return len(C.codewords), ok, out

        def check(obs, S=S, n=n) -> None:
            size, ok, out = obs
            want = O.exact_trace_power(adjacency_of(S.presentation), n)
            expect(size == want, f"code size {size}, want {want} periodic points")
            expect(ok, "verify_storage_code rejected the code")
            expect(out.startswith(f"PASS {want} codewords"), f"verify storage: {out!r}")

        jobs.append(Job(f"code_{S.provenance}_n{n}", run, check))

    periods = (5, 20) if smoke else (22, 200)

    def check_trunc36(points) -> None:
        A = adjacency_of(trunc36)
        for n, count, _ in points:
            expect(count == O.exact_trace_power(A, n), f"period {n}: count differs from the exact trace")

    jobs.append(
        Job(
            "periodic_truncated_q36",
            lambda: [periodic_summary(rs, trunc36, n) for n in periods],
            check_trunc36,
        )
    )
    return jobs


WORKLOADS = {"construct": construct, "measure": measure, "search": search, "storage": storage}


def build(workload: str, seed: int, smoke: bool, rs: ModuleType, work: Path) -> list[Job]:
    """Inputs and jobs of one workload; the same seed gives the same of both."""
    return WORKLOADS[workload](Context(rs, work, random.Random(seed), smoke))
