"""Metric names, units and bounds, and their values from a traced pass.

BENCHMARK.json at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from tracing import LAYERS, serialization_group

# (name, unit, better, bound as a share of the parent's median).  Times are
# seconds at reference host speed (see hostspeed.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# The job of each workload whose wall time the traced run reports.
HEAVIEST = {
    "construct": "marker_q4_k2",
    "measure": "epsilon_q13",
    "search": "search_q3_k1",
    "storage": "code_binary_optimum_n38",
}

_SPAN_STATS = {
    "systems.presentation_from_forbidden": ("self_s", "vertices", "edges"),
    "systems.marker_system": ("self_s",),
    "systems.edge_cover_system": ("self_s",),
    "systems.truncated_debruijn_system": ("self_s",),
    "systems.recursive_extend": ("self_s",),
    "systems.verify_recoverable": ("self_s", "pairs"),
    "systems.exhaustive_max_capacity": ("self_s", "candidates", "candidates_per_s"),
    "graphs.adjacency": ("self_s", "bytes"),
    "graphs.essential_subgraph": ("self_s", "vertices_in", "vertices_kept"),
    "graphs.perron_eigenvalue": ("calls", "self_s", "n_max"),
    "graphs.perron_pair": ("calls", "self_s"),
    "graphs.scc_decompose": ("self_s",),
    "graphs.higher_power": ("self_s", "edges"),
    "graphs.LabeledDigraph": ("self_s", "edges"),
    "graphs.trace_power": ("self_s",),
    "measures.epsilon_construction": ("self_s", "states", "edges"),
    "measures.max_entropy_measure": ("self_s",),
    "measures.MarkovMeasure": ("self_s",),
    "measures.window_conditional_entropy": ("self_s",),
    "measures.higher_block_presentation": ("self_s",),
    "measures.window_marginal": ("self_s", "windows"),
    "storage.periodic_points": ("self_s", "words"),
    "storage.storage_code_for_cycle": ("self_s",),
    "storage.verify_storage_code": ("self_s", "codewords"),
    "serialization.write": ("self_s", "bytes"),
    "serialization.read": ("self_s", "bytes"),
}
_UNITS = {"self_s": "s", "bytes": "B", "candidates_per_s": "1/s"}


# Workloads whose first pass in a run is a warm-up that no metric times.  In
# `construct`, the job that allocates 2 GB took 1.3 to 1.8 times as long in
# the first pass of a run as in the later ones; the other workloads showed
# no slow first pass, and a warm-up would cost them a third of their passes.
WARM_UP = {"construct"}


def job_metric(job: str) -> str:
    return f"jobs.{job}.wall_s"


def _better(stat: str) -> str:
    return "higher" if stat.endswith("_per_s") else "lower"


PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("cli.invocations", "count", "lower")]
    + [
        (f"{span}.{stat}", _UNITS.get(stat, "count"), _better(stat))
        for span, stats in _SPAN_STATS.items()
        for stat in stats
    ]
    + [("process.cpu_s", "s", "lower"), ("process.wall_s", "s", "lower")]
    + [("trace.overhead_frac", "ratio", "lower")]
    + [(job_metric(job), "s", "lower") for job in HEAVIEST.values()]
)
# Taken from the untraced passes of a traced run, not from spans.
RUN_LEVEL = {"process.cpu_s", "process.wall_s", "trace.overhead_frac"} | {job_metric(j) for j in HEAVIEST.values()}


def span_values(rows: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced pass from `Tracer.metrics()` rows."""
    values = {}
    for name, _, _ in PER_LAYER:
        if name in RUN_LEVEL:
            continue
        head, stat = name.rsplit(".", 1)
        if head in LAYERS:
            picked = [r for n, r in rows.items() if n == head or n.startswith(head + ".")]
        elif head.startswith("serialization."):
            group = head.split(".")[1]
            picked = [r for n, r in rows.items() if n.startswith("serialization.") and serialization_group(n) == group]
        else:
            picked = [rows[head]] if head in rows else []
        if stat == "invocations":
            stat = "calls"
        if stat == "candidates_per_s":
            total = sum(r["total_s"] for r in picked)
            values[name] = sum(r["candidates"] for r in picked) / total if total else 0.0
        elif stat == "n_max":
            values[name] = max((r[stat] for r in picked), default=0)
        else:
            values[name] = sum(r.get(stat, 0) for r in picked)
    return values
