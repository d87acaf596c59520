"""Spans around calls into `recovsys`, recorded from the benchmark's side.

`Tracer.install` replaces every public function of the `recovsys` modules at
each place it can be looked up from: the module that defines it, every module
that imported it by name, and the `recovsys` namespace.  All sites get the
same wrapper, so calls inside a module (which go through its globals) are
traced too.  `LabeledDigraph.__post_init__` and `MarkovMeasure.__post_init__`
are wrapped on their classes, and `cli.main` gets one span per invocation.
`Tracer.uninstall` puts every original object back.

Spans stay in memory; `metrics` reduces them to per-layer numbers and
`dump` writes them out once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from types import ModuleType

LAYERS = ("graphs", "systems", "measures", "storage", "serialization", "cli")
# Per-symbol codecs cost less per call than a span: their time stays in the
# self time of whichever function called them.
UNWRAPPED = {"fmt", "word_to_text", "text_to_word", "word_to_int", "word_from_int", "log_base"}
CLASS_HOOKS = (("graphs", "LabeledDigraph"), ("measures", "MarkovMeasure"))
ENCODER_SUFFIXES = ("_to_json", "_to_text", "_to_csv")
DECODER_SUFFIXES = ("_from_json", "_from_text")


def _candidates(q, k, l, **_):
    return (q**k) ** (q ** (2 * l))


# Work counters per span name, computed from the call's arguments and result.
COUNTERS = {
    "systems.presentation_from_forbidden": lambda a, kw, r: {
        "vertices": r.n_vertices,
        "edges": len(r.edges),
    },
    "systems.verify_recoverable": lambda a, kw, r: {"pairs": len(r.table)},
    "systems.exhaustive_max_capacity": lambda a, kw, r: {"candidates": _candidates(*a, **kw)},
    "graphs.adjacency": lambda a, kw, r: {"bytes": r.nbytes},
    "graphs.essential_subgraph": lambda a, kw, r: {
        "vertices_in": a[0].n_vertices,
        "vertices_kept": r.n_vertices,
    },
    "graphs.perron_eigenvalue": lambda a, kw, r: {"n_max": len(a[0])},
    "graphs.higher_power": lambda a, kw, r: {"edges": len(r.edges)},
    "graphs.LabeledDigraph": lambda a, kw, r: {"edges": len(a[0].edges)},
    "measures.epsilon_construction": lambda a, kw, r: {
        "states": len(r.measure.states),
        "edges": len(r.graph.edges),
    },
    "measures.window_marginal": lambda a, kw, r: {"windows": len(r)},
    "storage.periodic_points": lambda a, kw, r: {
        "words": 0 if r.words is None else len(r.words)
    },
    "storage.verify_storage_code": lambda a, kw, r: {"codewords": len(a[0].codewords)},
}


def serialization_group(name: str) -> str | None:
    """'write' for encoders and save_*, 'read' for decoders and load_*."""
    func = name.split(".", 1)[1]
    if func.startswith("save_") or func.endswith(ENCODER_SUFFIXES):
        return "write"
    if func.startswith("load_") or func.endswith(DECODER_SUFFIXES):
        return "read"
    return None


def _byte_counter(name: str):
    func = name.split(".", 1)[1]
    if func.endswith(ENCODER_SUFFIXES):
        return lambda a, kw, r: {"bytes": len(r)}
    if func.endswith(DECODER_SUFFIXES):
        return lambda a, kw, r: {"bytes": len(a[0])}
    return None


class Span:
    __slots__ = ("name", "parent", "job", "start", "end", "child", "counts")

    def __init__(self, name: str, parent: int, job: str | None, start: float):
        self.name, self.parent, self.job, self.start = name, parent, job, start
        self.end = start
        self.child = 0.0
        self.counts: dict | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.job, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child += span.end - span.start
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of every layer module of `package`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED
                    and layer != "cli"
                ):
                    name = f"{layer}.{attr}"
                    counter = COUNTERS.get(name) or (
                        _byte_counter(name) if layer == "serialization" else None
                    )
                    wrappers[id(fn)] = self.wrap(name, fn, counter)
        for owner in [package, *modules]:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers:
                    self._patch(owner, attr, wrappers[id(value)])
        for layer, cls_name in CLASS_HOOKS:
            cls = getattr(getattr(package, layer), cls_name)
            hook = self.wrap(f"{layer}.{cls_name}", cls.__post_init__, COUNTERS.get(f"{layer}.{cls_name}"))
            self._patch(cls, "__post_init__", hook)
        self._patch(package.cli, "main", self.wrap("cli", package.cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.self_s
            for key, value in (span.counts or {}).items():
                if key.endswith("_max"):
                    row[key] = max(row.get(key, 0), value)
                else:
                    row[key] = row.get(key, 0) + value
        return out

    def dump(self, path: Path) -> None:
        rows = [
            [s.name, s.parent, s.job, s.start, s.end, s.counts] for s in self.spans
        ]
        doc = {"fields": ["name", "parent", "job", "start", "end", "counts"], "spans": rows}
        Path(path).write_text(json.dumps(doc))
