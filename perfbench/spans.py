"""Spans around the public calls into each ergopt module, recorded from
outside the program.

`Tracer.install()` rebinds every traced function, both in the module
that defines it and in every ergopt module that imported it by name
(`pipeline`, `cli`, `subactions` and `oracle` use `from .x import name`),
so calls between modules and within one module are both seen.
`Tracer.uninstall()` puts the original functions back.

A span is (name, job, parent, start, end, self, counts). Spans nest on
one thread, so a span's self time is its duration minus the durations
of its direct children. Counts (graph sizes, bit lengths) are computed
after the span's clock stops; the time they take is charged to nobody.
Per-element helpers such as `format_fraction` are deliberately not
wrapped: they run millions of times and would swamp the overhead.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def maxbits(values) -> int:
    """Largest numerator or denominator bit length in a vector or matrix."""
    best = 0
    for v in values:
        if isinstance(v, tuple):
            best = max(best, maxbits(v))
        else:
            best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def _refine(args, res):
    return {"nodes": res.n_nodes, "edges": res.n_edges}


def _lift_to(args, res):
    return {"nodes": res[0].n_nodes}


def _separating(args, res):
    sub, cert = res
    return {"passes": cert.passes, "lifted_nodes": len(sub.values),
            "maxbits": maxbits(sub.values)}


# traced function -> counts taken from its arguments and result
TRACED = {
    "cli.main": None,
    "instances.load_instance": None,
    "instances.matrix_csv_text": lambda a, r: {"bytes": len(r.encode("utf-8"))},
    "instances.subaction_csv_text": None,
    "instances.read_subaction_csv": None,
    "symbolic.refine": _refine,
    "symbolic.lift_to": _lift_to,
    "potential.compile_weights": None,
    "potential.reduce_two_sided": None,
    "pipeline.solve_instance": None,
    "tropical.minimizing_value": None,
    "tropical.mane_matrix": lambda a, r: {"entries": len(r) * len(r), "maxbits": maxbits(r)},
    "tropical.critical_structure": lambda a, r: {
        "critical_edges": len(r.critical_edges), "critical_nodes": len(r.critical_nodes),
        "components": len(r.components)},
    "tropical.peierls_matrix": lambda a, r: {"maxbits": maxbits(r)},
    "tropical.calibrated_fixed_point": None,
    "tropical.constraint_polytope": None,
    "tropical.lax_oleinik_step": None,
    "subactions.separating_subaction": _separating,
    "subactions.verify": None,
    "subactions.calibrated_from_boundary": None,
    "subactions.dominant_calibrated": None,
    "oracle.brute_cycles": lambda a, r: {"cycles": len(r)},
    "oracle.path_min_table": lambda a, r: {"rows": len(r)},
    "oracle.barrier_window": None,
    "oracle.holonomic_value_brute": None,
}


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, self.job, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.end = clock()
                if count is not None:
                    span.counts = count(args, result)
                return result
            finally:
                span.end = span.end or clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child += clock() - span.start

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "ergopt" or n.startswith("ergopt.")) and m is not None]
        for qualified, count in TRACED.items():
            mod_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"ergopt.{mod_name}"], fn_name)
            wrapper = self._wrap(qualified, original, count)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()


# spans whose children carry most of their time: their self time gets
# its own `.self_s` name
PARENTS = ("cli.main", "pipeline.solve_instance")


def _self_name(name: str) -> str:
    return f"{name}.self_s" if name in PARENTS else f"{name}_s"


def layer_metrics(spans: list[Span], scale_of_job: dict | None = None) -> dict[str, float]:
    """Per-layer totals over a list of spans: `<name>_s` is self time;
    `cli.main.self_s` and `pipeline.solve_instance.self_s` are the
    parents' self times, and `pipeline.solve_instance_s` is that parent's
    whole span, to be set against the children inside it. Times are
    divided by their job's entry in `scale_of_job`, if given."""
    out: dict[str, float] = {_self_name(name): 0.0 for name in TRACED}
    out["cli.main.calls"] = 0
    out["pipeline.solve_instance_s"] = 0.0
    for key in ("instances.matrix_csv_text.bytes", "symbolic.refine.nodes",
                "symbolic.refine.edges", "symbolic.lift_to.nodes",
                "tropical.mane_matrix.entries", "tropical.critical_structure.critical_edges",
                "tropical.critical_structure.critical_nodes",
                "tropical.critical_structure.components", "tropical.maxbits",
                "subactions.separating_subaction.passes",
                "subactions.separating_subaction.lifted_nodes",
                "subactions.separating_subaction.maxbits",
                "oracle.brute_cycles.cycles", "oracle.path_min_table.rows"):
        out[key] = 0
    for s in spans:
        scale = scale_of_job[s.job] if scale_of_job else 1.0
        out[_self_name(s.name)] += s.self_s / scale
        if s.name == "pipeline.solve_instance":
            out["pipeline.solve_instance_s"] += (s.end - s.start) / scale
        if s.name == "cli.main":
            out["cli.main.calls"] += 1
        for key, value in s.counts.items():
            if key == "maxbits":
                metric = ("tropical.maxbits" if s.name.startswith("tropical.")
                          else f"{s.name}.maxbits")
                out[metric] = max(out[metric], value)
            else:
                out[f"{s.name}.{key}"] += value
    return out
