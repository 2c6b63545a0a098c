"""Spans recorded around calls into fsmtrap's layers.

Every call the benchmark makes into a layer goes through ``Tracer.call``.
In the traced pass, ``nested_spans`` also wraps the public functions one
layer calls in another, at the module attribute where the caller looks them
up, so a layer's self time (span duration minus the time its child spans
cover) can be computed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# (module the caller looks the name up in, attribute, span name, calling
# layer).  A wrapped call is recorded only while the innermost open span
# belongs to the calling layer, so graph's own calls to build_ff_graph (one
# per FF inside zscores) stay unrecorded.
NESTED = (
    ("stg", "batch_step", "batchsim.batch_step", "stg"),
    ("harness", "eval_outputs", "batchsim.eval_outputs", "harness"),
    ("obfuscate", "zscores", "relic.zscores", "obfuscate"),
    ("obfuscate", "synthesize", "synth.synthesize", "obfuscate"),
    # tune_honeypot imports these from fsmtrap.graph when it is called.
    ("graph", "build_ff_graph", "graph.build_ff_graph", "obfuscate"),
    ("graph", "tarjan_scc", "graph.tarjan_scc", "obfuscate"),
)


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _info(name: str, args: tuple, result) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name in ("relic.zscores", "relic.relic_tarjan"):
        n = len(args[0].ffs)
        return {"ff_pairs": n * (n - 1) // 2}
    if name == "synth.synthesize":
        return {"gates_out": len(result[0].gates)}
    if name == "stg.extract_stg":
        return {
            "states": len(result.states),
            "edges": len(result.edges),
            "restarts": len(result.warnings),
        }
    if name == "batchsim.batch_step":
        return {"columns": args[2].shape[1]}
    if name == "batchsim.eval_outputs":
        return {"columns": args[1].shape[1]}
    if name == "obfuscate.tune_honeypot":
        return {"tune_iters": len(result.iterations), "found": int(result.found)}
    return {}


class NullTracer:
    """Calls straight through; used for the untraced passes."""

    op: Optional[int] = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self.op, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        span.info = _info(name, args, result)
        return result

    def wrap(self, name, fn, caller: str):
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].layer == caller:
                return self.call(name, fn, *args, **kwargs)
            return fn(*args, **kwargs)

        return traced


@contextmanager
def nested_spans(tracer: Tracer):
    """Wrap the cross-layer calls in NESTED for the duration of the block."""
    saved = []
    try:
        for module, attr, name, caller in NESTED:
            mod = importlib.import_module(f"fsmtrap.{module}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, caller))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass; every ``_s``/``.s`` is self time."""
    own = self_times(spans)
    calls: dict = {}
    secs: dict = {}
    totals: dict = {}
    for s, t in zip(spans, own):
        for key in (s.layer, s.name):
            calls[key] = calls.get(key, 0) + 1
            secs[key] = secs.get(key, 0.0) + t
        for k, v in s.info.items():
            totals[k] = totals.get(k, 0) + v
    batch_calls = calls.get("batchsim", 0)
    tunes = calls.get("obfuscate.tune_honeypot", 0)
    return {
        "relic.calls": calls.get("relic", 0),
        "relic.s": secs.get("relic", 0.0),
        "relic.ff_pairs": totals.get("ff_pairs", 0),
        "stg.extract_calls": calls.get("stg.extract_stg", 0),
        "stg.extract_s": secs.get("stg.extract_stg", 0.0),
        "stg.equiv_s": secs.get("stg.stg_equivalent", 0.0),
        "stg.states": totals.get("states", 0),
        "stg.edges": totals.get("edges", 0),
        "stg.restarts": totals.get("restarts", 0),
        "batchsim.calls": batch_calls,
        "batchsim.s": secs.get("batchsim", 0.0),
        "batchsim.columns": totals.get("columns", 0),
        "batchsim.columns_per_call": (
            totals.get("columns", 0) / batch_calls if batch_calls else 0.0
        ),
        "obfuscate.s": secs.get("obfuscate", 0.0),
        "obfuscate.tune_iters": totals.get("tune_iters", 0),
        "obfuscate.tune_found_ratio": totals.get("found", 0) / tunes if tunes else 0.0,
        "synth.calls": calls.get("synth", 0),
        "synth.s": secs.get("synth", 0.0),
        "synth.gates_out": totals.get("gates_out", 0),
        "graph.calls": calls.get("graph", 0),
        "graph.s": secs.get("graph", 0.0),
        "topo.calls": calls.get("topo", 0),
        "topo.s": secs.get("topo", 0.0),
        "harness.outputs_match_s": secs.get("harness.outputs_match", 0.0),
        "harness.overhead_s": secs.get("harness.overhead", 0.0),
    }
