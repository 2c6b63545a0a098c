"""Fast self-test of the benchmark: every recipe on the 6/6/1/3 default
profile, traced and untraced.

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names is emitted, that traced and
untraced passes agree on every digest, that each workload's traced run
reaches the layers it should (and no others), and that a perturbed reference
digest counts as a failed operation.  Exits non-zero on the first failed
check.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import bench_layers

DEFAULT_PROFILE = (6, 6, 1, 3)
GEN_SEEDS = (0, 1)
SPEC = json.loads((bench_layers.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, reference):
    return bench_layers.run(
        workload, seed=0, seconds=0, trace=trace, profile=DEFAULT_PROFILE,
        gen_seeds=GEN_SEEDS, reference=reference,
    )


def nested_calls(spans: list) -> Counter:
    """Traced calls per (calling layer, span name), from a run's span record."""
    by_pass: dict = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    out = Counter()
    for pass_spans in by_pass.values():
        for s in pass_spans:
            if s["parent"] is not None:
                out[pass_spans[s["parent"]]["name"].split(".")[0], s["name"]] += 1
    return out


# The NESTED wraps each workload must reach; one that stops catching its
# calls reads 0 here.
EXPECTED_NESTED = {
    "attack": (),
    "defend": (
        ("obfuscate", "relic.zscores"),
        ("obfuscate", "synth.synthesize"),
        ("obfuscate", "graph.build_ff_graph"),
        ("obfuscate", "graph.tarjan_scc"),
        ("harness", "batchsim.eval_outputs"),
    ),
    "verify": (
        ("stg", "batchsim.batch_step"),
        ("harness", "batchsim.eval_outputs"),
    ),
}


def layer_facts(workload: str, m: dict, nested: Counter) -> list:
    """(holds, what) for the layers a workload must and must not reach."""
    facts = [
        (nested[caller, name] > 0, f"{caller} -> {name} is traced")
        for caller, name in EXPECTED_NESTED[workload]
    ]
    designs = len(GEN_SEEDS)
    if workload == "attack":
        return facts + [
            (m["relic.calls"] > 0, "relic.calls > 0"),
            (m["stg.extract_calls"] == 0, "stg.extract_calls == 0"),
            (m["batchsim.calls"] == 0, "batchsim.calls == 0"),
        ]
    if workload == "defend":
        return facts + [
            (m["obfuscate.tune_iters"] > 0, "obfuscate.tune_iters > 0"),
            (m["stg.extract_calls"] == 0, "stg.extract_calls == 0"),
        ]
    return facts + [
        (m["batchsim.columns"] > 0, "batchsim.columns > 0"),
        (m["stg.extract_calls"] == 3 * designs, "three extractions per design"),
        (m["relic.calls"] == 0, "relic.calls == 0"),
    ]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    sys.path.insert(0, str(bench_layers.SRC))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in bench_layers.WORKLOADS:
        # The first run has no reference, so every design fails; its digests
        # become the reference for the runs that follow.
        _, rec = _run(workload, 0, {})
        reference = rec["digests"]
        _expect(len(reference) == 2, f"{workload}: a recipe raised: {rec['failures']}")

        result, _ = _run(workload, 0, reference)
        _expect(result["correct"] and result["failed"] == 0, f"{workload}: untraced run failed")
        _expect(set(result["metrics"]) == end_to_end, f"{workload}: end-to-end metrics")

        result, rec = _run(workload, 1, reference)
        _expect(result["correct"], f"{workload}: traced digests differ: {rec['failures']}")
        _expect(set(result["metrics"]) == per_layer, f"{workload}: per-layer metrics")
        values = {k: m["value"] for k, m in result["metrics"].items()}
        for holds, what in layer_facts(workload, values, nested_calls(rec["spans"])):
            _expect(holds, f"{workload}: {what}")

        seed, digest = next(iter(reference.items()))
        perturbed = dict(reference, **{seed: dict(digest, perturbed=True)})
        result, rec = _run(workload, 0, perturbed)
        # One failed operation per pass: the perturbed design, every round.
        _expect(
            not result["correct"] and result["failed"] == rec["passes"],
            f"{workload}: a perturbed digest was not counted as a failure",
        )
        print(f"selftest {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
