"""Layer benchmark for fsmtrap: the attack, defend and verify workloads.

    python3 benchmarks/bench_layers.py --workload attack --seed 1 --seconds 40 --trace 0

One operation takes one generated design through its workload's recipe (see
``recipes.py``).  Every run takes the same ``gen_benchmark`` designs, whose
output digests are recorded in ``reference.json``; ``--seed`` sets the order
of the designs within each round.  An operation fails if it raises, if a
preservation check returns False, or if its digest differs from the
reference.  Rounds over the designs repeat until at least three have run and
the next one is not expected to end within ``--seconds`` of measuring;
``wall_s`` sums each design's median time over the rounds.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
makes rounds of an untraced pass and a traced pass, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the JSON result; the full record (environment, digests, spans) is
written to ``benchmarks/out/``.  ``--record`` rewrites the workload's
reference digests.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS/OpenMP thread, so the run stays serial.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer, layer_metrics, nested_spans, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# An untraced run sets up this many times; the median is setup_s.  The count
# is fixed, not timed, so every run starts measuring from the same heap.
SETUP_REPEATS = 5

# An untraced run makes at least this many rounds over its designs, so every
# design's time is a median of at least three samples.
MIN_ROUNDS = 3

# name -> (states, data_width, data pairs, inputs), gen_benchmark seeds.
# Every run takes the same designs, whose output digests are in
# reference.json; --seed sets only their order within each round.  One round
# takes 5-11 s at these sizes, so three fit in a run.
WORKLOADS = {
    # The attacker's sweep: all-pairs cone similarity over 592 FFs is ~97 %
    # of the time; stg and batchsim do no work.
    "attack": ((128, 32, 8, 8), (0, 1)),
    # relic again, but over many slightly different netlists and replicated
    # deep cones (one per tuning iteration) instead of one wide netlist.
    "defend": ((48, 12, 3, 6), (0,)),
    # The behaviour-preservation proof: exhaustive STG extraction over 256
    # (512 after the rewrite) input vectors per state; relic does no work.
    "verify": ((64, 4, 1, 8), (0,)),
}


def _import_fresh():
    """Import fsmtrap (and the recipes bound to it) as a first import would."""
    for name in list(sys.modules):
        if name == "recipes" or name == "fsmtrap" or name.startswith("fsmtrap."):
            del sys.modules[name]
    recipes = importlib.import_module("recipes")
    fsmtrap = sys.modules["fsmtrap"]
    if not Path(fsmtrap.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fsmtrap imported from {fsmtrap.__file__}, not {SRC}")
    return recipes


def setup(profile, gen_seeds, repeats: int):
    """Import fsmtrap and generate the designs, ``repeats`` times.

    Returns the median set-up time, the recipes module and the designs of
    the last set-up.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        recipes = _import_fresh()
        from fsmtrap.harness import BenchmarkSpec, gen_benchmark

        states, width, pairs, inputs = profile
        designs = [
            (
                s,
                *gen_benchmark(
                    BenchmarkSpec(
                        seed=s,
                        n_states=states,
                        data_width=width,
                        n_data_pairs=pairs,
                        n_inputs=inputs,
                    )
                ),
            )
            for s in gen_seeds
        ]
        times.append(time.perf_counter() - t0)
    # The earlier set-ups' modules and designs are garbage now; collect them
    # before anything is timed.
    gc.collect()
    return statistics.median(times), recipes, designs


def run_pass(recipe, designs, tr) -> dict:
    """One operation per design, in order; failures are recorded, never raised."""
    op_times, digests, errors = {}, {}, {}
    t0 = time.perf_counter()
    for gen_seed, fsm, dp in designs:
        tr.op = gen_seed
        t = time.perf_counter()
        try:
            # Through JSON, so it compares equal to the recorded reference.
            digests[gen_seed] = json.loads(json.dumps(recipe(tr, fsm, dp)))
        except Exception as e:  # an operation that raises is a failed operation
            errors[gen_seed] = f"{type(e).__name__}: {e}"
        op_times[gen_seed] = time.perf_counter() - t
    return {
        "traced": isinstance(tr, Tracer),
        "wall_s": time.perf_counter() - t0,
        "op_times": op_times,
        "digests": digests,
        "errors": errors,
    }


def measure(recipe, designs, seconds: float, rng, min_rounds: int, traced: bool) -> list:
    """Rounds over the designs, each in a new seeded order, until ``min_rounds``
    have run and the next one is not expected to end within ``seconds``.

    A round is one untraced pass; with ``traced``, a traced pass in the same
    order follows it, so the tracing overhead compares passes made close
    together.
    """
    passes = []
    rounds = 0
    start = time.perf_counter()
    while True:
        order = rng.sample(designs, len(designs))
        passes.append(run_pass(recipe, order, NullTracer()))
        if traced:
            tr = Tracer()
            with nested_spans(tr):
                passes.append(run_pass(recipe, order, tr))
            passes[-1]["spans"] = tr.spans
        rounds += 1
        spent = time.perf_counter() - start
        if rounds >= min_rounds and spent + spent / rounds > seconds:
            return passes


def check(passes, reference: dict) -> dict:
    """Failure reason per (pass, design): raised, or digest not the reference."""
    failures = {}
    for i, p in enumerate(passes):
        for gen_seed, err in p["errors"].items():
            failures[(i, gen_seed)] = err
        for gen_seed, digest in p["digests"].items():
            if digest != reference.get(str(gen_seed)):
                failures[(i, gen_seed)] = "digest differs from the reference"
    return failures


def environment(workload, profile, gen_seeds) -> dict:
    from fsmtrap.batchsim import using_numba

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": workload,
        "profile": "/".join(map(str, profile)) + " (states/data_width/pairs/inputs)",
        "design_seeds": list(gen_seeds),
        "designs": len(gen_seeds),
        "using_numba": using_numba(),
    }


def git_revision() -> str:
    # The ceiling keeps git from finding a repository above this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, profile=None, gen_seeds=None, reference=None):
    """Run one workload; returns (result line, full record)."""
    default_profile, default_seeds = WORKLOADS[workload]
    profile = profile or default_profile
    gen_seeds = gen_seeds or default_seeds
    setup_s, recipes, designs = setup(profile, gen_seeds, 1 if trace else SETUP_REPEATS)
    recipe = getattr(recipes, workload)
    if reference is None:
        reference = json.loads(REFERENCE.read_text())[workload]

    rng = random.Random(seed)
    if trace:
        passes = measure(recipe, designs, seconds, rng, 1, traced=True)
        per_pass = [layer_metrics(p["spans"]) for p in passes if p["traced"]]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(passes[::2], passes[1::2])
        )
        metrics = {k: _metric(v, unit_of(k)) for k, v in values.items()}
    else:
        passes = measure(recipe, designs, seconds, rng, MIN_ROUNDS, traced=False)
        # One pass over the designs, each design timed by its median round.
        wall_s = sum(
            statistics.median(p["op_times"][s] for p in passes) for s in gen_seeds
        )
        op_times = [t for p in passes for t in p["op_times"].values()]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "design_p50_s": _metric(statistics.median(op_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }

    failures = check(passes, reference)
    attempted = sum(len(designs) for _ in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "environment": environment(workload, profile, gen_seeds),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "error_rate": len(failures) / attempted,
        "passes": len(passes),
        "pass_traced": [p["traced"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_times_s": [{str(s): t for s, t in p["op_times"].items()} for p in passes],
        "failures": [
            {"pass": i, "design_seed": s, "reason": r} for (i, s), r in failures.items()
        ],
        "digests": {str(s): d for s, d in passes[0]["digests"].items()},
    }
    if trace:
        record["spans"] = [
            {
                "pass": i,
                "op": s.op,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                **s.info,
            }
            for i, p in enumerate(passes)
            if p["traced"]
            for s in p["spans"]
        ]
    return result, record


def record_reference(workload: str) -> None:
    """Rewrite ``workload``'s reference digests."""
    profile, gen_seeds = WORKLOADS[workload]
    _, recipes, designs = setup(profile, gen_seeds, 1)
    recipe = getattr(recipes, workload)
    out = {}
    for gen_seed, fsm, dp in designs:
        t = time.perf_counter()
        out[str(gen_seed)] = recipe(NullTracer(), fsm, dp)
        print(f"{workload} seed {gen_seed}: {time.perf_counter() - t:.3f} s", file=sys.stderr)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload] = out
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference digests")
    args = ap.parse_args(argv)
    if not (SRC / "fsmtrap").is_dir():
        print(f"error: no fsmtrap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        record_reference(args.workload)
        return 0

    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  profile {record['environment']['profile']}")
    print(
        f"designs {record['environment']['design_seeds']}  passes {record['passes']}"
        f"  operations {result['attempted']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'error_rate':28s} {record['error_rate']:>14.6f} failed/attempted")
    for f in record["failures"]:
        print(f"  FAILED pass {f['pass']} design {f['design_seed']}: {f['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
