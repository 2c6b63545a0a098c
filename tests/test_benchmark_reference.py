"""The benchmark's recipes still give the digests in ``benchmarks/reference.json``,
and ``benchmarks/selftest.py`` passes.

Both run in a subprocess: ``bench_layers`` re-imports ``fsmtrap`` from
``src/`` for every set-up and drops the test process's modules on the way.
The self-test also fails when a call its traced pass wraps
(``tracing.NESTED``) moves out of reach of the wrapper.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import bench_layers as bl
from tracing import NullTracer

reference = json.loads(bl.REFERENCE.read_text())
failures = {}
for workload, (profile, gen_seeds) in bl.WORKLOADS.items():
    _, recipes, designs = bl.setup(profile, gen_seeds, 1)
    done = bl.run_pass(getattr(recipes, workload), designs, NullTracer())
    for (_, gen_seed), reason in bl.check([done], reference[workload]).items():
        failures[f"{workload} seed {gen_seed}"] = reason
print(json.dumps(failures))
"""


def test_benchmark_workloads_match_reference_digests():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "benchmarks"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {}


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert [ln for ln in out.stdout.splitlines() if ln.startswith("selftest ")] == [
        f"selftest {workload}: ok" for workload in ("attack", "defend", "verify")
    ]
