"""Smoke test of the benchmark harness under bench/.

One child process puts bench/ and src/ on sys.path, installs the tracer,
and runs each workload that BENCHMARK.json declares once at seed 1, as
bench/child.py does with tracing on.  A change under src/ that breaks a
name the tracer wraps or a workload calls fails here, and so does one
that records an evaluate_batch span other than once per Monte Carlo
batch (a factory that builds its problem through another traced factory
wraps evaluate_batch twice, and doubles its per-layer time).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the workloads that run Monte Carlo batches, each evaluating its batch
# once
MONTE_CARLO = {"mc-pole-hyperplane", "mc-matrix-tabulated"}

SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/bench", sys.argv[1] + "/src"]
import tracing, workloads

tracer = tracing.Tracer()
tracing.install(tracer)
COUNTED = ("condnum.evaluate_batch", "montecarlo.batch")


def spans():
    ids = list(tracer.name)
    return [ids.count(tracer.names.get(label, -1)) for label in COUNTED]


report = {}
for name in json.loads(sys.argv[2]):
    workload = workloads.WORKLOADS[name]
    out_dir = Path(sys.argv[3]) / name
    out_dir.mkdir()
    state = workload.setup(1, out_dir)
    before = spans()
    tracer.active = True
    outputs = workload.body(state).outputs
    tracer.active = False
    report[name] = {
        "failed_gates": sorted(
            gate for gate, ok in workload.gates(outputs).items()
            if not ok and gate not in workloads.STATISTICAL_GATES),
        "unfired_controls": sorted(
            control for control, fired
            in workloads.run_controls(workload, outputs).items()
            if not fired),
        "missing_layers": sorted(set(tracing.LAYER_UNITS)
                                 - set(tracing.layer_metrics(tracer))),
        "spans": [b - a for a, b in zip(before, spans())],
    }
print(json.dumps(report))
"""


def test_workloads_run_traced(tmp_path):
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), json.dumps(names),
         str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert sorted(report) == sorted(names)
    assert MONTE_CARLO <= set(names)
    for name, found in report.items():
        evaluated, batches = found.pop("spans")
        if name in MONTE_CARLO:
            assert evaluated == batches > 0, (name, evaluated, batches)
        assert found == {"failed_gates": [], "unfired_controls": [],
                         "missing_layers": []}, name
