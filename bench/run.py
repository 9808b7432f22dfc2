"""Cold-process benchmark of capsmooth.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --tier1

A run starts one fresh child process (child.py) per iteration of the
workload, as a CLI user does, until about S seconds are spent, then a few
set-up-only children so that set-up time is a median of at least
MIN_SETUPS.  Children use one BLAS/OpenMP thread; the body itself uses at
most two threads.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json.  Their times are process CPU time (user plus system,
all threads), which leaves out time the child spends descheduled on a
shared host; wall times are kept in the record.  With --trace 1 each
iteration is a pair of children on the same seed, one plain and one
traced, and the run reports the per-layer metrics, the tracing overhead
(traced minus plain body time) and whether tracing left the report
bytes and gate outcomes unchanged.

Every child's outputs go through the workload's gates (workloads.py) and
every gate's negative control.  The last line of stdout is the result as
JSON; the full record, with the machine and library versions, is written
to bench/out/.  --tier1 runs the repository's tier-1 test command once and
records its wall time and pass/fail counts as information, not a metric.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a run must end within 180 s; leave room to write the result
RUN_LIMIT_S = 170.0
MIN_SETUPS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "child_thread_env": {var: "1" for var in THREAD_VARS},
    }


def run_child(args, mode, traced, deadline):
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload,
           str(args.seed), "1" if traced else "0", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child timed out: %s" % " ".join(cmd)) from None
    if proc.returncode != 0:
        raise ChildFailed("child exited %d: %s\n%s" % (
            proc.returncode, " ".join(cmd), proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def measure(args, deadline):
    """Full iterations (plain/traced pairs with --trace 1) for about
    args.seconds, then set-up-only children up to MIN_SETUPS set-ups."""
    start = time.monotonic()
    iterations = []
    while True:
        t = time.monotonic()
        step = [run_child(args, "full", False, deadline)]
        if args.trace:
            step.append(run_child(args, "full", True, deadline))
        iterations.append(step)
        took = time.monotonic() - t
        if time.monotonic() - start + took > args.seconds:
            break
    setups = [step[0]["setup_cpu_s"] for step in iterations]
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            setups.append(
                run_child(args, "setup", False, deadline)["setup_cpu_s"])
    return iterations, setups


def check_outputs(iterations):
    """Gate and control outcomes over every child of the run."""
    records = [r for step in iterations for r in step]
    gates = [(g, ok) for r in records for g, ok in r["gates"].items()]
    bad_controls = sorted({c for r in records
                           for c, fired in r["controls"].items()
                           if not fired})
    # with --trace 1, tracing must not change report bytes or gate outcomes
    mismatched = [i for i, step in enumerate(iterations) if len(step) == 2
                  and (step[0]["digest"] != step[1]["digest"]
                       or step[0]["gates"] != step[1]["gates"])]
    # a statistical gate rejects a correct program at its stated rate:
    # report it, but it is not a failed operation
    counted = [(g, ok) for g, ok in gates
               if g not in workloads.STATISTICAL_GATES]
    failed_gates = sorted({g for g, ok in counted if not ok})
    attempted = len(counted) + sum(len(step) == 2 for step in iterations)
    failed = sum(not ok for _, ok in counted) + len(mismatched)
    correct = not bad_controls and failed == 0
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failed_gates": failed_gates,
        "statistical_rejections": sorted({g for g, ok in gates if not ok}
                                         - set(failed_gates)),
        "controls_not_fired": bad_controls,
        "trace_mismatch_iterations": mismatched,
        "controls_fired": sum(fired for r in records
                              for fired in r["controls"].values()),
    }


def end_to_end(workload, iterations, setups):
    runs = [step[0] for step in iterations]
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "setup_s": median(setups),
        "work_per_s": median([r["work"] / r["work_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    info = {
        "iterations": len(runs), "setups": setups,
        "wall_s": median(walls), "wall_s_max": max(walls),
        workload.rate: metrics["work_per_s"],
    }
    efficiency = [r["info"]["parallel_efficiency"] for r in runs
                  if "parallel_efficiency" in r["info"]]
    if efficiency:
        info["parallel_efficiency"] = median(efficiency)
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, info)


def per_layer(iterations):
    traced = [step[1] for step in iterations]
    metrics = {k: {"value": median([r["layers"][k] for r in traced]),
                   "unit": unit}
               for k, unit in tracing.LAYER_UNITS.items()}
    metrics["tracing.overhead_s"] = {
        "value": median([t["wall_s"] - p["wall_s"] for p, t in iterations]),
        "unit": "s"}
    info = {"iterations": len(iterations),
            "plain_wall_s": median([p["wall_s"] for p, _ in iterations]),
            "traced_wall_s": median([t["wall_s"] for t in traced])}
    return metrics, info


def bench(args):
    if not (ROOT / "src" / "capsmooth" / "__init__.py").is_file():
        sys.exit("bench: no capsmooth sources under %s" % (ROOT / "src"))
    deadline = time.monotonic() + RUN_LIMIT_S
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    try:
        iterations, setups = measure(args, deadline)
    except ChildFailed as exc:
        sys.exit("bench: %s" % exc)
    outcome = check_outputs(iterations)
    if args.trace:
        metrics, info = per_layer(iterations)
    else:
        metrics, info = end_to_end(workload, iterations, setups)
    info["failed_frac"] = outcome["failed_frac"]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "metrics": metrics, "info": info,
              "outputs": outcome, "children": iterations}
    path = OUT / ("%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("%s seed %d: %d iterations, gates %d/%d passed, %d controls fired"
          % (args.workload, args.seed, info["iterations"],
             outcome["attempted"] - outcome["failed"], outcome["attempted"],
             outcome["controls_fired"]))
    for key, value in sorted(info.items()):
        print("  %-40s %s" % (key, value))
    for key, m in metrics.items():
        print("  %-40s %.6g %s" % (key, m["value"], m["unit"]))
    if outcome["failed_gates"]:
        print("  failed gates: %s" % ", ".join(outcome["failed_gates"]))
    if outcome["statistical_rejections"]:
        print("  statistical rejections (not failures): %s"
              % ", ".join(outcome["statistical_rejections"]))
    print(json.dumps({k: outcome[k]
                      for k in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))


def tier1():
    """One run of the tier-1 test command; wall time and counts."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + TIER1_COMMAND + [
        "--basetemp", str(OUT / "pytest")]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1]
    record = {
        "tier1": {
            "command": "PYTHONPATH=src python " + " ".join(TIER1_COMMAND),
            "wall_s": wall,
            "counts": {kind: int(n) for n, kind in re.findall(
                r"(\d+) (passed|failed|errors?|skipped)", summary)},
            "summary": summary,
        },
        "machine": machine_record(),
    }
    (OUT / "tier1.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tier1", action="store_true",
                    help="run the tier-1 tests once instead")
    args = ap.parse_args()
    if args.tier1:
        tier1()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
