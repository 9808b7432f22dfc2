"""One cold-process run of a benchmark workload.

    python3 bench/child.py WORKLOAD SEED TRACE MODE

imports capsmooth from this checkout's src/, builds the workload's inputs
(the timed set-up), and with MODE "full" runs the body, its output gates
and their controls.  TRACE 1 records spans around the layer boundaries
during the body.  Prints one JSON object on stdout.  run.py starts it.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    name, seed, trace, mode = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    import capsmooth
    src = (ROOT / "src").resolve()
    if src not in Path(capsmooth.__file__).resolve().parents:
        raise SystemExit("capsmooth was imported from %s, not from %s"
                         % (capsmooth.__file__, src))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_dir = BENCH / "out" / "tmp" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(seed, out_dir)
    setup_s = time.perf_counter() - T_START
    record = {"setup_s": setup_s, "setup_cpu_s": time.process_time()}
    if mode == "full":
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        cpu_start = time.process_time()
        result = workload.body(state)
        wall_s = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
        record["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.active = False
            record["layers"] = tracing.layer_metrics(tracer)
        outputs = result.outputs
        record.update(
            wall_s=wall_s, work=result.work, work_s=result.work_s,
            info=result.info, gates=workload.gates(outputs),
            controls=workloads.run_controls(workload, outputs),
            digest=hashlib.sha256(json.dumps(
                outputs, sort_keys=True).encode()).hexdigest())
    out_dir.rmdir()
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv)
