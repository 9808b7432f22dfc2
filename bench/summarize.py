"""Spread of benchmark metrics across runs.

    python3 bench/summarize.py bench/out/*-trace0.json [more files...]

Groups run.py result files by workload and trace mode, and prints as JSON,
for each metric, the number of runs, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between
the quartiles as a share of the median.  Gate outcomes are summed, and the
machine record of the first file is kept.
"""

import json
import statistics
import sys
from collections import defaultdict


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        groups[record["workload"], record["trace"]].append(record)
    out = {"machine": None, "groups": {}}
    for (workload, trace), records in sorted(groups.items()):
        out["machine"] = out["machine"] or records[0]["machine"]
        names = records[0]["metrics"]
        info = [k for k, v in records[0]["info"].items()
                if isinstance(v, (int, float))]
        out["groups"]["%s trace=%d" % (workload, trace)] = {
            "seeds": sorted(r["seed"] for r in records),
            "metrics": {k: dict(spread([r["metrics"][k]["value"]
                                        for r in records]),
                                unit=names[k]["unit"]) for k in names},
            "info": {k: spread([r["info"][k] for r in records
                                if k in r["info"]]) for k in info},
            "correct_runs": sum(r["outputs"]["correct"] for r in records),
            "attempted": sum(r["outputs"]["attempted"] for r in records),
            "failed": sum(r["outputs"]["failed"] for r in records),
            "failed_gates": sorted({g for r in records
                                    for g in r["outputs"]["failed_gates"]}),
            "statistical_rejections": sorted(
                {g for r in records
                 for g in r["outputs"].get("statistical_rejections", [])}),
        }
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
