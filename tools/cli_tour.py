"""Run every capsmooth subcommand, in this process, through
capsmooth.cli.main, on small inputs: once, or once per report format
for each subcommand that takes --format.

    PYTHONPATH=src python tools/cli_tour.py
    PYTHONPATH=src python tools/line_coverage.py cli_tour

The second form traces the tour and lists the lines of src/capsmooth
that no subcommand reaches: what only the tests still run.  The runs
between them cover a sloped --profile (in sample and expect),
hyperplane, union:k, matrix:4, --scale log, CSV and JSON reports of
tail, expect and verify, --workers 2 and a --config file, and an
expect run near beta = n whose draws with C = inf are redrawn, with
its stderr warning.
Each run writes its report to a temporary directory; the tour prints
one line per run with its exit status, and exits 2 if any run did
(invalid arguments), else 0: exit 1, a checked bound that fails, is a
finding of the run, not a fault of the tour.
"""

import json
import os
import sys
import tempfile

from capsmooth import cli

# the profile h = 2 - r / sigma at sigma = 0.5, as r,h rows
PROFILE = "0,2\n0.25,1.5\n0.5,1\n"

# one argument list per run; PROFILE and CONFIG name files that tour
# writes, and each run gets --out in the same directory
RUNS = [
    ["volumes", "--n", "3", "--sigma", "0.25,1.0"],
    ["sample", "--n", "3", "--beta", "1", "--profile", "PROFILE",
     "--center", "coords:1,1,0,0", "--samples", "200", "--seed", "1"],
    ["tail", "--problem", "union:2", "--n", "3", "--center", "random",
     "--samples", "20000", "--scale", "log", "--workers", "2",
     "--format", "json", "--seed", "1"],
    ["tail", "--problem", "hyperplane", "--n", "3", "--beta", "1.5",
     "--samples", "20000", "--seed", "1"],
    ["expect", "--problem", "matrix:4", "--beta", "4", "--profile",
     "PROFILE", "--samples", "20000", "--seed", "1"],
    ["expect", "--problem", "hyperplane", "--n", "3", "--samples", "20000",
     "--format", "json", "--seed", "1"],
    ["expect", "--problem", "hyperplane", "--n", "3", "--beta", "2.99",
     "--samples", "20000", "--seed", "1"],
    ["boost-check", "--n", "3", "--beta", "1", "--rho-steps", "5"],
    ["smoothness", "--n", "3"],
    ["small-calc", "--config", "CONFIG"],
    ["verify", "--seed", "1"],
    ["verify", "--quick", "--format", "json", "--seed", "1"],
]
CONFIG = {"n-max": 1000, "points": 20}


def tour(directory):
    """Run RUNS with their files in directory; returns a list of
    (argv, exit status), one per run."""
    files = {"PROFILE": os.path.join(directory, "profile.csv"),
             "CONFIG": os.path.join(directory, "config.json")}
    with open(files["PROFILE"], "w") as fh:
        fh.write(PROFILE)
    with open(files["CONFIG"], "w") as fh:
        json.dump(CONFIG, fh)
    done = []
    for i, run in enumerate(RUNS):
        argv = [files.get(arg, arg) for arg in run]
        argv += ["--out", os.path.join(directory, "run%d.out" % i)]
        done.append((argv, cli.main(argv)))
    return done


def main():
    with tempfile.TemporaryDirectory() as directory:
        done = tour(directory)
    for run, (_, status) in zip(RUNS, done):
        print("exit %d: capsmooth %s" % (status, " ".join(run)))
    sys.stdout.flush()
    return 2 if any(status == 2 for _, status in done) else 0


if __name__ == "__main__":
    sys.exit(main())
