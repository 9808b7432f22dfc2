"""Monte Carlo verification of the tail and expectation bounds.

Sampling is organized in fixed-size batches, each driven by its own
stream: stream_rng(seed, index) is SFC64 seeded by
SeedSequence(seed, spawn_key=(index,)), the index-th child of the
seed's sequence, and every random draw of capsmooth comes from such a
stream.  Batches are reduced in index order with integer counts and
exact float sums (_exact_sum within a batch, math.fsum across
batches), so results are bit-identical for a given seed
regardless of how many worker threads execute the batches.

Report bytes follow one rule as well: csv_text writes every CSV that
capsmooth prints, with floats as %.17g (nan for NaN) and booleans as
true/false.

Batch memory follows a fixed heap policy.  A batch row of float64 is
BATCH_SIZE * 8 = 128 KiB, exactly glibc's default mmap threshold, and
glibc's dynamic threshold then gives the heap top back to the kernel
whenever more than about twice the largest freed block is free, so
every batch faulted its numpy temporaries in again.  Before its first
batch, _run_batches sets glibc's mmap threshold to 32 batch rows
(4 MiB) and its trim threshold to 128 rows (16 MiB) with mallopt, so
the freed rows of one batch serve the next.  The setting is
process-wide, and a no-op where the C library has no mallopt.

Tail estimates screen rows before evaluating them: only the rows that
ConicProblem.may_reach keeps for t_lo, the lowest threshold on the C
scale (exp of it on the log scale), reach evaluate_batch.  condnum
owns the cut and the argument that every other row's computed C lies
below t_lo, so every other row counts as below every threshold and the
counts are exactly those of evaluating every row.  On the benchmark's
matrix:3 law about 10 of 250,000 rows reach evaluate_batch.
TailReport.n_evaluated counts them, and n_infinite those with
C = inf, in the JSON report only.  The thresholds are then counted
only on the evaluated rows at or above the lowest one, t_grid[0] (the
grid is finite), which no other row can reach: a pole law's batch
keeps about 0.5% of its rows there on the benchmark's hyperplane grid.
Expectation estimates evaluate every row.

Empirical survival probabilities carry two-sided 95% Wilson score
intervals; an experiment flags a violation only when the Wilson lower
end exceeds the theorem bound at a covered threshold, so a flagged
violation is statistically meaningful rather than sampling noise.
"""

import ctypes
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np
# every run draws through stream_rng: numpy loads its random module
# lazily, and importing it with the package keeps that one-time import
# (about 12 ms of CPU) out of the first batch and its timings
import numpy.random  # noqa: F401

from . import bounds
from ._args import integer, real
from .condnum import ConicProblem
from .distributions import AdversarialLaw
from .geometry import proj_distance

__all__ = [
    "BATCH_SIZE",
    "CENTER_STREAM",
    "WILSON_Z",
    "stream_rng",
    "csv_text",
    "wilson_interval",
    "ExperimentConfig",
    "threshold_grid",
    "TailRow",
    "TailReport",
    "ExpectationReport",
    "estimate_tail",
    "estimate_expectation",
    "ks_radial_test",
]

BATCH_SIZE = 16384
# stream index reserved for drawing a random cap center; batches count
# up from zero, so they never collide with it
CENTER_STREAM = 2 ** 63
# two-sided 95% normal quantile
WILSON_Z = 1.959963984540054
# one-sample Kolmogorov-Smirnov threshold at significance 0.01
KS_COEFF = 1.63
# glibc's mallopt parameters (malloc.h) and the heap policy's values,
# in bytes of batch rows of float64
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * BATCH_SIZE * 8
_TRIM_THRESHOLD = 128 * BATCH_SIZE * 8


def wilson_interval(successes, trials):
    """Two-sided Wilson score interval for a binomial proportion of
    integer counts, 0 <= successes <= trials and trials >= 1."""
    trials = integer(trials, "trials")
    successes = integer(successes, "successes", least=0, below=trials + 1)
    nt = float(trials)
    p = successes / nt
    z = WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / nt
    center = (p + z2 / (2.0 * nt)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / nt
                                   + z2 / (4.0 * nt * nt))
    # at the extremes the exact endpoints are 0 and 1; separate
    # roundings of center and half can land one ulp inside
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class ExperimentConfig:
    """What to run: a problem, a law, sample count, thresholds, seed.

    scale "linear" tests P(C >= t); scale "log" tests P(ln C > t).
    None picks "linear" when the uniform theorems cover the law
    (bounds.uniform_covers), else "log".
    t_grid may be None for expectation experiments.  samples and
    workers are integers of at least 1 and seed an integer in
    [0, 2^64); an integral float such as 3.0 passes, while NaN, inf
    and a fraction raise ValueError, never a truncation.
    """
    problem: ConicProblem
    law: AdversarialLaw
    samples: int
    seed: int
    t_grid: Optional[Sequence[float]] = None
    workers: int = 1
    scale: Optional[str] = None

    def __post_init__(self):
        if self.problem.n != self.law.cap.n:
            raise ValueError("problem dimension %d does not match law "
                             "dimension %d" % (self.problem.n,
                                               self.law.cap.n))
        self.samples = integer(self.samples, "samples")
        self.seed = _check_seed(self.seed)
        self.workers = integer(self.workers, "workers")
        if self.scale is None:
            self.scale = ("linear" if bounds.uniform_covers(
                self.law.beta, self.law.H) else "log")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if self.t_grid is not None:
            grid = [real(t, "t_grid") for t in self.t_grid]
            if len(grid) == 0:
                raise ValueError("t_grid must not be empty")
            # NaN passes the increasing test below, as every comparison
            # with it is false
            if not all(math.isfinite(t) for t in grid):
                raise ValueError("t_grid must hold finite thresholds")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("t_grid must be strictly increasing")
            self.t_grid = grid

    def echo(self):
        """Scalars identifying the run; excludes execution details
        (worker count, timing) so serialized reports are reproducible."""
        law = self.law
        return {
            "problem": self.problem.name,
            "n": self.problem.n,
            "degree": self.problem.degree,
            "sigma": law.cap.sigma,
            "beta": law.beta,
            "H": law.H,
            "profile": law.profile.kind,
            "center": [float(c) for c in law.cap.center],
            "samples": self.samples,
            "seed": self.seed,
            "scale": self.scale,
        }


def _check_seed(seed):
    """The one seed rule: seed as an int in [0, 2^64)."""
    return integer(seed, "seed", least=0, below=2 ** 64)


def stream_rng(seed, index):
    """Generator of stream `index` under a 64-bit seed: SFC64 seeded by
    SeedSequence(seed, spawn_key=(index,)), which hashes the seed and
    the index into the generator's state, so distinct indices give
    independent streams.  Batch i of an experiment draws from stream i.
    SFC64 draws gaussians about a quarter faster than Philox.  seed is
    an integer in [0, 2^64); anything else raises ValueError."""
    seq = np.random.SeedSequence(_check_seed(seed), spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(seq))


def _exact_sum(x):
    """The correctly rounded sum of a float64 array: math.fsum's value,
    without a Python float per element.

    Each value is m 2^(e-53) with m a 53-bit integer (np.frexp); m is
    cut into a high part of at most 27 bits and a low part of 26, and
    np.bincount adds each part per exponent.  Those are sums of at most
    2^26 integers below 2^27 in magnitude, so every partial sum is an
    integer below 2^53 and exact.  Python ints then combine the
    exponents exactly, and one int division rounds the total once
    (CPython's int / int is correctly rounded).  Non-finite values, and
    empty or longer arrays, go to math.fsum; where fsum raises on an
    intermediate overflow this returns the sum if it is finite.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not 0 < len(x) <= 2 ** 26 or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    mant, expo = np.frexp(x)
    mant *= 2.0 ** 53
    high = np.trunc(mant * 2.0 ** -26)
    low = mant - high * 2.0 ** 26
    e_min = int(expo.min())
    expo -= e_min
    highs = np.bincount(expo, weights=high).tolist()
    lows = np.bincount(expo, weights=low).tolist()
    total = 0
    for h, lo in zip(reversed(highs), reversed(lows)):
        total = 2 * total + (int(h) << 26) + int(lo)
    shift = e_min - 53
    if shift >= 0:
        return float(total << shift)
    return total / (1 << -shift)


def _batch_sizes(total):
    full, rest = divmod(total, BATCH_SIZE)
    sizes = [BATCH_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _pin_heap():
    """Fix glibc's mmap and trim thresholds (see the module docstring).

    Both are set: setting the trim threshold alone also turns off the
    dynamic mmap threshold, leaving every 128 KiB row mmapped.  The
    call is idempotent and affects the whole process; off Linux, or
    where the C library has no mallopt, it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _run_batches(job, total, workers):
    """Run job(index, count) over all batches; results in index order.

    Pins the heap policy first, so the memory one batch frees serves
    the next instead of going back to the kernel; this holds for the
    rest of the process, and is a no-op off glibc.
    """
    sizes = _batch_sizes(total)
    _pin_heap()
    if workers == 1:
        return [job(i, c) for i, c in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(len(sizes)), sizes))


def _csv_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return "nan" if x != x else "%.17g" % x
    return str(x)


def csv_text(columns, rows):
    """CSV with a header of column names and one line per row of values;
    floats print as %.17g (nan for NaN), booleans as true/false."""
    lines = [",".join(columns)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class TailRow:
    t: float
    count: int
    survival: float
    wilson_lower: float
    wilson_upper: float
    bound: float
    bound_applicable: bool
    violation: bool


_TAIL_COLUMNS = tuple(f.name for f in fields(TailRow))


def _json_value(x):
    # NaN is not JSON
    return None if x != x else x


@dataclass
class TailReport:
    config: dict
    rows: list
    # rows that reached evaluate_batch, and those of them with C = inf
    # (on Sigma to machine precision), which count as exceeding every
    # threshold: the same at any worker count, so the JSON report holds
    # them, but not the CSV nor equality
    n_evaluated: int = field(default=0, compare=False)
    n_infinite: int = field(default=0, compare=False)

    @property
    def has_violation(self):
        return any(r.violation for r in self.rows)

    def to_csv(self):
        return csv_text(_TAIL_COLUMNS, map(astuple, self.rows))

    def to_json_dict(self):
        return {
            "schema": "capsmooth-report-v1",
            "kind": "tail",
            "config": self.config,
            "n_evaluated": self.n_evaluated,
            "n_infinite": self.n_infinite,
            "rows": [{k: _json_value(v) for k, v in asdict(r).items()}
                     for r in self.rows],
        }


@dataclass
class ExpectationReport:
    config: dict
    mean_ln_c: float
    stderr: float
    n_samples: int
    n_effective: int
    n_redrawn: int
    bound: float
    margin: float

    COLUMNS = ("n_samples", "n_effective", "n_redrawn", "mean_ln_c",
               "stderr", "bound", "margin")

    @property
    def has_violation(self):
        # a NaN margin is no evidence that the bound holds
        return not self.margin >= 0.0

    def to_csv(self):
        return csv_text(self.COLUMNS,
                        [[getattr(self, c) for c in self.COLUMNS]])

    def to_json_dict(self):
        doc = {c: _json_value(getattr(self, c)) for c in self.COLUMNS}
        doc.update(schema="capsmooth-report-v1", kind="expectation",
                   config=self.config)
        return doc


def _tail_bound_column(config, t_grid):
    """Theorem bound and applicability per threshold, or nan when the
    threshold is below the theorem's range (or no theorem applies)."""
    law = config.law
    prob = config.problem
    t_min, bound = bounds.tail_theorem(prob.n, prob.degree, law.cap.sigma,
                                       law.beta, law.H, config.scale)
    return [bound(t) if bound is not None and t >= t_min else math.nan
            for t in t_grid]


def threshold_grid(config, steps, t_min=None, t_max=None):
    """steps thresholds for a tail run of config, on its scale.

    They run from t_min, by default the start of the tail theorem's
    range, to t_max, by default 1e4 t_min on the linear scale and
    t_min + 8 on the log scale: geometrically spaced on the linear
    scale, evenly on the log scale.  Raises ValueError where no tail
    theorem covers the law, where an end is not finite or the ends are
    out of order, where steps is not a positive integer, and where
    every threshold lies below the theorem's range, since no row would
    then be checked against a theorem.
    """
    law, prob = config.law, config.problem
    start, bound = bounds.tail_theorem(prob.n, prob.degree, law.cap.sigma,
                                       law.beta, law.H, config.scale)
    if bound is None:
        raise ValueError("no tail theorem covers this law on the linear "
                         "scale, which needs beta = 0 and a constant "
                         "profile; use --scale log")
    linear = config.scale == "linear"
    lo = start if t_min is None else real(t_min, "t_min")
    if t_max is None:
        hi = 1e4 * lo if linear else lo + 8.0
    else:
        hi = real(t_max, "t_max")
    # first, so that a NaN end reads as not finite, not as out of order
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("t_grid must hold finite thresholds")
    if linear and not 0 < lo < hi:
        raise ValueError("need 0 < t-min < t-max")
    if not linear and not lo < hi:
        raise ValueError("need t-min < t-max")
    steps = integer(steps, "steps", least=0)
    if steps == 0:
        raise ValueError("t_grid must not be empty")
    grid = (np.geomspace if linear else np.linspace)(lo, hi, steps)
    if grid[-1] < start:
        raise ValueError("every threshold lies below t = %.17g, where the "
                         "tail theorem's range starts" % start)
    return grid


def estimate_tail(config):
    """Estimate survival probabilities on the threshold grid and compare
    against the applicable theorem bound.  Returns a TailReport.

    Only the rows that the problem's may_reach keeps for the lowest
    threshold reach evaluate_batch; the counts are those of evaluating
    every row (see the module docstring)."""
    if config.t_grid is None:
        raise ValueError("tail estimation needs a t_grid")
    t_grid = np.asarray(config.t_grid, dtype=float)
    law = config.law
    may_reach = config.problem.may_reach
    batch_eval = config.problem.evaluate_batch
    log_scale = config.scale == "log"
    # the lowest threshold on the C scale; exp may overflow to inf,
    # which is right: every finite C has ln C <= 709.8 < t_grid[0]
    with np.errstate(over="ignore"):
        t_lo = np.exp(t_grid[0]) if log_scale else t_grid[0]

    def job(index, count):
        rng = stream_rng(config.seed, index)
        z = may_reach(law.sample(rng, size=count), t_lo)
        c = batch_eval(z)
        if log_scale:
            with np.errstate(divide="ignore"):
                c = np.log(c)
        # only a row at or above the lowest threshold can reach any:
        # NaN reaches none, and inf (t_grid is finite) stays
        c = c[c >= t_grid[0]]
        return ([len(z), int(np.count_nonzero(c == math.inf))]
                + [int(np.count_nonzero(c >= t)) for t in t_grid])

    per_batch = _run_batches(job, config.samples, config.workers)
    totals = np.sum(np.asarray(per_batch, dtype=np.int64), axis=0)
    n_evaluated, n_infinite, counts = (int(totals[0]), int(totals[1]),
                                       totals[2:])

    bound_col = _tail_bound_column(config, t_grid)
    rows = []
    for t, k, b in zip(t_grid, counts, bound_col):
        lo, hi = wilson_interval(int(k), config.samples)
        applicable = b == b
        rows.append(TailRow(
            t=float(t), count=int(k),
            survival=int(k) / config.samples,
            wilson_lower=lo, wilson_upper=hi,
            bound=b, bound_applicable=applicable,
            violation=bool(applicable and lo > b),
        ))
    return TailReport(config=config.echo(), rows=rows,
                      n_evaluated=n_evaluated, n_infinite=n_infinite)


def estimate_expectation(config):
    """Estimate E[ln C] and compare against the expectation bound.

    Samples where C is infinite (the draw landed on the ill-posed cone
    to machine precision) are redrawn from the same batch stream and
    counted; they have probability zero in exact arithmetic.
    """
    law = config.law
    prob = config.problem
    batch_eval = prob.evaluate_batch

    def job(index, count):
        rng = stream_rng(config.seed, index)
        z = law.sample(rng, size=count)
        c = batch_eval(z)
        redrawn = 0
        bad = ~np.isfinite(c)
        while np.any(bad):
            k = int(np.count_nonzero(bad))
            redrawn += k
            c[bad] = batch_eval(law.sample(rng, size=k))
            bad = ~np.isfinite(c)
        vals = np.log(c)
        return (_exact_sum(vals), _exact_sum(np.square(vals)), count,
                redrawn)

    per_batch = _run_batches(job, config.samples, config.workers)
    total = math.fsum(b[0] for b in per_batch)
    total_sq = math.fsum(b[1] for b in per_batch)
    n = sum(b[2] for b in per_batch)
    redrawn = sum(b[3] for b in per_batch)

    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / max(1, n - 1))
    stderr = math.sqrt(var / n)

    bound = bounds.expectation_theorem(prob.n, prob.degree, law.cap.sigma,
                                       law.beta, law.H)
    margin = bound - (mean + 3.0 * stderr)
    return ExpectationReport(
        config=config.echo(), mean_ln_c=mean, stderr=stderr,
        n_samples=config.samples, n_effective=n, n_redrawn=redrawn,
        bound=bound, margin=margin)


def ks_radial_test(law, n_samples, seed, reference=None):
    """One-sample KS test of sampled radii against a radial CDF.

    The reference defaults to the sampling law itself; passing a
    different law gives a negative control.  Returns
    CheckRow(statistic, threshold, statistic <= threshold), the
    threshold 1.63 / sqrt(N) being the asymptotic 1% critical value.
    n_samples is an integer of at least 1000, where that value holds;
    a fraction raises ValueError rather than being truncated.
    """
    n_samples = integer(n_samples, "n_samples", least=1000)
    ref = law if reference is None else reference
    center = law.cap.center

    def job(index, count):
        rng = stream_rng(seed, index)
        z = law.sample(rng, size=count)
        return proj_distance(z, center)

    radii = np.concatenate(_run_batches(job, n_samples, 1))
    radii.sort()
    f = ref.radial_cdf(np.minimum(radii, ref.cap.sigma))
    i = np.arange(1, n_samples + 1, dtype=float)
    d_plus = float(np.max(i / n_samples - f))
    d_minus = float(np.max(f - (i - 1.0) / n_samples))
    stat = max(d_plus, d_minus)
    thr = KS_COEFF / math.sqrt(n_samples)
    return bounds.CheckRow(stat, thr, stat <= thr)
