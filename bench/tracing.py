"""Spans around capsmooth's layer boundaries, for the traced benchmark run.

``install`` wraps each traced function at every name its callers look it
up by (a module attribute, a name another module imported directly, or a
class attribute), so the library itself is unchanged.  Spans are kept in
memory as parallel arrays (name, parent, thread, tag, start, end) and
reduced to the per-layer metrics by ``layer_metrics`` when the run ends.
``tag`` is the span's size: points for the batched layers, the worker
count for ``estimate_*``, the sample count for ``ks_radial_test``.
``log_cap_integral``, called about a million times per sweep, is only
counted (calls, distinct arguments, seconds), so its time inside
``cli.main`` counts as the CLI's own recomputation.
"""

import functools
import sys
import threading
import time
from array import array

import numpy as np

BATCH_SIZE = 16384
LAYER_UNITS = {
    "distributions.inverse_radial_cdf.ms_per_batch": "ms",
    "distributions.sample.ms_per_batch": "ms",
    "geometry.tangent_direction.ms_per_batch": "ms",
    "geometry.geodesic_point.ms_per_batch": "ms",
    "condnum.evaluate_batch.ms_per_batch": "ms",
    "montecarlo.self.ms_per_batch": "ms",
    "montecarlo.worker_busy_frac": "ratio",
    "montecarlo.batches": "count",
    "montecarlo.redrawn": "count",
    "montecarlo.useful_frac": "ratio",
    "montecarlo.ks_radial_test.s": "s",
    "montecarlo.estimate_tail.s": "s",
    "montecarlo.estimate_expectation.s": "s",
    "volumes.log_cap_integral.calls": "count",
    "volumes.log_cap_integral.unique_args": "count",
    "volumes.log_cap_integral.s": "s",
    "bounds.boosting_check.calls": "count",
    "bounds.boosting_check.us_per_call": "us",
    "bounds.ball_maximizer_check.ms_per_call": "ms",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.main_thread = threading.get_ident()
        self.names = {}
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("Q")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counted = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else -1

    def wrap(self, name, func, tag=None, parent=None):
        """func wrapped to record a span while the tracer is active.
        tag(args, kwargs) gives the span's tag; parent, when given, is
        the span index to attach to instead of this thread's open span."""
        name_id = self.names.setdefault(name, len(self.names))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            stack = self._stack()
            up = parent if parent is not None else (
                stack[-1] if stack else -1)
            size = tag(args, kwargs) if tag is not None else 0
            with self._lock:
                index = len(self.start)
                self.name.append(name_id)
                self.parent.append(up)
                self.thread.append(threading.get_ident())
                self.tag.append(size)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                stack.pop()
        return traced

    def count(self, name, func):
        """func wrapped to count calls, distinct arguments and seconds
        while the tracer is active, without spans: for a leaf called too
        often for a span per call to stay cheap."""
        totals = self.counted.setdefault(
            name, {"calls": 0, "s": 0.0, "args": set()})

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    totals["calls"] += 1
                    totals["s"] += elapsed
                    totals["args"].add((args, tuple(sorted(kwargs.items()))))
        return counted


def _arg(position, keyword, default=None):
    def get(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else default
    return get


def _points(position, keyword):
    """Tag: the number of points (rows) in an array argument."""
    get = _arg(position, keyword)
    return lambda args, kwargs: len(np.atleast_1d(get(args, kwargs)))


def _size(position):
    get = _arg(position, "size")

    def size(args, kwargs):
        value = get(args, kwargs)
        return 1 if value is None else int(value)
    return size


def _rebind(original, wrapped):
    """Point every capsmooth module-level name bound to original at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "capsmooth" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap capsmooth's layer boundaries; call before the inputs are built."""
    import capsmooth.cli  # noqa: F401  (so its imported names are rebound)
    from capsmooth import (bounds, condnum, distributions, geometry,
                           montecarlo, volumes)

    law = distributions.AdversarialLaw
    law.sample = tracer.wrap("distributions.sample", law.sample,
                             tag=_size(2))
    law.inverse_radial_cdf = tracer.wrap(
        "distributions.inverse_radial_cdf", law.inverse_radial_cdf,
        tag=_points(1, "p"))
    _rebind(geometry.tangent_direction, tracer.wrap(
        "geometry.tangent_direction", geometry.tangent_direction,
        tag=_size(2)))
    _rebind(geometry.geodesic_point, tracer.wrap(
        "geometry.geodesic_point", geometry.geodesic_point,
        tag=_points(2, "r")))

    def traced_problems(factory):
        def build(*args, **kwargs):
            problem = factory(*args, **kwargs)
            problem.evaluate_batch = tracer.wrap(
                "condnum.evaluate_batch", problem.evaluate_batch,
                tag=_points(0, "z"))
            return problem
        return functools.wraps(factory)(build)

    for factory in (condnum.hyperplane_problem,
                    condnum.union_hyperplanes_problem,
                    condnum.matrix_problem):
        _rebind(factory, traced_problems(factory))

    config = _arg(0, "config")
    for name in ("estimate_tail", "estimate_expectation"):
        func = getattr(montecarlo, name)
        _rebind(func, tracer.wrap(
            "montecarlo." + name, func,
            tag=lambda args, kwargs: config(args, kwargs).workers))
    _rebind(montecarlo.ks_radial_test, tracer.wrap(
        "montecarlo.ks_radial_test", montecarlo.ks_radial_test,
        tag=lambda args, kwargs: int(_arg(1, "n_samples")(args, kwargs))))

    run_batches = montecarlo._run_batches

    def traced_run_batches(job, *args, **kwargs):
        if tracer.active:
            job = tracer.wrap("montecarlo.batch", job, tag=_arg(1, "count"),
                              parent=tracer.current())
        return run_batches(job, *args, **kwargs)
    _rebind(run_batches, traced_run_batches)

    _rebind(volumes.log_cap_integral, tracer.count(
        "volumes.log_cap_integral", volumes.log_cap_integral))

    for name in ("boosting_check", "ball_maximizer_check"):
        func = getattr(bounds, name)
        _rebind(func, tracer.wrap("bounds." + name, func))
    _rebind(capsmooth.cli.main, tracer.wrap("cli.main", capsmooth.cli.main))


def layer_metrics(tracer):
    """Per-layer metrics of one traced body, from its spans.

    The *_ms_per_batch figures are main-thread time per BATCH_SIZE
    points, so the workers=1 runs set them; worker_busy_frac comes from
    the pool threads of runs with two or more workers.  A layer the
    workload never calls reports 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    tag = np.frombuffer(tracer.tag, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    main = np.frombuffer(tracer.thread, dtype=np.uint64) == tracer.main_thread

    def named(*labels):
        return np.isin(name, [tracer.names[n] for n in labels
                              if n in tracer.names])

    def parent_is(mask):
        """Spans whose parent span is in mask."""
        has = parent >= 0
        out = np.zeros_like(has)
        out[has] = mask[parent[has]]
        return out

    def per_batch_ms(label):
        sel = named(label) & main
        points = tag[sel].sum()
        return 1e3 * dur[sel].sum() / points * BATCH_SIZE if points else 0.0

    def ratio(num, den):
        return float(num / den) if den else 0.0

    estimate = named("montecarlo.estimate_tail",
                     "montecarlo.estimate_expectation")
    batch = named("montecarlo.batch")
    sample = named("distributions.sample")
    leaf = sample | named("condnum.evaluate_batch")

    est_w1 = estimate & main & (tag == 1)
    batch_w1 = batch & parent_is(est_w1)
    mc_self = dur[est_w1].sum() - dur[leaf & parent_is(batch_w1)].sum()

    est_par = estimate & (tag >= 2)
    busy = dur[batch & ~main & parent_is(est_par)].sum()

    drawn = tag[sample & parent_is(batch)].sum()
    useful = tag[batch].sum()

    log_cap = tracer.counted["volumes.log_cap_integral"]
    boost = named("bounds.boosting_check")
    ball = named("bounds.ball_maximizer_check")
    cli_main = named("cli.main")
    return {
        "distributions.inverse_radial_cdf.ms_per_batch":
            per_batch_ms("distributions.inverse_radial_cdf"),
        "distributions.sample.ms_per_batch":
            per_batch_ms("distributions.sample"),
        "geometry.tangent_direction.ms_per_batch":
            per_batch_ms("geometry.tangent_direction"),
        "geometry.geodesic_point.ms_per_batch":
            per_batch_ms("geometry.geodesic_point"),
        "condnum.evaluate_batch.ms_per_batch":
            per_batch_ms("condnum.evaluate_batch"),
        "montecarlo.self.ms_per_batch":
            ratio(1e3 * mc_self, batch_w1.sum()),
        "montecarlo.worker_busy_frac":
            ratio(busy, (tag[est_par] * dur[est_par]).sum()),
        "montecarlo.batches": int(batch.sum()),
        "montecarlo.redrawn": int(drawn - useful),
        "montecarlo.useful_frac": ratio(useful, drawn),
        "montecarlo.ks_radial_test.s":
            float(dur[named("montecarlo.ks_radial_test")].sum()),
        "montecarlo.estimate_tail.s":
            float(dur[named("montecarlo.estimate_tail")].sum()),
        "montecarlo.estimate_expectation.s":
            float(dur[named("montecarlo.estimate_expectation")].sum()),
        "volumes.log_cap_integral.calls": log_cap["calls"],
        "volumes.log_cap_integral.unique_args": len(log_cap["args"]),
        "volumes.log_cap_integral.s": log_cap["s"],
        "bounds.boosting_check.calls": int(boost.sum()),
        "bounds.boosting_check.us_per_call":
            ratio(1e6 * dur[boost].sum(), boost.sum()),
        "bounds.ball_maximizer_check.ms_per_call":
            ratio(1e3 * dur[ball].sum(), ball.sum()),
        "cli.main.self_s":
            float(dur[cli_main].sum() - dur[parent_is(cli_main)].sum()),
    }
