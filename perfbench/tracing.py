"""Span tracing of the kanai_cavity layers, installed from outside the package.

:func:`instrument` wraps the public functions and methods of each module
(``cli``, ``_formats``, ``core``, ``paraxial``, ``schedule``, ``raysim``,
``wavesim``, ``kanai``).  A module-level function is rebound in every
package module that holds it, so the ``from .x import y`` copies in ``cli``,
``kanai`` and ``wavesim`` are traced too.  ``wavesim`` additionally sees a
copy of ``numpy`` whose ``fft.fft`` and ``fft.ifft`` are traced, which
counts transforms without touching numpy for anyone else.

Each call records a span ``(name, start_ns, end_ns, parent, job)`` in
memory; :func:`summarize` turns one pass worth of spans into per-name time,
self time (duration minus the time covered by direct child spans) and call
counts, and per-layer self time.  Counters that a span cannot express (CSV
rows, bytes written, trips, FFT points) are added by hooks that run after
the wrapped call's span has closed; their cost lands in the caller's self
time and in the tracing overhead.

The package runs one job at a time with ``--jobs 1``, so a single span
stack suffices.
"""

import collections
import functools
import importlib
import sys
import time
import types

import numpy as np

PACKAGE = "kanai_cavity"
LAYERS = ("cli", "_formats", "core", "paraxial", "schedule", "raysim",
          "wavesim", "kanai")


def layer_label(layer):
    """Metric-name form of a layer (metric names cannot start with '_')."""
    return layer.lstrip("_")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _csv_rows(counts, args, kwargs, result):
    counts["formats.csv_text.rows"] += result.count("\n") - 1


def _bytes_written(counts, args, kwargs, result):
    counts["formats.write.bytes"] += len(_arg(args, kwargs, 1, "data"))


def _ray_trips(counts, args, kwargs, result):
    counts["raysim.trips"] += int(_arg(args, kwargs, 2, "n_max"))


def _q_trips(counts, args, kwargs, result):
    counts["wavesim.gaussian_q.trips"] += int(_arg(args, kwargs, 2, "n_max"))


def _collapse_trips(counts, args, kwargs, result):
    if result.engine != "gaussian_q":
        counts["wavesim.trips." + result.engine] += max(result.n.size - 1, 0)
    counts["wavesim.truncated_runs"] += int(result.truncated)


def _fft_work(counts, args, kwargs, result):
    data = np.asarray(_arg(args, kwargs, 0, "a"))
    counts["wavesim.fft.points"] += data.size
    counts["wavesim.fft.bytes_computed"] += data.nbytes + result.nbytes


#: (layer, module, attribute path, span name, hook).  Several targets may
#: share a span name when they are one operation (the two fitters).
TARGETS = (
    ("cli", "cli", "main", "cli.main", None),
    ("_formats", "_formats", "csv_text", "formats.csv_text", _csv_rows),
    ("_formats", "_formats", "json_text", "formats.json_text", None),
    ("_formats", "_formats", "atomic_write_text", "formats.write", None),
    ("_formats", "_formats", "atomic_write_bytes", "formats.write_bytes",
     _bytes_written),
    ("core", "core", "FrictionProfile.evaluate", "core.friction_evaluate",
     None),
    ("core", "core", "FrictionProfile.from_csv", "core.from_csv", None),
    ("core", "core", "fundamental_solutions", "core.fundamental_solutions",
     None),
    ("core", "core", "ClassicalSolution._eval", "core.solution_eval", None),
    ("paraxial", "paraxial", "round_trip_matrix",
     "paraxial.round_trip_matrix", None),
    ("paraxial", "paraxial", "half_trip_matrix", "paraxial.half_trip_matrix",
     None),
    ("paraxial", "paraxial", "round_trip_elements",
     "paraxial.round_trip_elements", None),
    ("paraxial", "paraxial", "right_mirror_elements",
     "paraxial.right_mirror_elements", None),
    ("paraxial", "paraxial", "stability", "paraxial.stability", None),
    ("paraxial", "paraxial", "stability_map", "paraxial.stability_map", None),
    ("schedule", "schedule", "MirrorSchedule.__init__", "schedule.init", None),
    ("schedule", "schedule", "MirrorSchedule.elements_at",
     "schedule.elements_at", None),
    ("schedule", "schedule", "MirrorSchedule.right_elements_at",
     "schedule.right_elements_at", None),
    ("schedule", "schedule", "MirrorSchedule.positions_at",
     "schedule.positions_at", None),
    ("schedule", "schedule", "MirrorSchedule.geometry_at",
     "schedule.geometry_at", None),
    ("schedule", "schedule", "MirrorSchedule.half_matrix_at",
     "schedule.half_matrix_at", None),
    ("raysim", "raysim", "iterate_ray", "raysim.iterate_ray", _ray_trips),
    ("raysim", "raysim", "lissajous", "raysim.lissajous", _ray_trips),
    ("raysim", "raysim", "fit_damped_oscillation", "raysim.fit", None),
    ("raysim", "raysim", "fit_envelope_rate", "raysim.fit", None),
    ("raysim", "raysim", "pattern_radius", "raysim.pattern_radius", None),
    ("wavesim", "wavesim", "ComplexField.__init__", "wavesim.field_init",
     None),
    ("wavesim", "wavesim", "ComplexField.centroid", "wavesim.centroid", None),
    ("wavesim", "wavesim", "ComplexField.norm_sq", "wavesim.norm_sq", None),
    ("wavesim", "wavesim", "eigenmode_beam", "wavesim.eigenmode_beam", None),
    ("wavesim", "wavesim", "sample_beam", "wavesim.sample_beam", None),
    ("wavesim", "wavesim", "spot_size", "wavesim.spot_size", None),
    ("wavesim", "wavesim", "inner_product", "wavesim.inner_product", None),
    ("wavesim", "wavesim", "phase_aligned_l2", "wavesim.phase_aligned_l2",
     None),
    ("wavesim", "wavesim", "_check_chirp_sampling", "wavesim.sampling_check",
     None),
    ("wavesim", "wavesim", "fresnel_round_trip", "wavesim.fresnel_round_trip",
     None),
    ("wavesim", "wavesim", "split_step_round_trip",
     "wavesim.split_step_round_trip", None),
    ("wavesim", "wavesim", "gaussian_q_trace", "wavesim.gaussian_q_trace",
     _q_trips),
    ("wavesim", "wavesim", "run_collapse", "wavesim.run_collapse",
     _collapse_trips),
    ("kanai", "kanai", "map_parameters", "kanai.map_parameters", None),
    ("kanai", "kanai", "free_gaussian", "kanai.free_gaussian", None),
    ("kanai", "kanai", "kanai_propagate", "kanai.kanai_propagate", None),
    ("kanai", "kanai", "moments", "kanai.moments", None),
    ("kanai", "kanai", "crosscheck_engines", "kanai.crosscheck_engines", None),
)

#: Counters filled by the hooks above (and by COUNTED); they read 0 when a
#: pass never reaches them.
COUNTERS = ("formats.csv_text.rows", "formats.write.bytes", "raysim.trips",
            "wavesim.gaussian_q.trips", "wavesim.trips.fresnel",
            "wavesim.trips.split_step", "wavesim.truncated_runs",
            "wavesim.fft.points", "wavesim.fft.bytes_computed",
            "paraxial.matrix_builds")

#: Constructions counted without a span (too small and too many to time).
COUNTED = (("paraxial", "AbcdMatrix.__init__", "paraxial.matrix_builds"),)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace(self, module_name, path, make_wrapper):
        """Wrap ``module.path`` and rebind every package-level copy of it.

        ``path`` is ``"func"`` or ``"Class.method"``; classmethods keep their
        binding.  Returns False, changing nothing, when the target does not
        exist.
        """
        module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            self.set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            return True
        wrapper = make_wrapper(raw)
        self.set(owner, attr, wrapper)
        if not owner_name:
            for name, mod in list(sys.modules.items()):
                if name.startswith(PACKAGE) and mod is not module:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self.set(mod, key, wrapper)
        return True

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span store for one pass over a job list."""

    def __init__(self):
        self.names = []
        self.layer_of = {}
        self._ids = {}
        self.spans = []
        self.counts = collections.Counter()
        self.stack = []
        self.job = -1

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self.stack = []
        self.job = -1

    def declare(self, name, layer):
        """Register a span name, so its metrics read 0 in a pass that never
        calls it."""
        return self._name_id(name, layer)

    def _name_id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.layer_of[name] = layer
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, layer, fn, hook=None):
        name_id = self._name_id(name, layer)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result
        return traced

    def count(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def _traced_numpy(tracer):
    """A numpy stand-in for wavesim whose fft/ifft record spans."""
    fft_ns = types.ModuleType("numpy.fft")
    fft_ns.__dict__.update(vars(np.fft))
    for name in ("fft", "ifft"):
        setattr(fft_ns, name, tracer.wrap("wavesim.fft", "wavesim",
                                          getattr(np.fft, name), _fft_work))

    class NumpyView(types.ModuleType):
        def __getattr__(self, name):
            return getattr(np, name)

    view = NumpyView("numpy")
    view.__dict__.update(vars(np))
    view.fft = fft_ns
    return view


class TracingError(Exception):
    """A layer metric would be wrong: a target is gone or bypassed."""


def instrument(tracer):
    """Install every wrapper; returns the :class:`Patches` that undo them.

    Fails closed: if any target cannot be wrapped (a later version of the
    package renamed it, folded it into another or no longer reaches numpy
    through ``wavesim.np``), nothing stays installed and
    :class:`TracingError` names every such target, so no metric reads a
    false 0.  A change that really moves a function updates TARGETS and
    BENCHMARK.json with it.
    """
    patches = Patches()
    missing = []
    for layer, module, path, name, hook in TARGETS:
        tracer.declare(name, layer)
        if not patches.replace(module, path,
                               lambda fn, n=name, l=layer, h=hook:
                               tracer.wrap(n, l, fn, h)):
            missing.append("%s.%s" % (module, path))
    for module, path, key in COUNTED:
        if not patches.replace(module, path,
                               lambda fn, k=key: tracer.count(k, fn)):
            missing.append("%s.%s" % (module, path))
    wavesim = importlib.import_module(PACKAGE + ".wavesim")
    aliases = [key for key, value in vars(wavesim).items()
               if value is np.fft or value is np.fft.fft
               or value is np.fft.ifft]
    if vars(wavesim).get("np") is not np:
        missing.append("wavesim.np (numpy module)")
    elif aliases:
        missing.append("wavesim.np (numpy.fft also bound as %s)"
                       % ", ".join(aliases))
    else:
        patches.set(wavesim, "np", _traced_numpy(tracer))
    if missing:
        patches.undo()
        raise TracingError("cannot trace %s.%s" % (
            PACKAGE, (", %s." % PACKAGE).join(missing)))
    return patches


def check_fft_traced(metrics):
    """Raise TracingError if grid round trips ran but no FFT was traced,
    which means the transforms bypass the traced ``wavesim.np``."""
    trips = (metrics["wavesim.fresnel_round_trip.calls"]
             + metrics["wavesim.split_step_round_trip.calls"])
    if trips and not metrics["wavesim.fft.calls"]:
        raise TracingError("%d grid round trips ran without a traced FFT"
                           % trips)


def _child_ns(spans):
    """Time covered by each span's direct children."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def summarize(tracer):
    """Per-name and per-layer totals of one pass.

    Returns a dict of metric name -> value: ``<span>.s``, ``<span>.self_s``,
    ``<span>.calls`` for every span name, ``<layer>.self_s`` for every
    layer, and the hook counters.  Unused spans and layers read 0.
    """
    spans = tracer.spans
    child_ns = _child_ns(spans)
    total = collections.Counter()
    self_ns = collections.Counter()
    calls = collections.Counter()
    for index, (name_id, start, end, parent, _) in enumerate(spans):
        total[name_id] += end - start
        self_ns[name_id] += end - start - child_ns[index]
        calls[name_id] += 1
    metrics = {}
    layer_self = collections.Counter()
    for name_id, name in enumerate(tracer.names):
        metrics[name + ".s"] = total[name_id] * 1e-9
        metrics[name + ".self_s"] = self_ns[name_id] * 1e-9
        metrics[name + ".calls"] = calls[name_id]
        layer_self[tracer.layer_of[name]] += self_ns[name_id]
    for layer in LAYERS:
        metrics[layer_label(layer) + ".self_s"] = layer_self[layer] * 1e-9
    for key in COUNTERS:
        metrics[key] = tracer.counts[key]
    return metrics


def write_spans(path, tracer, spans, job_ids):
    """Write one pass worth of spans as CSV (times in microseconds)."""
    origin = spans[0][1] if spans else 0
    child_ns = _child_ns(spans)
    lines = ["span,parent,job,name,layer,start_us,end_us,self_us"]
    for index, (name_id, start, end, parent, job) in enumerate(spans):
        name = tracer.names[name_id]
        lines.append("%d,%d,%s,%s,%s,%.3f,%.3f,%.3f" % (
            index, parent, job_ids[job] if job >= 0 else "", name,
            tracer.layer_of[name], (start - origin) * 1e-3,
            (end - origin) * 1e-3, (end - start - child_ns[index]) * 1e-3))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
