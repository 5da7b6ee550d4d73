"""Benchmark child process: runs one workload's job list in-process.

``run.py`` starts it with the package's ``src`` directory on PYTHONPATH and
every BLAS/OpenMP pool limited to one thread:

    worker.py setup SPEC
        import ``kanai_cavity.cli`` and run the warm-up jobs, then exit.
    worker.py measure SPEC SECONDS TRACE RESULT
        warm up; run one checked pass (invariant hooks on, outputs kept for
        the law checks); then timed passes for SECONDS.  With TRACE=1 the
        timed passes alternate between untraced and traced, and the traced
        passes record spans.  Writes RESULT as JSON.

Jobs run back to back through ``cli.main(argv)`` with ``--jobs 1``: a closed
loop with one client.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import tracing

MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def load_cli(src):
    import kanai_cavity.cli as cli
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("kanai_cavity imported from %s, not from %s"
                         % (here, src))
    return cli


def run_main(cli, job):
    """Exit code of one CLI invocation; a traceback counts as exit 1."""
    try:
        return cli.main(job["argv"])
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        return 1


def output_hashes(job):
    out = job["out"]
    if not os.path.isdir(out):
        return {}
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def run_pass(cli, jobs, tracer=None):
    """One pass over the job list; returns (wall_s, latencies, exit codes)."""
    gc.collect()
    latencies = []
    codes = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        codes.append(run_main(cli, job))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies, codes


def install_invariant_hooks(residuals, state):
    """Record invariants the CLI does not write to its output files.

    * Fresnel norm: |<psi, psi> - 1| of every field fresnel_round_trip
      returns (every job starts from a unit-norm sampled beam).
    * Wronskian: W(n) of every fundamental-solution object on 201 points of
      its window, for comparison with exp(-g(n)) by the checker.
    """
    patches = tracing.Patches()

    def job_residuals():
        return residuals.setdefault(state["job"], {})

    def fresnel(fn):
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            res = job_residuals()
            res["fresnel_norm_drift"] = max(res.get("fresnel_norm_drift", 0.0),
                                            abs(out.norm_sq() - 1.0))
            return out
        return hooked

    def fundamental(fn):
        def hooked(params, *args, **kwargs):
            sol = fn(params, *args, **kwargs)
            n_top = kwargs.get("n_max")
            if n_top is None:
                n_top = sol.n_max
            if np.isfinite(n_top) and n_top > 0:
                grid = np.linspace(0.0, float(n_top), 201)
                job_residuals().setdefault("wronskian", []).append(
                    {"n": grid.tolist(),
                     "w": np.asarray(sol.wronskian(grid)).tolist()})
            return sol
        return hooked

    for module, name, hook in (("wavesim", "fresnel_round_trip", fresnel),
                               ("core", "fundamental_solutions", fundamental)):
        if not patches.replace(module, name, hook):
            raise SystemExit("kanai_cavity.%s.%s is missing" % (module, name))
    return patches


def checked_pass(cli, jobs):
    residuals = {}
    state = {"job": None}
    patches = install_invariant_hooks(residuals, state)
    codes = []
    hashes = []
    try:
        for job in jobs:
            state["job"] = job["id"]
            codes.append(run_main(cli, job))
            hashes.append(output_hashes(job))
    finally:
        patches.undo()
    return {"codes": codes, "hashes": hashes, "residuals": residuals}


def measure(cli, jobs, seconds, trace, reference, spans_path):
    passes = []
    layers = []
    tracer = tracing.Tracer() if trace else None
    first_spans = None
    kinds = ("untraced", "traced") if trace else ("timed",)
    deadline = time.perf_counter() + seconds
    minimum = MIN_TRACE_PASSES if trace else MIN_PASSES
    while True:
        for kind in kinds:
            patches = None
            if kind == "traced":
                tracer.reset()
                patches = tracing.instrument(tracer)
            try:
                wall, latencies, codes = run_pass(
                    cli, jobs, tracer if kind == "traced" else None)
            finally:
                if patches is not None:
                    patches.undo()
            same = [output_hashes(job) == ref
                    for job, ref in zip(jobs, reference)]
            passes.append({"kind": kind, "wall": wall,
                           "latencies": latencies, "codes": codes,
                           "same_bytes": same})
            if kind == "traced":
                layers.append(tracing.summarize(tracer))
                tracing.check_fft_traced(layers[-1])
                if first_spans is None:
                    first_spans = tracer.spans
        done = sum(1 for p in passes if p["kind"] == kinds[-1])
        if time.perf_counter() >= deadline and done >= minimum:
            break
    if first_spans is not None:
        tracing.write_spans(spans_path, tracer, first_spans,
                            [job["id"] for job in jobs])
    return passes, layers


def main(argv):
    mode, spec_path = argv[1], argv[2]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    cli = load_cli(spec["src"])
    warm = [job for job in spec["jobs"] if job["warmup"]]
    jobs = [job for job in spec["jobs"] if not job["warmup"]]
    warm_codes = [run_main(cli, job) for job in warm]
    if mode == "setup":
        return 0 if not any(warm_codes) else 1
    seconds, trace, result_path = float(argv[3]), argv[4] == "1", argv[5]
    checked = checked_pass(cli, jobs)
    passes, layers = measure(
        cli, jobs, seconds, trace, checked["hashes"],
        os.path.join(spec["root"], "spans.csv"))
    result = {
        "warmup_codes": warm_codes,
        "checked": checked,
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except tracing.TracingError as exc:
        sys.exit("tracing failed: %s" % exc)
