"""kanai-cavity benchmark: seeded CLI workloads, law checks, layer traces.

Run from the root of a source checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload scenario_suite --seed 1 \\
        --seconds 25 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report.  With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The
metric names, units and workloads are read from BENCHMARK.json, so that file
is the single list of what the benchmark reports.
"""

import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7
#: ``python -X importtime`` children for setup.import_s.*.
IMPORT_REPEATS = 3
SETUP_TIMEOUT = 60
#: Time the measuring worker may take beyond ``--seconds``: import, warm-up,
#: the checked pass and the pass that is running when the time is up.
MEASURE_MARGIN = 120
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    """Run a child to completion; subprocess.run kills and reaps on timeout."""
    try:
        return subprocess.run(argv, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("%s timed out after %ss" % (argv[1:3], timeout)) \
            from exc


def worker(*args):
    return [sys.executable, os.path.join(HERE, "worker.py")] + list(args)


def measure_setup(spec_path):
    """Wall time of fresh interpreters that import the CLI and warm up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = run_child(worker("setup", spec_path), SETUP_TIMEOUT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchmarkError("warm-up failed with exit code %d"
                                 % proc.returncode)
    return times


def import_times():
    """Cumulative import time of each package module, median of children."""
    samples = {}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*"
                         r"kanai_cavity\.(\w+)\s*$")
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import kanai_cavity.cli"], SETUP_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchmarkError("importing kanai_cavity.cli failed")
        for line in proc.stderr.splitlines():
            match = pattern.match(line)
            if match:
                samples.setdefault(match.group(2), []).append(
                    int(match.group(1)) * 1e-6)
    return {name: statistics.median(values)
            for name, values in samples.items()}


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment():
    """Interpreter, library and CPU facts recorded beside every run."""
    import numpy
    import scipy
    cpuinfo = _read("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    caches = []
    for index in sorted(glob.glob(
            "/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        size = _read(os.path.join(index, "size")).strip()
        if level and size:
            caches.append("L%s %s %s" % (level, kind.lower(), size))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model.group(1).strip() if model else platform.machine(),
        "caches": caches,
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1, cli --jobs 1",
    }


def tail(samples):
    """(percentile, value) of the highest order statistic with TAIL_BEYOND
    samples above it, or None when there are too few samples."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def measured_jobs(spec):
    return [job for job in spec["jobs"] if not job["warmup"]]


def check_outputs(spec, result):
    """Law-check the checked pass; return (job checks, failed, attempted)."""
    jobs = measured_jobs(spec)
    checked = result["checked"]
    job_checks = [
        checks.check_job(job, spec["table"], code,
                         checked["residuals"].get(job["id"], {}))
        for job, code in zip(jobs, checked["codes"])]
    bad = [bool(c.failures) for c in job_checks]
    attempted = len(result["warmup_codes"]) + len(jobs)
    failed = sum(1 for code in result["warmup_codes"] if code != 0)
    failed += sum(bad)
    for run in result["passes"]:
        attempted += len(jobs)
        failed += sum(1 for i in range(len(jobs))
                      if bad[i] or run["codes"][i] != 0
                      or not run["same_bytes"][i])
    return job_checks, failed, attempted


def end_to_end(result, setup_times):
    timed = [run["wall"] for run in result["passes"] if run["kind"] == "timed"]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(timed),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"wall_s": "median of %d passes" % len(timed),
             "setup_s": "median of %d fresh interpreters" % len(setup_times)}
    return values, notes


def command_latencies(spec, result, kind):
    """Median latency of one main() call per command, over passes of one
    kind, with the tail and the sample count as notes."""
    jobs = measured_jobs(spec)
    samples = {}
    for run in result["passes"]:
        if run["kind"] == kind:
            for job, latency in zip(jobs, run["latencies"]):
                samples.setdefault(job["command"], []).append(latency)
    values = {}
    notes = {}
    for command, latencies in samples.items():
        name = "latency.%s_s" % command
        values[name] = statistics.median(latencies)
        top = tail(latencies)
        notes[name] = "median of %d calls; %s" % (
            len(latencies), "p%.0f %.6g s" % top if top else
            "no tail (fewer than %d calls)" % (TAIL_BEYOND + 1))
    return values, notes


def per_layer(declared, spec, result, job_checks, imports):
    untraced = [run["wall"] for run in result["passes"]
                if run["kind"] == "untraced"]
    traced = [run["wall"] for run in result["passes"]
              if run["kind"] == "traced"]
    layers = result["layers"]
    values = {"trace.overhead_s":
              statistics.median(traced) - statistics.median(untraced)}
    for name, seconds in imports.items():
        values["setup.import_s." + name.lstrip("_")] = seconds
    for name in checks.BOUNDS:
        values["check." + name] = max(
            (c.residuals.get(name, 0.0) for c in job_checks), default=0.0)
    latencies, notes = command_latencies(spec, result, "untraced")
    values.update(latencies)
    for name, _ in declared:
        if name.startswith("latency.") and name not in values:
            values[name] = 0.0
            notes[name] = "command not run on this workload"
    for name, unit in declared:
        if name in values or name not in layers[0]:
            continue
        if unit == "s":
            values[name] = statistics.median(pass_[name] for pass_ in layers)
        else:
            values[name] = layers[0][name]
            if any(pass_[name] != values[name] for pass_ in layers):
                notes[name] = "differs between traced passes: %s" % (
                    [pass_[name] for pass_ in layers],)
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "kanai_cavity", "cli.py")):
        raise BenchmarkError("no kanai_cavity sources under %s" % SRC)
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchmarkError("unknown workload %r; choose from %s"
                             % (args.workload, names))
    section = "per_layer" if args.trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in bench[section]]

    root = os.path.join(WORK, args.workload)
    shutil.rmtree(root, ignore_errors=True)
    spec = workloads.materialize(args.workload, args.seed, root)
    spec["src"] = SRC
    spec_path = os.path.join(root, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = environment()
    with open(os.path.join(root, "environment.json"), "w",
              encoding="utf-8") as handle:
        json.dump(env, handle, indent=1)

    setup_times = None if args.trace else measure_setup(spec_path)
    result_path = os.path.join(root, "result.json")
    proc = run_child(worker("measure", spec_path, str(args.seconds),
                            str(args.trace), result_path),
                     args.seconds + MEASURE_MARGIN)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        sys.stderr.write(proc.stderr)
        raise BenchmarkError("measuring worker exited with code %d"
                             % proc.returncode)
    sys.stderr.write(proc.stderr)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    job_checks, failed, attempted = check_outputs(spec, result)
    extra = {}
    if args.trace:
        values, notes = per_layer(declared, spec, result, job_checks,
                                  import_times())
    else:
        values, notes = end_to_end(result, setup_times)
        extra, latency_notes = command_latencies(spec, result, "timed")
        notes.update(latency_notes)

    jobs = measured_jobs(spec)
    print("kanai-cavity benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: python %(python)s, numpy %(numpy)s, scipy %(scipy)s,"
          " nproc %(nproc)d, cpu %(cpu)s; %(threads)s" % env)
    print("caches: %s" % ", ".join(env["caches"] or ["unknown"]))
    print("jobs: %d per pass, %s; %d failed of %d attempted" % (
        len(jobs), ", ".join("%d %s" % (
            sum(1 for r in result["passes"] if r["kind"] == kind), kind)
            for kind in ("timed", "untraced", "traced")), failed, attempted))
    for check in job_checks:
        for failure in check.failures:
            print("FAILED %s %s: %s" % (check.job["id"],
                                        check.job["command"], failure))
    missing = [name for name, _ in declared if name not in values]
    if missing:
        raise BenchmarkError("metrics not produced: %s" % missing)
    metrics = {}
    for name, unit in declared:
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        line = "  %-36s %-14.8g %-6s" % (name, value, unit)
        if name.startswith("check."):
            line += " bound %g" % checks.BOUNDS[name[len("check."):]]
        print(line + ("  (%s)" % notes[name] if name in notes else ""))
    if extra:
        print("per-command latency (per-layer metrics of --trace 1; "
              "not bounded):")
    for name, value in sorted(extra.items()):
        print("  %-36s %-14.8g %-6s  (%s)" % (name, value, "s", notes[name]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
