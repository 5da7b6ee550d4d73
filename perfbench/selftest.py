"""Self-test: exact counts must repeat between two traced runs.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice on every workload of BENCHMARK.json with
the same seed and compares every per-layer metric that is a count (unit
``count`` or ``bytes``: FFT calls and points, ``field_init.calls``,
``friction_evaluate.calls``, CSV rows, bytes written, trips, ...).  It also
fails when a count differed between the traced passes of one run, and when
either run reports a failed job.  Exit code 0 means every count repeated.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes")
SEED = 1


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py failed on %s" % workload)
    lines = proc.stdout.strip().splitlines()
    unstable = [line for line in lines if "differs between traced passes"
                in line]
    return json.loads(lines[-1]), unstable


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS]
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        first, unstable1 = traced_run(workload, SEED)
        second, unstable2 = traced_run(workload, SEED)
        problems += ["%s: %s" % (workload, line.strip())
                     for line in unstable1 + unstable2]
        for result in (first, second):
            if not result["correct"]:
                problems.append("%s: %d of %d jobs failed" % (
                    workload, result["failed"], result["attempted"]))
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s %r != %r" % (workload, name, a, b))
        print("%s: %d exact counts compared" % (workload, len(exact)))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
