"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of CLI jobs.  The seed chooses the physics of each
job (geometry, friction, ray starts, beam offsets and the tabulated g(n)
table); it never changes how many jobs there are, which command each runs,
how many trips it runs or on how many grid points.  So every seed costs
about the same, and the spread between seeds measures the machine, not the
generator.

Geometries are drawn from the strictly stable upper domain (l2 > f, b < 0,
c > 0) with a round-trip angle theta in a narrow band around the README
geometry (theta = 1.8755), because the ODE branch's cost scales with theta.
"""

import json
import math
import os
import random

THETA_BAND = (1.84, 1.91)
WAVELENGTH = 1e-4
#: Node spacing of the tabulated friction tables, in trips.
TABLE_STEP = 10
#: Friction read from the workload's seeded table (written beside the jobs).
TABULATED = {"kind": "tabulated", "path": "friction.csv"}


def _geometry(rng):
    """(l1/f, l2/f) in the upper stable domain with theta in THETA_BAND."""
    theta = rng.uniform(*THETA_BAND)
    h = (1.0 - math.cos(theta)) / 2.0
    s2 = rng.uniform(1.3, 1.7)
    s1 = (s2 - h) / (s2 - 1.0)
    return {"l1_over_f": s1, "l2_over_f": s2, "lambda_over_f": WAVELENGTH}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _config(geometry, friction, run, **sections):
    cfg = {"schema_version": 1, "geometry": geometry, "friction": friction,
           "run": dict(run)}
    cfg.update(sections)
    return cfg


def _job(command, cfg):
    return {"command": command, "config": cfg}


def _ray_sections(rng):
    return {
        "ray": {"x0": rng.uniform(0.5, 1.5), "xp0": rng.uniform(-0.5, 0.5)},
        "lissajous": {"x0": rng.uniform(0.5, 1.5),
                      "xp0": rng.uniform(-0.5, 0.5),
                      "y0": rng.uniform(0.4, 1.0),
                      "yp0": rng.uniform(0.2, 0.8)},
    }


def _ray_family(geometry, friction, n_max, sections):
    """schedule, ray, lissajous and a gaussian_q collapse on one geometry.

    Each config carries only the keys its command reads.
    """
    run = {"n_max": n_max}
    return [
        _job("schedule", _config(geometry, friction, run)),
        _job("ray", _config(geometry, friction, run, ray=sections["ray"])),
        _job("lissajous", _config(geometry, friction, run,
                                  lissajous=sections["lissajous"])),
        _job("collapse", _config(geometry, friction,
                                 dict(run, engine="gaussian_q"))),
    ]


def _crosscheck(rng, geometry, friction, n_max, grid_n):
    """A displaced-beam crosscheck inside acceptance criterion 7's regime
    (gamma <= 1e-2, offset <= one spot size, no tilt, <= 200 trips)."""
    return _job("crosscheck", _config(
        geometry, friction, {"n_max": n_max, "grid_n": grid_n},
        crosscheck={"center_over_w1": _signed(rng, 0.5, 1.0)}))


def _interleave(*groups):
    """Round-robin merge, so repeated small jobs sample the whole pass."""
    merged = []
    for k in range(max(len(group) for group in groups)):
        for group in groups:
            if k < len(group):
                merged += group[k]
    return merged


def scenario_suite(rng):
    """The README scenario family: constant friction near 1e-3, 3000 trips,
    a full raster, and schedule/ray/lissajous/gaussian_q on three
    geometries.  No grid engine and no ODE runs."""
    gamma = rng.uniform(0.8e-3, 1.0e-3)
    friction = {"kind": "constant", "gamma": gamma}
    stability = [_job("stability", _config(
        _geometry(rng), friction, {"n_max": 3000},
        stability={"resolution": 400, "l1_range": [0.0, 4.0],
                   "l2_range": [0.0, 4.0]}))]
    families = [_ray_family(_geometry(rng), friction, 3000,
                            _ray_sections(rng)) for _ in range(3)]
    return stability + [job for family in families for job in family], None


#: (engine, grid_n, trips) of the wave_engines collapse jobs, sized so that
#: each costs roughly the same.
WAVE_COLLAPSES = (("fresnel", 2048, 240), ("fresnel", 4096, 120),
                  ("fresnel", 8192, 60), ("split_step", 2048, 50),
                  ("split_step", 4096, 25), ("split_step", 8192, 10))
#: (grid_n, trips) of the wave_engines crosscheck jobs.
WAVE_CROSSCHECKS = ((2048, 200), (4096, 120), (8192, 60))


def wave_engines(rng):
    """Grid collapse runs on both engines and crosschecks, constant
    friction, centred and displaced beams, every grid size in every seed."""
    grid = []
    for i, (engine, grid_n, trips) in enumerate(WAVE_COLLAPSES):
        geometry = _geometry(rng)
        friction = {"kind": "constant", "gamma": rng.uniform(5e-3, 1e-2)}
        center = 0.0 if i % 2 == 0 else _signed(rng, 0.5, 1.0)
        grid.append(_job("collapse", _config(
            geometry, friction,
            {"n_max": trips, "engine": engine, "grid_n": grid_n},
            collapse={"center_over_w1": center})))
    for grid_n, trips in WAVE_CROSSCHECKS:
        friction = {"kind": "constant", "gamma": rng.uniform(4e-3, 8e-3)}
        grid.append(_crosscheck(rng, _geometry(rng), friction, trips, grid_n))
    # fresnel, split_step and crosscheck alternate through the pass.
    return [grid[i + 3 * k] for i in range(3) for k in range(3)], None


def friction_table(rng, n_max):
    """Monotone g(n) samples every TABLE_STEP trips, a little past n_max,
    with piecewise rates near 1e-3 per trip."""
    n = [float(k * TABLE_STEP) for k in range(n_max // TABLE_STEP + 3)]
    g = [0.0]
    for _ in n[1:]:
        g.append(g[-1] + rng.uniform(0.6e-3, 1.2e-3) * TABLE_STEP)
    return n, g


def tabulated_friction(rng):
    """A seeded g(n) table drives schedule, ray and gaussian_q collapse on
    three geometries (500 trips) and two 200-trip crosschecks at N=1024."""
    table = friction_table(rng, 500)
    run = {"n_max": 500}
    families = []
    for _ in range(3):
        geometry = _geometry(rng)
        families.append([
            _job("schedule", _config(geometry, TABULATED, run)),
            _job("ray", _config(geometry, TABULATED, run,
                                ray=_ray_sections(rng)["ray"])),
            _job("collapse", _config(geometry, TABULATED,
                                     dict(run, engine="gaussian_q"))),
        ])
    crosschecks = [[_crosscheck(rng, _geometry(rng), TABULATED, 200, 1024)]
                   for _ in range(2)]
    return _interleave(families, crosschecks), table


WORKLOADS = {
    "scenario_suite": scenario_suite,
    "wave_engines": wave_engines,
    "tabulated_friction": tabulated_friction,
}


def warmup_jobs(jobs):
    """One tiny invocation per distinct (command, engine) of a job list."""
    tiny = []
    seen = set()
    for job in jobs:
        cfg = json.loads(json.dumps(job["config"]))
        key = (job["command"], str(cfg["run"].get("engine")))
        if key in seen:
            continue
        seen.add(key)
        cfg["run"]["n_max"] = 30
        if "grid_n" in cfg["run"]:
            cfg["run"]["grid_n"] = 256
            cfg["run"]["n_max"] = 3
        if "stability" in cfg:
            cfg["stability"]["resolution"] = 8
        tiny.append(_job(job["command"], cfg))
    return tiny


def write_table(path, table):
    n, g = table
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("n,g\n")
        for n_k, g_k in zip(n, g):
            handle.write("%r,%r\n" % (n_k, g_k))


def materialize(workload, seed, root):
    """Write every job's config under ``root``; return the job specs.

    Each job gets ``root/<prefix>NN/config.json``; outputs go to
    ``root/<prefix>NN/out``.  A workload's friction table, if it has one,
    sits beside the job directories and configs point at it by relative
    path.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    jobs, table = WORKLOADS[workload](rng)
    os.makedirs(root, exist_ok=True)
    if table is not None:
        write_table(os.path.join(root, "friction.csv"), table)
    specs = []
    for prefix, group in (("job", jobs), ("warm", warmup_jobs(jobs))):
        for i, job in enumerate(group):
            job_dir = os.path.join(root, "%s%02d" % (prefix, i))
            os.makedirs(job_dir, exist_ok=True)
            cfg = json.loads(json.dumps(job["config"]))
            if cfg["friction"]["kind"] == "tabulated":
                cfg["friction"]["path"] = os.path.join("..", "friction.csv")
            config_path = os.path.join(job_dir, "config.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(cfg, handle, indent=1, sort_keys=True)
            specs.append({
                "id": "%s%02d" % (prefix, i),
                "warmup": prefix == "warm",
                "command": job["command"],
                "config": cfg,
                "config_path": config_path,
                "out": os.path.join(job_dir, "out"),
                "argv": [job["command"], "--config", config_path,
                         "--out", os.path.join(job_dir, "out"),
                         "--jobs", "1"],
            })
    return {"workload": workload, "seed": seed, "root": root,
            "table": table, "jobs": specs}
