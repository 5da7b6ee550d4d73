"""Acceptance-law checks of the files each job wrote.

The checker recomputes its references from the job's config with its own
formulas (matrix elements, g(n), ray iteration, fundamental solutions) and
never imports kanai_cavity.  Bounds are those of tests/test_acceptance.py:

=====================  =======  ==============================================
residual               bound    law (criterion)
=====================  =======  ==============================================
schedule_drift         1e-10    A constant, B e^{g}, C e^{-g} constant (2)
ray_recurrence_dev     1e-9     ray/Lissajous traces match the per-trip
                                matrix iteration (3)
w1_law_dev             1e-3     gaussian_q w1(n)/w1(0) = sqrt(u2^2+theta^2
                                u1^2) (5)
product_dev            1e-6     w1 w2 / w0^2 = sqrt((1 - cos theta)/2) (5)
fresnel_norm_drift     1e-6     every Fresnel output keeps unit norm (6)
crosscheck_l2          1e-2     phase-aligned field distance (7)
centroid_dev           1e-2     wave, analytic and ray centroids agree, as a
                                share of the launch offset (7)
wronskian_dev          1e-9     |W(n) - e^{-g(n)}| of every fundamental-
                                solution object (9)
=====================  =======  ==============================================

Pass/fail checks without a reported residual: every job exits 0 and writes
finite numbers with one row per trip (a truncated grid run fails); a full
[0, 4]^2 raster has exactly two stable domains and the closed-form theta
(1); every ray and Lissajous fit gives the period 2 pi/theta within 1%
(3, 4).  The fitted decay rates are not checked: criteria 3 and 4 state
them for 5000-trip runs from (1, 0), which no workload runs, and over 3000
trips from other starts the peak fit can miss gamma/2 by more than 1%.
"""

import json
import math
import os

import numpy as np
from scipy import ndimage
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

BOUNDS = {
    "schedule_drift": 1e-10,
    "ray_recurrence_dev": 1e-9,
    "w1_law_dev": 1e-3,
    "product_dev": 1e-6,
    "fresnel_norm_drift": 1e-6,
    "crosscheck_l2": 1e-2,
    "centroid_dev": 1e-2,
    "wronskian_dev": 1e-9,
}


class Physics:
    """Closed-form references for one job config."""

    def __init__(self, cfg, table):
        geo = cfg["geometry"]
        self.s1 = float(geo["l1_over_f"])
        self.s2 = float(geo["l2_over_f"])
        self.wavelength = float(geo.get("lambda_over_f", 1e-4))
        h = self.s1 + self.s2 - self.s1 * self.s2
        self.a0 = 1.0 - 2.0 * h
        self.b0 = 2.0 * (1.0 - self.s1) * h
        self.c0 = -2.0 * (1.0 - self.s2)
        self.theta = math.acos(self.a0)
        friction = cfg["friction"]
        if friction["kind"] == "constant":
            self.gamma = float(friction["gamma"])
            self.nodes = None
        else:
            self.gamma = None
            self.nodes = np.asarray(table[0], dtype=float)
            self._g = PchipInterpolator(self.nodes, np.asarray(table[1]))
            self._gdot = self._g.derivative()

    def g(self, n):
        n = np.asarray(n, dtype=float)
        return self.gamma * n if self.gamma is not None else self._g(n)

    def gdot(self, n):
        if self.gamma is not None:
            return self.gamma
        return float(self._gdot(n))

    def elements(self, n):
        eg = np.exp(self.g(n))
        return self.a0, self.b0 / eg, self.c0 * eg

    def iterate(self, x0, xp0, n_max):
        """Per-trip matrix iteration with the matrix frozen at trip start."""
        a, b, c = self.elements(np.arange(n_max, dtype=float))
        x = np.empty(n_max + 1)
        xp = np.empty(n_max + 1)
        x[0], xp[0] = x0, xp0
        for k in range(n_max):
            x[k + 1] = a * x[k] + b[k] * xp[k]
            xp[k + 1] = c[k] * x[k] + a * xp[k]
        return x, xp

    def fundamental(self, n_max):
        """u1, u2 at integer trips 0..n_max."""
        n = np.arange(n_max + 1, dtype=float)
        if self.gamma is not None:
            big = math.sqrt(self.theta ** 2 - self.gamma ** 2 / 4.0)
            env = np.exp(-0.5 * self.gamma * n)
            u1 = env * np.sin(big * n) / big
            u2 = env * (np.cos(big * n)
                        + (0.5 * self.gamma / big) * np.sin(big * n))
            return u1, u2
        omega_sq = self.theta ** 2

        def rhs(t, y):
            gd = self.gdot(t)
            return [y[1], -gd * y[1] - omega_sq * y[0],
                    y[3], -gd * y[3] - omega_sq * y[2]]

        breaks = np.concatenate((
            [0.0], self.nodes[(self.nodes > 0) & (self.nodes < n_max)],
            [float(n_max)]))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        u1 = np.empty(n_max + 1)
        u2 = np.empty(n_max + 1)
        u1[0], u2[0] = 0.0, 1.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            sol = solve_ivp(rhs, (lo, hi), y, method="DOP853",
                            dense_output=True, rtol=1e-10, atol=1e-12)
            inside = (n > lo) & (n <= hi)
            values = sol.sol(n[inside])
            u1[inside], u2[inside] = values[0], values[2]
            y = sol.y[:, -1]
        return u1, u2

    def spot0(self):
        """Eigenmode spot size at the left mirror: q = i sqrt(-b/c)."""
        return math.sqrt(self.wavelength * math.sqrt(-self.b0 / self.c0)
                         / math.pi)


def _csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class JobCheck:
    """Residuals and failures of one job."""

    def __init__(self, job):
        self.job = job
        self.residuals = {}
        self.failures = []

    def residual(self, name, value):
        value = float(value)
        self.residuals[name] = max(self.residuals.get(name, 0.0), value)
        if not value < BOUNDS[name]:
            self.failures.append("%s=%.3g (bound %g)"
                                 % (name, value, BOUNDS[name]))

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)


def _rows(check, columns, count, label):
    first = next(iter(columns.values()))
    check.require(first.size == count, "%s has %d rows, expected %d"
                  % (label, first.size, count))
    check.require(all(np.all(np.isfinite(col)) for name, col in
                      columns.items() if name != "theta"),
                  "%s has non-finite values" % label)
    return first.size == count


def _check_stability(check, phys, cfg, out):
    st = cfg.get("stability", {})
    res = int(st.get("resolution", 400))
    raster = _csv(os.path.join(out, "stability_raster.csv"))
    if not _rows(check, raster, res * res, "stability_raster.csv"):
        return
    s1, s2 = raster["l1_over_f"], raster["l2_over_f"]
    a = 1.0 - 2.0 * (s1 + s2 - s1 * s2)
    stable = np.abs(a) <= 1.0
    check.require(np.array_equal(stable, raster["stable"] > 0.5),
                  "raster stability flags disagree with |a| <= 1")
    theta_dev = np.max(np.abs(raster["theta"][stable]
                              - np.arccos(np.clip(a[stable], -1, 1))))
    check.require(theta_dev < 1e-12, "raster theta off by %.3g" % theta_dev)
    if (st.get("l1_range", [0.0, 4.0]) == [0.0, 4.0]
            and st.get("l2_range", [0.0, 4.0]) == [0.0, 4.0]):
        theta = raster["theta"].reshape(res, res)
        interior = (raster["stable"].reshape(res, res) > 0.5) \
            & (theta > 1e-9) & (theta < math.pi - 1e-9)
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        domains = ndimage.label(interior, structure=structure)[1]
        check.require(domains == 2, "raster has %d stable domains" % domains)
    n_max = int(cfg["run"]["n_max"])
    path = _csv(os.path.join(out, "schedule_path.csv"))
    if _rows(check, path, n_max + 1, "schedule_path.csv"):
        check.require(abs(path["l1_over_f"][0] - phys.s1) < 1e-12
                      and abs(path["l2_over_f"][0] - phys.s2) < 1e-12,
                      "schedule path does not start at the geometry")


def _check_schedule(check, phys, cfg, out):
    n_max = int(cfg["run"]["n_max"])
    rows = _csv(os.path.join(out, "schedule.csv"))
    if not _rows(check, rows, n_max + 1, "schedule.csv"):
        return
    g = phys.g(np.arange(n_max + 1, dtype=float))
    check.residual("schedule_drift", max(
        np.max(np.abs(rows["a"] / phys.a0 - 1.0)),
        np.max(np.abs(rows["b_over_f"] * np.exp(g) / phys.b0 - 1.0)),
        np.max(np.abs(rows["c_times_f"] * np.exp(-g) / phys.c0 - 1.0))))


def _check_period(check, phys, fit, label):
    period_rel = abs(fit["period"] / (2.0 * math.pi / phys.theta) - 1.0)
    check.require(period_rel < 0.01, "%s period off by %.3g"
                  % (label, period_rel))


def _check_ray(check, phys, cfg, out):
    n_max = int(cfg["run"]["n_max"])
    ray = cfg.get("ray", {})
    rows = _csv(os.path.join(out, "ray_trace.csv"))
    if not _rows(check, rows, n_max + 1, "ray_trace.csv"):
        return
    x, xp = phys.iterate(ray.get("x0", 1.0), ray.get("xp0", 0.0), n_max)
    scale = np.max(np.abs(x))
    check.residual("ray_recurrence_dev", max(
        np.max(np.abs(rows["x"] - x)), np.max(np.abs(rows["xp"] - xp)))
        / scale)
    _check_period(check, phys, _json(os.path.join(out, "ray_fit.json")),
                  "ray")


def _check_lissajous(check, phys, cfg, out):
    n_max = int(cfg["run"]["n_max"])
    li = cfg.get("lissajous", {})
    rows = _csv(os.path.join(out, "lissajous_trace.csv"))
    if not _rows(check, rows, n_max + 1, "lissajous_trace.csv"):
        return
    x, xp = phys.iterate(li.get("x0", 1.0), li.get("xp0", 0.0), n_max)
    y, yp = phys.iterate(li.get("y0", 0.7), li.get("yp0", 0.5), n_max)
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    check.residual("ray_recurrence_dev", max(
        np.max(np.abs(rows[name] - ref)) for name, ref in
        (("x", x), ("xp", xp), ("y", y), ("yp", yp))) / scale)
    _check_period(check, phys,
                  _json(os.path.join(out, "lissajous_fit.json")), "lissajous")


def _check_collapse(check, phys, cfg, out):
    run = cfg["run"]
    n_max = int(run["n_max"])
    engine = run.get("engine", "gaussian_q")
    rows = _csv(os.path.join(out, "collapse_%s.csv" % engine))
    if not _rows(check, rows, n_max + 1, "collapse_%s.csv" % engine):
        return
    check.require(np.all(rows["w1_over_w0"] > 0.0)
                  and np.all(rows["w2_over_w0"] > 0.0),
                  "collapse spot sizes must be positive")
    if engine != "gaussian_q":
        return
    u1, u2 = phys.fundamental(n_max)
    law = np.sqrt(u2 ** 2 + phys.theta ** 2 * u1 ** 2)
    w1 = rows["w1_over_w0"]
    check.residual("w1_law_dev", np.max(np.abs(w1 / w1[0] - law)))
    target = math.sqrt((1.0 - math.cos(phys.theta)) / 2.0)
    check.residual("product_dev",
                   np.max(np.abs(rows["product"] / target - 1.0)))


def _check_crosscheck(check, phys, cfg, out):
    n_max = int(cfg["run"]["n_max"])
    report = _json(os.path.join(out, "crosscheck_report.json"))
    records = report["records"]
    check.require(len(records) == n_max + 1, "crosscheck has %d records, "
                  "expected %d" % (len(records), n_max + 1))
    if len(records) != n_max + 1:
        return
    l2 = [r["l2_distance"] for r in records]
    check.require(np.all(np.isfinite(l2)), "crosscheck L2 is not finite")
    check.residual("crosscheck_l2", max(l2))
    cc = cfg.get("crosscheck", {})
    x0 = float(cc.get("center_over_w1", 1.0)) * phys.spot0()
    ray, _ = phys.iterate(x0, float(cc.get("tilt", 0.0)), n_max)
    wave = np.array([r["centroid_wave"] for r in records])
    analytic = np.array([r["centroid_analytic"] for r in records])
    check.residual("centroid_dev", max(
        np.max(np.abs(wave - analytic)), np.max(np.abs(wave - ray)),
        np.max(np.abs(analytic - ray))) / abs(x0))


CHECKERS = {
    "stability": _check_stability,
    "schedule": _check_schedule,
    "ray": _check_ray,
    "lissajous": _check_lissajous,
    "collapse": _check_collapse,
    "crosscheck": _check_crosscheck,
}


def check_job(job, table, exit_code, hook_residuals):
    """Check one job of the checked pass; returns a :class:`JobCheck`."""
    check = JobCheck(job)
    check.require(exit_code == 0, "exit code %d" % exit_code)
    if exit_code != 0:
        return check
    cfg = job["config"]
    phys = Physics(cfg, table)
    try:
        CHECKERS[job["command"]](check, phys, cfg, job["out"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        check.failures.append("unreadable output: %s" % exc)
    if "fresnel_norm_drift" in hook_residuals:
        check.residual("fresnel_norm_drift",
                       hook_residuals["fresnel_norm_drift"])
    for sample in hook_residuals.get("wronskian", ()):
        n = np.asarray(sample["n"])
        check.residual("wronskian_dev", np.max(np.abs(
            np.asarray(sample["w"]) - np.exp(-phys.g(n)))))
    return check
