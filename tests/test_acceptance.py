"""Acceptance gate: the nine headline results, one test per criterion.

Each test prints a single summary line (visible even without ``-s``) of the
form::

    criterion 3 ray-damping: PASS — decay_rel=7.5e-05 (<0.01); ...; 0.02s

so a full run reads as a checklist of every quantitative claim the package
makes, at the stated tolerances.
"""

import math
import time

import numpy as np

from kanai_cavity.core import FrictionProfile, fundamental_solutions
from kanai_cavity.errors import MappingError
from kanai_cavity.kanai import (
    GaussianWavepacket,
    cavity_equation_coefficients,
    crosscheck_engines,
    map_parameters,
    moments,
    quantum_equation_coefficients,
)
from kanai_cavity.paraxial import (
    ResonatorGeometry,
    round_trip_elements,
    round_trip_matrix,
    stability,
    stability_map,
)
from kanai_cavity.raysim import (
    fit_damped_oscillation,
    fit_envelope_rate,
    iterate_ray,
    lissajous,
    pattern_radius,
)
from kanai_cavity.schedule import MirrorSchedule
from kanai_cavity.wavesim import (
    GaussianBeam,
    eigenmode_beam,
    fresnel_round_trip,
    inner_product,
    run_collapse,
    sample_beam,
)
from oracles import count_stable_domains, iterate_ray_difference, propagation

GEOM0 = ResonatorGeometry(1.7, 1.5)
MATRIX0 = round_trip_matrix(GEOM0)
THETA = stability(MATRIX0).theta
WAVELENGTH = 1e-4


def _report(capsys, number, slug, checks, runtime, budget):
    """Print one pass/fail line for a criterion and assert it."""
    ok = all(flag for flag, _ in checks)
    parts = [text for _, text in checks]
    if budget is not None:
        ok = ok and runtime < budget
        parts.append("%.2fs (<%gs)" % (runtime, budget))
    else:
        parts.append("%.2fs" % runtime)
    line = "criterion %d %s: %s — %s" % (
        number, slug, "PASS" if ok else "FAIL", "; ".join(parts))
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _below(label, value, bound):
    return (value < bound, "%s=%.3g (<%.3g)" % (label, value, bound))


def test_criterion_01_stability_geometry(capsys):
    t0 = time.perf_counter()
    theta_err = abs(THETA - 1.875)
    domains = count_stable_domains(stability_map((0.0, 4.0), (0.0, 4.0), 400))
    runtime = time.perf_counter() - t0
    checks = [
        _below("theta_err", theta_err, 5e-3),
        (domains == 2, "stable_domains=%d (==2)" % domains),
    ]
    _report(capsys, 1, "stability-geometry", checks, runtime, 1.0)


def test_criterion_02_matrix_element_laws(capsys):
    t0 = time.perf_counter()
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    n = np.arange(0.0, 3001.0)
    a, b, c = sched.elements_at(n)
    g = gamma * n
    drift = max(
        np.max(np.abs(a / sched.a0 - 1.0)),
        np.max(np.abs(b * np.exp(g) / sched.b0 - 1.0)),
        np.max(np.abs(c * np.exp(-g) / sched.c0 - 1.0)),
    )
    runtime = time.perf_counter() - t0
    checks = [_below("max_rel_drift", drift, 1e-10)]
    _report(capsys, 2, "matrix-element-laws", checks, runtime, 1.0)


def test_criterion_03_ray_damping(capsys):
    t0 = time.perf_counter()
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    trace = iterate_ray(sched, (1.0, 0.0), 5000)
    fit = fit_damped_oscillation(trace.n, trace.x)
    decay_rel = abs(fit["decay_rate"] / (gamma / 2.0) - 1.0)
    period_rel = abs(fit["period"] / (2.0 * math.pi / THETA) - 1.0)
    recurrence = iterate_ray_difference(THETA, gamma, trace.x[0], trace.x[1],
                                        5000)
    mismatch = np.max(np.abs(recurrence - trace.x))
    runtime = time.perf_counter() - t0
    checks = [
        _below("decay_rel", decay_rel, 0.01),
        _below("period_rel", period_rel, 0.01),
        (mismatch <= 1e-9, "matrix_vs_recurrence=%.3g (<=1e-09)" % mismatch),
    ]
    _report(capsys, 3, "ray-damping", checks, runtime, 1.0)


def test_criterion_04_lissajous_contraction(capsys):
    t0 = time.perf_counter()
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    trace = lissajous(sched, (1.0, 0.0, 0.7, 0.5), 5000)
    radius = pattern_radius(sched, trace)
    lag = int(math.ceil(2.0 * math.pi / THETA))
    running = np.array([radius[i:i + lag + 1].max()
                        for i in range(radius.size - lag)])
    monotone = bool(np.all(np.diff(running) < 0.0))
    slope = fit_envelope_rate(trace.n, radius)
    slope_rel = abs(slope / (-gamma / 2.0) - 1.0)
    runtime = time.perf_counter() - t0
    checks = [
        (monotone, "per_period_radius_strictly_decreasing=%s" % monotone),
        _below("envelope_slope_rel", slope_rel, 0.02),
    ]
    _report(capsys, 4, "lissajous-contraction", checks, runtime, 1.0)


def test_criterion_05_collapse_law(capsys):
    t0 = time.perf_counter()
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    beam = eigenmode_beam(MATRIX0)
    trace = run_collapse(sched, beam, 3000, "gaussian_q",
                         wavelength=WAVELENGTH)
    sol = fundamental_solutions(THETA, FrictionProfile.constant(gamma))
    law = np.sqrt(sol.u2(trace.n) ** 2 + THETA ** 2 * sol.u1(trace.n) ** 2)
    law_dev = np.max(np.abs(trace.w1 / trace.w1[0] - law))
    target = (WAVELENGTH / math.pi) * math.sqrt((1.0 - math.cos(THETA)) / 2.0)
    product_dev = np.max(np.abs(trace.w1 * trace.w2 / target - 1.0))
    runtime = time.perf_counter() - t0
    checks = [
        _below("collapse_law_dev", law_dev, 1e-3),
        _below("product_rel_dev", product_dev, 1e-6),
    ]
    _report(capsys, 5, "collapse-law", checks, runtime, 1.0)


def test_criterion_06_grid_engine_fidelity(capsys):
    t0 = time.perf_counter()
    n_grid = 4096
    dx = math.sqrt(WAVELENGTH * abs(MATRIX0.b) / n_grid)
    mode = sample_beam(eigenmode_beam(MATRIX0), WAVELENGTH, n_grid, dx)
    field = mode
    norm_drift = 0.0
    overlap_deficit = 0.0
    for _ in range(100):
        field = fresnel_round_trip(field, MATRIX0)
        norm_drift = max(norm_drift, abs(field.norm_sq() - 1.0))
        overlap = abs(inner_product(mode, field))
        overlap_deficit = max(overlap_deficit, 1.0 - overlap)
    free_dev = 0.0
    for distance in (0.37, 1.0, 2.6):
        matrix = propagation(distance)
        out = fresnel_round_trip(mode, matrix)
        beam = eigenmode_beam(MATRIX0)
        q_out = (matrix.a * beam.q + matrix.b) / (matrix.c * beam.q + matrix.d)
        ref = sample_beam(GaussianBeam(q_out), WAVELENGTH, n_grid, out.dx)
        phase = inner_product(ref, out)
        phase /= abs(phase)
        free_dev = max(free_dev, np.linalg.norm(out.samples - phase
                                                * ref.samples)
                       / np.linalg.norm(ref.samples))
    runtime = time.perf_counter() - t0
    checks = [
        _below("norm_drift", norm_drift, 1e-6),
        _below("overlap_deficit", overlap_deficit, 1e-6),
        _below("free_prop_l2", free_dev, 1e-8),
    ]
    _report(capsys, 6, "grid-engine-fidelity", checks, runtime, None)


def test_criterion_07_three_way_oracle(capsys):
    t0 = time.perf_counter()
    gamma = 1e-2
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    x0 = eigenmode_beam(MATRIX0).spot_size(WAVELENGTH)
    records = crosscheck_engines(sched, WAVELENGTH, 200, center=x0)
    ray = iterate_ray(sched, (x0, 0.0), 200).x
    wave = np.array([r["centroid_wave"] for r in records])
    analytic = np.array([r["centroid_analytic"] for r in records])
    pair_dev = max(
        np.max(np.abs(wave - analytic)),
        np.max(np.abs(wave - ray)),
        np.max(np.abs(analytic - ray)),
    ) / x0
    l2_max = max(r["l2_distance"] for r in records)
    runtime = time.perf_counter() - t0
    checks = [
        _below("centroid_mutual_dev", pair_dev, 0.01),
        _below("field_l2", l2_max, 1e-2),
    ]
    _report(capsys, 7, "three-way-oracle", checks, runtime, 60.0)


def test_criterion_08_quantum_collapse(capsys):
    t0 = time.perf_counter()
    gamma = 1e-3
    params = map_parameters(GEOM0, WAVELENGTH)
    sol = fundamental_solutions(params.omega, FrictionProfile.constant(gamma))
    width0 = eigenmode_beam(MATRIX0).spot_size(WAVELENGTH) / 2.0
    packet = GaussianWavepacket(width=width0)
    n = np.arange(0.0, 5.0 / gamma + 1.0)
    _, delta_x = moments(packet, sol, params, n)
    omega_r = math.sqrt(params.omega ** 2 - gamma ** 2 / 4.0)
    lag = int(math.ceil(2.0 * math.pi / omega_r))
    running = np.array([delta_x[i:i + lag + 1].max()
                        for i in range(delta_x.size - lag)])
    monotone = bool(np.all(np.diff(running) < 0.0))
    ratio = delta_x[-1] / delta_x[0]
    runtime = time.perf_counter() - t0
    checks = [
        (monotone, "period_monotone=%s" % monotone),
        _below("width_ratio_at_5_over_gamma", ratio, math.exp(-2.0)),
    ]
    _report(capsys, 8, "quantum-collapse", checks, runtime, 1.0)


def test_criterion_09_wronskian_and_mapping(capsys):
    t0 = time.perf_counter()
    wronskian_dev = 0.0
    for gamma in (1e-3, 1e-2):
        sol = fundamental_solutions(THETA, FrictionProfile.constant(gamma))
        n = np.linspace(0.0, 3000.0, 1501)
        wronskian_dev = max(wronskian_dev, np.max(
            np.abs(sol.wronskian(n) - np.exp(-gamma * n))))

    rng = np.random.default_rng(42)
    k = 2.0 * math.pi / WAVELENGTH
    coeff_dev = 0.0
    accepted = 0
    while accepted < 100:
        l1, l2 = rng.uniform(0.0, 4.0, size=2)
        a, b, c = round_trip_elements(l1, l2)
        if abs(a) > 0.99:
            continue
        geom = ResonatorGeometry(l1, l2)
        try:
            params = map_parameters(geom, WAVELENGTH)
        except MappingError:
            continue
        accepted += 1
        theta = stability(round_trip_matrix(geom)).theta
        g = rng.uniform(0.0, 2.0)
        kin_c, pot_c = cavity_equation_coefficients(b, c, theta, k, g)
        kin_q, pot_q = quantum_equation_coefficients(params, g)
        coeff_dev = max(coeff_dev, abs(kin_c / kin_q - 1.0),
                        abs(pot_c / pot_q - 1.0))
    runtime = time.perf_counter() - t0
    checks = [
        _below("wronskian_dev", wronskian_dev, 1e-9),
        _below("coefficient_identity_dev", coeff_dev, 1e-12),
    ]
    _report(capsys, 9, "wronskian-and-mapping", checks, runtime, None)
