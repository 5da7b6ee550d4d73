"""Tests for ray iteration through the time-varying cavity."""

import math

import numpy as np
import pytest

from kanai_cavity.core import FrictionProfile, OscillatorParams, fundamental_solutions
from kanai_cavity.errors import ValidationError
from kanai_cavity.paraxial import ResonatorGeometry, round_trip_matrix, stability
from kanai_cavity.raysim import (
    RayState,
    courant_snyder_invariant,
    fit_damped_oscillation,
    fit_envelope_rate,
    iterate_ray,
    lissajous,
    pattern_radius,
)
from kanai_cavity.schedule import MirrorSchedule
from oracles import characteristic_roots, iterate_ray_difference

GEOM0 = ResonatorGeometry(1.7, 1.5)
THETA = stability(round_trip_matrix(GEOM0)).theta


def make_schedule(gamma):
    return MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))


# ---------------------------------------------------------------------------
# matrix iteration


def test_fixed_cavity_conserves_quadratic_invariant():
    sched = make_schedule(0.0)
    trace = iterate_ray(sched, RayState(1.0, 0.0), 100)
    m = round_trip_matrix(GEOM0)
    inv = courant_snyder_invariant(m, trace.x, trace.xp)
    assert np.max(np.abs(inv / inv[0] - 1.0)) < 1e-10


def test_trace_shape_and_initial_state():
    sched = make_schedule(1e-3)
    trace = iterate_ray(sched, RayState(0.25, -0.1), 10)
    assert trace.n.shape == (11,)
    assert trace.x[0] == 0.25 and trace.xp[0] == -0.1


def test_damped_trace_envelope_and_period():
    sched = make_schedule(1e-3)
    trace = iterate_ray(sched, RayState(1.0, 0.0), 5000)
    fit = fit_damped_oscillation(trace.n, trace.x)
    assert abs(fit["decay_rate"] / (1e-3 / 2.0) - 1.0) < 0.01
    assert abs(fit["period"] / (2.0 * math.pi / THETA) - 1.0) < 0.01


def test_ray_matches_continuum_solution():
    # adiabatic limit: the stroboscopic ray equals u2 with omega = theta
    gamma = 1e-3
    sched = make_schedule(gamma)
    trace = iterate_ray(sched, RayState(1.0, 0.0), 5000)
    sol = fundamental_solutions(OscillatorParams(THETA, FrictionProfile.constant(gamma)))
    dev = np.max(np.abs(trace.x - sol.u2(trace.n.astype(float))))
    assert dev < 0.01


def test_iterate_ray_validation():
    sched = make_schedule(1e-3)
    with pytest.raises(ValidationError):
        iterate_ray(sched, RayState(1.0, 0.0), 0)


# ---------------------------------------------------------------------------
# difference-equation form


def test_undamped_difference_is_chebyshev():
    n_max = 200
    x = iterate_ray_difference(THETA, 0.0, 1.0, math.cos(THETA), n_max)
    n = np.arange(n_max + 1)
    assert np.max(np.abs(x - np.cos(n * THETA))) < 1e-9


def test_difference_matches_matrix_iteration():
    for gamma in (0.0, 1e-3, 1e-2):
        sched = make_schedule(gamma)
        trace = iterate_ray(sched, RayState(1.0, 0.0), 5000)
        # consistent seeding: one matrix application gives x1
        x = iterate_ray_difference(THETA, gamma, trace.x[0], trace.x[1], 5000)
        assert np.max(np.abs(x - trace.x)) < 1e-9, gamma


def test_general_profile_recurrence_residual():
    # matrix-iterated trace satisfies the two-step recurrence built from the
    # schedule's own elements, for a non-exponential tabulated profile
    nodes = np.linspace(0.0, 200.0, 81)
    g = 2e-3 * nodes + 3e-3 * (1.0 - np.cos(0.05 * nodes))
    sched = MirrorSchedule(GEOM0, FrictionProfile.tabulated(nodes, g))
    trace = iterate_ray(sched, RayState(1.0, 0.0), 150)
    worst = 0.0
    for i in range(1, 150):
        a_prev, b_prev, _ = sched.elements_at(float(i - 1))
        a_next, b_next, _ = sched.elements_at(float(i))
        resid = (trace.x[i + 1] + (b_next / b_prev) * trace.x[i - 1]
                 - (a_next + b_next * a_prev / b_prev) * trace.x[i])
        worst = max(worst, abs(resid))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# characteristic roots


def test_undamped_roots_on_unit_circle():
    mu1, mu2 = characteristic_roots(THETA, 0.0)
    assert abs(abs(mu1) - 1.0) < 1e-15
    assert abs(abs(mu2) - 1.0) < 1e-15
    assert abs(mu1 - np.exp(1j * THETA)) < 1e-15


def test_damped_roots_modulus_and_argument():
    gamma = 1e-3
    mu1, mu2 = characteristic_roots(THETA, gamma)
    assert abs(abs(mu1) - math.exp(-gamma / 2.0)) < 1e-15
    assert abs(abs(mu2) - math.exp(-gamma / 2.0)) < 1e-15
    # Vieta: product is exactly e^{-gamma}
    assert abs(mu1 * mu2 - math.exp(-gamma)) < 1e-15
    assert abs(mu1 + mu2 - math.cos(THETA) * (1.0 + math.exp(-gamma))) < 1e-15
    # the rotation rate matches theta to O(gamma^2)
    assert abs(abs(np.angle(mu1)) - THETA) < 10.0 * gamma ** 2


def test_root_superposition_reproduces_recurrence():
    gamma = 1e-3
    mu1, mu2 = characteristic_roots(THETA, gamma)
    x0, x1 = 1.0, math.cos(THETA)
    x = iterate_ray_difference(THETA, gamma, x0, x1, 5000)
    # solve alpha + beta = x0, alpha mu1 + beta mu2 = x1
    alpha = (x1 - mu2 * x0) / (mu1 - mu2)
    beta = x0 - alpha
    n = np.arange(5001)
    closed = (alpha * mu1 ** n + beta * mu2 ** n).real
    assert np.max(np.abs(closed - x)) < 1e-9


# ---------------------------------------------------------------------------
# two-dimensional pattern


def test_lissajous_contracts():
    sched = make_schedule(1e-3)
    trace = lissajous(sched, (1.0, 0.0, 0.7, 0.5), 5000)
    radius = pattern_radius(trace)
    rate = fit_envelope_rate(trace.n, radius)
    assert abs(rate / (-1e-3 / 2.0) - 1.0) < 1e-3
    assert radius[-1] < 0.1 * radius[0]


def test_undamped_lissajous_is_stationary():
    sched = make_schedule(0.0)
    trace = lissajous(sched, (1.0, 0.0, 0.7, 0.5), 2000)
    radius = pattern_radius(trace)
    assert np.max(np.abs(radius / radius[0] - 1.0)) < 1e-9


def test_zero_initial_conditions_stay_at_origin():
    sched = make_schedule(1e-3)
    trace = lissajous(sched, (0.0, 0.0, 0.0, 0.0), 50)
    assert np.max(np.abs(trace.x)) == 0.0
    assert np.max(np.abs(trace.y)) == 0.0


# ---------------------------------------------------------------------------
# fitting helpers


def test_fit_damped_oscillation_on_synthetic_data():
    n = np.arange(4000, dtype=float)
    rate, omega = 7.5e-4, 1.3
    x = np.exp(-rate * n) * np.cos(omega * n)
    fit = fit_damped_oscillation(n, x)
    assert abs(fit["decay_rate"] / rate - 1.0) < 0.01
    assert abs(fit["period"] / (2.0 * math.pi / omega) - 1.0) < 0.01


def test_fit_requires_enough_structure():
    n = np.arange(5, dtype=float)
    with pytest.raises(ValidationError):
        fit_damped_oscillation(n, np.ones(5))


# ---------------------------------------------------------------------------
# bit-for-bit oracle: the per-trip loops the ray traces were written with


def reference_elements(sched, n_max):
    a, b, c = sched.elements_at(np.arange(n_max, dtype=float))
    return np.broadcast_to(a, b.shape).tolist(), b.tolist(), c.tolist()


def reference_ray(sched, x0, xp0, n_max):
    a_list, b_list, c_list = reference_elements(sched, n_max)
    x, xp = [x0], [xp0]
    xc, xpc = x0, xp0
    for k in range(n_max):
        a, b, c = a_list[k], b_list[k], c_list[k]
        xc, xpc = a * xc + b * xpc, c * xc + a * xpc
        x.append(xc)
        xp.append(xpc)
    return x, xp


def reference_lissajous(sched, init2d, n_max):
    x0, xp0, y0, yp0 = (float(v) for v in init2d)
    x, xp = reference_ray(sched, x0, xp0, n_max)
    y, yp = reference_ray(sched, y0, yp0, n_max)
    return x, xp, y, yp


def float_bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def random_start(rng):
    """One start value: ordinary, a signed zero, tiny, or huge."""
    kind = rng.integers(6)
    sign = rng.choice((-1.0, 1.0))
    if kind == 0:
        return sign * 0.0
    if kind == 1:
        return sign * rng.uniform(0.5, 2.0) * 1e-300
    if kind == 2:
        return sign * 5e-324
    if kind == 3:
        return sign * rng.uniform(0.5, 2.0) * 1e200
    if kind == 4:
        return sign * rng.uniform(0.5, 1.7) * 1e308
    return rng.uniform(-2.0, 2.0)


def random_schedule(rng, seed, n_max):
    """A strictly stable upper-domain schedule with seeded friction.

    Every third seed is tabulated (with flat stretches); the others are
    constant, gamma = 0 on every fifth seed and gamma = 1 (so e^{g}
    overflows within a thousand trips) on every seventh.
    """
    theta = rng.uniform(0.2, 3.0)
    h = (1.0 - math.cos(theta)) / 2.0
    s2 = rng.uniform(1.05, 3.0)
    f = rng.choice((1.0, 0.37, 12.5))
    geom = ResonatorGeometry(f * (s2 - h) / (s2 - 1.0), f * s2, f)
    if seed % 3 == 0:
        step = float(rng.integers(1, 60))
        count = max(2, int(math.ceil(n_max / step)) + 2)
        rises = rng.uniform(0.0, 2e-3, count - 1) * step
        rises[rng.random(count - 1) < 0.2] = 0.0
        nodes = np.arange(count) * step
        friction = FrictionProfile.tabulated(
            nodes, np.concatenate(([0.0], np.cumsum(rises))))
    elif seed % 5 == 0:
        friction = FrictionProfile.constant(0.0)
    elif seed % 7 == 0:
        friction = FrictionProfile.constant(1.0)
    else:
        friction = FrictionProfile.constant(10.0 ** rng.uniform(-6.0, -1.0))
    return MirrorSchedule(geom, friction)


@pytest.mark.parametrize("block", range(4))
def test_ray_traces_match_the_per_trip_loops_bit_for_bit(block):
    """iterate_ray and lissajous against the reference loops on 240 seeded
    schedules (60 per block): n_max from 1 to 4000, starts from +-0.0 to
    overflow, every float64 bit pattern of x, x', y and y' compared."""
    with np.errstate(all="ignore"):
        for seed in range(60 * block, 60 * (block + 1)):
            rng = np.random.default_rng(seed)
            n_max = int(rng.choice(
                (1, 2, 3, rng.integers(4, 200), rng.integers(200, 4001))))
            sched = random_schedule(rng, seed, n_max)
            init = [random_start(rng) for _ in range(4)]

            trace = iterate_ray(sched, RayState(init[0], init[1]), n_max)
            x, xp = reference_ray(sched, init[0], init[1], n_max)
            assert np.array_equal(trace.n, np.arange(n_max + 1)), seed
            assert np.array_equal(float_bits(trace.x), float_bits(x)), seed
            assert np.array_equal(float_bits(trace.xp), float_bits(xp)), seed

            trace = lissajous(sched, init, n_max)
            expected = reference_lissajous(sched, init, n_max)
            got = (trace.x, trace.xp, trace.y, trace.yp)
            assert np.array_equal(trace.n, np.arange(n_max + 1)), seed
            for axis, ref in zip(got, expected):
                assert np.array_equal(float_bits(axis), float_bits(ref)), seed
