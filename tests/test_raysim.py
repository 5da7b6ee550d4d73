"""Tests for ray iteration through the time-varying cavity."""

import math

import numpy as np
import pytest

from kanai_cavity.core import FrictionProfile, fundamental_solutions
from kanai_cavity.errors import ValidationError
from kanai_cavity.paraxial import ResonatorGeometry, round_trip_matrix, stability
from kanai_cavity.raysim import (
    courant_snyder_invariant,
    fit_damped_oscillation,
    fit_envelope_rate,
    iterate_ray,
    lissajous,
    pattern_radius,
)
from kanai_cavity.schedule import MirrorSchedule
from oracles import (characteristic_roots, iterate_ray_difference,
                     stepwise_products)

GEOM0 = ResonatorGeometry(1.7, 1.5)
THETA = stability(round_trip_matrix(GEOM0)).theta


def make_schedule(gamma):
    return MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))


# ---------------------------------------------------------------------------
# matrix iteration


def test_fixed_cavity_conserves_quadratic_invariant():
    sched = make_schedule(0.0)
    trace = iterate_ray(sched, (1.0, 0.0), 100)
    m = round_trip_matrix(GEOM0)
    inv = courant_snyder_invariant(m, trace.x, trace.xp)
    assert np.max(np.abs(inv / inv[0] - 1.0)) < 1e-10


def test_trace_shape_and_initial_state():
    sched = make_schedule(1e-3)
    trace = iterate_ray(sched, (0.25, -0.1), 10)
    assert trace.n.shape == (11,)
    assert trace.x[0] == 0.25 and trace.xp[0] == -0.1


def test_ray_start_types_give_the_same_bits():
    """The start pair may hold ints or numpy scalars: each gives the trace
    of the float start bit for bit, and the trace is float64.  A complex
    start is refused, not carried as a complex trace."""
    sched = make_schedule(1e-3)
    want = iterate_ray(sched, (1.0, 0.0), 300)
    for start in ((1, 0), (np.float32(1), np.int64(0))):
        got = iterate_ray(sched, start, 300)
        assert got.x.dtype == got.xp.dtype == np.float64
        assert got.x.tobytes() == want.x.tobytes(), start
        assert got.xp.tobytes() == want.xp.tobytes(), start
    with pytest.raises(TypeError):
        iterate_ray(sched, (1j, 0.0), 300)


def test_damped_trace_envelope_and_period():
    sched = make_schedule(1e-3)
    trace = iterate_ray(sched, (1.0, 0.0), 5000)
    fit = fit_damped_oscillation(trace.n, trace.x)
    assert abs(fit["decay_rate"] / (1e-3 / 2.0) - 1.0) < 0.01
    assert abs(fit["period"] / (2.0 * math.pi / THETA) - 1.0) < 0.01


def test_ray_matches_continuum_solution():
    # adiabatic limit: the stroboscopic ray equals u2 with omega = theta
    gamma = 1e-3
    sched = make_schedule(gamma)
    trace = iterate_ray(sched, (1.0, 0.0), 5000)
    sol = fundamental_solutions(THETA, FrictionProfile.constant(gamma))
    dev = np.max(np.abs(trace.x - sol.u2(trace.n.astype(float))))
    assert dev < 0.01


def test_iterate_ray_validation():
    sched = make_schedule(1e-3)
    with pytest.raises(ValidationError):
        iterate_ray(sched, (1.0, 0.0), 0)


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
        trace = iterate_ray(sched, (1.0, 0.0), 5000)
        # consistent seeding: one matrix application gives x1
        x = iterate_ray_difference(THETA, gamma, trace.x[0], trace.x[1], 5000)
        assert np.max(np.abs(x - trace.x)) < 1e-9, gamma


def test_general_profile_recurrence_residual():
    # matrix-iterated trace satisfies the two-step recurrence built from the
    # schedule's own elements, for a non-exponential tabulated profile
    nodes = np.linspace(0.0, 200.0, 81)
    g = 2e-3 * nodes + 3e-3 * (1.0 - np.cos(0.05 * nodes))
    sched = MirrorSchedule(GEOM0, FrictionProfile.tabulated(nodes, g))
    trace = iterate_ray(sched, (1.0, 0.0), 150)
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
    radius = pattern_radius(sched, trace)
    rate = fit_envelope_rate(trace.n, radius)
    assert abs(rate / (-1e-3 / 2.0) - 1.0) < 1e-3
    assert radius[-1] < 0.1 * radius[0]


def test_undamped_lissajous_is_stationary():
    sched = make_schedule(0.0)
    trace = lissajous(sched, (1.0, 0.0, 0.7, 0.5), 2000)
    radius = pattern_radius(sched, trace)
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
# oracle: the running products carried one trip at a time


#: Largest deviation of a ray column from the one-trip-at-a-time products,
#: relative to the column's largest magnitude (1.0e-13 was the worst of
#: 1,000 seeded schedules).
SCAN_TOL = 2e-13
#: The comparison stops at the first trip where the reference leaves this
#: range: past it, under- and overflow decide the reference's low digits.
NORMAL_RANGE = (1e-280, 1e280)


def start_value(rng):
    """One start value: a signed zero, ordinary, small or large."""
    kind = rng.integers(4)
    sign = rng.choice((-1.0, 1.0))
    if kind == 0:
        return sign * 0.0
    if kind == 1:
        return sign * 10.0 ** rng.uniform(-100.0, -1.0)
    if kind == 2:
        return sign * 10.0 ** rng.uniform(1.0, 100.0)
    return rng.uniform(-2.0, 2.0)


def assert_follows_stepwise(got, sched, start, n_max, seed):
    """``got`` against ``stepwise_products`` of the trip matrices, one trip
    at a time, up to the first trip outside ``NORMAL_RANGE``."""
    a, b, c = sched.elements_at(np.arange(n_max, dtype=float))
    ref = stepwise_products((a, b, c, a), start)
    mag = np.abs(ref)
    inside = (mag == 0.0) | ((mag >= NORMAL_RANGE[0])
                             & (mag <= NORMAL_RANGE[1]))
    stop = np.flatnonzero(~inside.all(axis=1))
    stop = stop[0] if stop.size else n_max + 1
    got, ref = got[:stop], ref[:stop]
    assert np.isfinite(got).all(), seed
    scale = np.max(np.abs(ref), axis=0)
    assert (np.max(np.abs(got - ref), axis=0) <= SCAN_TOL * scale).all(), seed


def random_schedule(rng, seed, n_max):
    """A strictly stable upper-domain schedule with seeded friction.

    Every third seed is tabulated (with flat stretches); the others are
    constant, gamma = 0 on every fifth seed and gamma = 1 (so e^{g}
    overflows within a thousand trips) on every seventh.
    """
    theta = rng.uniform(0.2, 3.0)
    h = (1.0 - math.cos(theta)) / 2.0
    s2 = rng.uniform(1.05, 3.0)
    geom = ResonatorGeometry((s2 - h) / (s2 - 1.0), s2)
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
def test_ray_traces_follow_the_stepwise_products(block):
    """iterate_ray and lissajous against the trip matrices carried one trip
    at a time on 240 seeded schedules (60 per block): n_max from 1 to 4000,
    starts from +-0.0 to 1e+-100, every column within ``SCAN_TOL`` of its
    largest magnitude."""
    with np.errstate(all="ignore"):
        for seed in range(60 * block, 60 * (block + 1)):
            rng = np.random.default_rng(seed)
            n_max = int(rng.choice(
                (1, 2, 3, rng.integers(4, 200), rng.integers(200, 4001))))
            sched = random_schedule(rng, seed, n_max)
            x0, xp0, y0, yp0 = (start_value(rng) for _ in range(4))

            trace = iterate_ray(sched, (x0, xp0), n_max)
            assert np.array_equal(trace.n, np.arange(n_max + 1)), seed
            zeros = np.zeros(n_max + 1)
            got = np.stack((trace.x, zeros, trace.xp, zeros), axis=1)
            assert_follows_stepwise(got, sched, (x0, 0.0, xp0, 0.0), n_max,
                                    seed)

            trace = lissajous(sched, (x0, xp0, y0, yp0), n_max)
            assert np.array_equal(trace.n, np.arange(n_max + 1)), seed
            got = np.stack((trace.x, trace.y, trace.xp, trace.yp), axis=1)
            assert_follows_stepwise(got, sched, (x0, y0, xp0, yp0), n_max,
                                    seed)
