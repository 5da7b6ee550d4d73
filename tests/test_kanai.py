"""Tests for the exact quantum side and the cavity-quantum mapping."""

import math

import numpy as np
import pytest

from kanai_cavity import kanai
from kanai_cavity.core import FrictionProfile, fundamental_solutions
from kanai_cavity.errors import MappingError, NearCausticError, ValidationError
from kanai_cavity.kanai import (
    GaussianWavepacket,
    QuantumParams,
    cavity_equation_coefficients,
    crosscheck_engines,
    free_gaussian,
    kanai_propagate,
    map_parameters,
    moments,
    quantum_equation_coefficients,
)
from kanai_cavity.paraxial import (AbcdMatrix, ResonatorGeometry,
                                   round_trip_matrix, stability)
from kanai_cavity.raysim import iterate_ray
from kanai_cavity.schedule import MirrorSchedule
from kanai_cavity.wavesim import (DEFAULT_WINDOW_FACTOR, ComplexField,
                                  GaussianBeam, eigenmode_beam,
                                  fresnel_round_trip, grid_trips,
                                  phase_aligned_l2, run_collapse, sample_beam)
import grid_oracles

GEOM0 = ResonatorGeometry(1.7, 1.5)
THETA = stability(round_trip_matrix(GEOM0)).theta
WAVELENGTH = 1e-4
PARAMS = map_parameters(GEOM0, WAVELENGTH)
SPOT0 = eigenmode_beam(round_trip_matrix(GEOM0)).spot_size(WAVELENGTH)


def propagator_grid(n_samples=2048, halfwidth=8.0 * SPOT0):
    dx = 2.0 * halfwidth / n_samples
    return (np.arange(n_samples) - n_samples // 2) * dx


# ---------------------------------------------------------------------------
# parameter mapping


def test_mapped_parameter_values():
    assert abs(PARAMS.hbar_eff - WAVELENGTH / (2.0 * math.pi)) < 1e-18
    assert abs(PARAMS.omega - THETA) < 1e-15
    # m = (1/theta) sqrt(-C/B) with B = -0.91, C = 1
    expected_mass = math.sqrt(1.0 / 0.91) / THETA
    assert abs(PARAMS.mass_eff - expected_mass) < 1e-12
    assert abs(PARAMS.mass_eff - 0.559) < 1e-3
    # hbar * k = 1 identically
    assert abs(PARAMS.hbar_eff * (2.0 * math.pi / WAVELENGTH) - 1.0) < 1e-15


def test_mapping_consistency_identity():
    # the same mass from the two algebraic routes: -sin(theta)/(theta B) and
    # (1/theta) sqrt(-C/B); they agree because B C = A^2 - 1 = -sin^2(theta)
    m = round_trip_matrix(GEOM0)
    mass_from_b = -math.sin(THETA) / (THETA * m.b)
    assert abs(mass_from_b / PARAMS.mass_eff - 1.0) < 1e-12


def test_equation_coefficients_match():
    m = round_trip_matrix(GEOM0)
    k = 2.0 * math.pi / WAVELENGTH
    for g in (0.0, 0.5, 1.3):
        kin_c, pot_c = cavity_equation_coefficients(m.b, m.c, THETA, k, g)
        kin_q, pot_q = quantum_equation_coefficients(PARAMS, g)
        assert abs(kin_c / kin_q - 1.0) < 1e-12
        assert abs(pot_c / pot_q - 1.0) < 1e-12


def test_mapping_rejects_bad_geometries():
    with pytest.raises(MappingError):
        map_parameters(ResonatorGeometry(0.0, 0.0), WAVELENGTH)  # marginal
    with pytest.raises(MappingError):
        map_parameters(ResonatorGeometry(3.9, 3.9), WAVELENGTH)  # unstable
    with pytest.raises(MappingError):
        # lower stability domain: stable but with B > 0 (wrong mass sign)
        map_parameters(ResonatorGeometry(0.5, 0.5), WAVELENGTH)


def test_quantum_params_validation():
    with pytest.raises(ValidationError):
        QuantumParams(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        QuantumParams(1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# free-particle reference solution


def test_free_gaussian_initial_state():
    packet = GaussianWavepacket(width=1.2, center=0.4, momentum=0.0)
    x = np.linspace(-15.0, 15.0, 4001)
    phi = free_gaussian(packet, x, 0.0, 1.0, 1.0)
    dx = x[1] - x[0]
    assert abs(np.sum(np.abs(phi) ** 2) * dx - 1.0) < 1e-10
    ref = (2.0 * math.pi * 1.2 ** 2) ** (-0.25) * np.exp(
        -(x - 0.4) ** 2 / (4.0 * 1.2 ** 2))
    assert np.max(np.abs(phi - ref)) < 1e-12


def test_free_gaussian_spreading():
    sigma, hbar, mass = 0.7, 1.3, 0.9
    packet = GaussianWavepacket(width=sigma)
    t_star = 2.0 * mass * sigma ** 2 / hbar  # spreading time: width doubles in variance
    x = np.linspace(-20.0, 20.0, 8001)
    phi = free_gaussian(packet, x, t_star, hbar, mass)
    dx = x[1] - x[0]
    prob = np.abs(phi) ** 2
    mean = np.sum(prob * x) * dx
    width = math.sqrt(np.sum(prob * (x - mean) ** 2) * dx)
    assert abs(width / (math.sqrt(2.0) * sigma) - 1.0) < 1e-8


def test_free_gaussian_quadrature_norm():
    packet = GaussianWavepacket(width=1.0, momentum=0.5)
    x = np.linspace(-40.0, 40.0, 16001)
    phi = free_gaussian(packet, x, 3.0, 1.0, 1.0)
    dx = x[1] - x[0]
    assert abs(np.sum(np.abs(phi) ** 2) * dx - 1.0) < 1e-8


def test_free_gaussian_momentum_drift():
    packet = GaussianWavepacket(width=1.0, momentum=0.8)
    x = np.linspace(-30.0, 30.0, 8001)
    phi = free_gaussian(packet, x, 2.5, 1.0, 0.5)
    dx = x[1] - x[0]
    prob = np.abs(phi) ** 2
    mean = np.sum(prob * x) * dx
    assert abs(mean - 0.8 * 2.5 / 0.5) < 1e-8


# ---------------------------------------------------------------------------
# damped-oscillator propagator


def make_solution(gamma):
    return fundamental_solutions(PARAMS.omega, FrictionProfile.constant(gamma))


def test_propagator_reduces_to_packet_at_zero_time():
    sol = make_solution(1e-3)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.3 * SPOT0)
    x = propagator_grid()
    field = kanai_propagate(packet, sol, PARAMS, x, 0.0)
    phi = free_gaussian(packet, x, 0.0, PARAMS.hbar_eff, PARAMS.mass_eff)
    assert np.max(np.abs(field.samples - phi)) < 1e-12


def test_propagator_norm_conserved():
    sol = make_solution(1e-2)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.3 * SPOT0)
    x = propagator_grid()
    for n in (0.5, 3.0, 20.0, 100.0):
        field = kanai_propagate(packet, sol, PARAMS, x, n)
        assert abs(field.norm_sq() - 1.0) < 1e-8, n


def test_propagator_pde_residual():
    # fourth-order finite differences in n, second-order in x, against the
    # damped-oscillator evolution equation with time-scaled coefficients
    gamma = 1e-2
    friction = FrictionProfile.constant(gamma)
    sol = make_solution(gamma)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.3 * SPOT0)
    x = propagator_grid()
    dxg = x[1] - x[0]
    hb, ms, om = PARAMS.hbar_eff, PARAMS.mass_eff, PARAMS.omega
    step = 0.05
    worst = 0.0
    for n0 in (3.0, 7.5, 20.0):
        psi = [kanai_propagate(packet, sol, PARAMS, x, n0 + j * step).samples
               for j in (-2, -1, 0, 1, 2)]
        dpsi = (-psi[4] + 8.0 * psi[3] - 8.0 * psi[1] + psi[0]) / (12.0 * step)
        center = psi[2]
        lap = (np.roll(center, -1) - 2.0 * center + np.roll(center, 1)) / dxg ** 2
        g0, _ = friction.evaluate(n0)
        lhs = 1j * hb * dpsi
        rhs = (-(hb ** 2 / (2.0 * ms)) * math.exp(-g0) * lap
               + 0.5 * ms * om ** 2 * math.exp(g0) * x ** 2 * center)
        interior = slice(100, -100)
        worst = max(worst, np.max(np.abs((lhs - rhs)[interior]))
                    / np.max(np.abs(center)))
    assert worst < 1e-4


def test_propagator_caustic_guard():
    sol = make_solution(0.0)
    packet = GaussianWavepacket(width=SPOT0 / 2.0)
    x = propagator_grid()
    n_caustic = math.pi / (2.0 * PARAMS.omega)  # u2 = cos(omega n) = 0
    with pytest.raises(NearCausticError):
        kanai_propagate(packet, sol, PARAMS, x, n_caustic)


def test_propagator_requires_uniform_grid():
    sol = make_solution(1e-3)
    packet = GaussianWavepacket(width=SPOT0 / 2.0)
    x = np.geomspace(1e-4, 1e-1, 128)
    with pytest.raises(ValidationError):
        kanai_propagate(packet, sol, PARAMS, x, 1.0)


# ---------------------------------------------------------------------------
# moment laws


def test_moments_initial_values():
    sol = make_solution(1e-3)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.25 * SPOT0,
                                momentum=1e-5)
    x_mean, delta_x = moments(packet, sol, PARAMS, 0.0)
    assert abs(x_mean - 0.25 * SPOT0) < 1e-15
    assert abs(delta_x - SPOT0 / 2.0) < 1e-15


def test_moments_match_direct_quadrature():
    sol = make_solution(1e-2)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.3 * SPOT0)
    x = propagator_grid(4096, 10.0 * SPOT0)
    dxg = x[1] - x[0]
    for n in (1.0, 4.0, 17.0):
        field = kanai_propagate(packet, sol, PARAMS, x, n)
        prob = np.abs(field.samples) ** 2
        total = np.sum(prob) * dxg
        mean = np.sum(prob * x) * dxg / total
        width = math.sqrt(np.sum(prob * (x - mean) ** 2) * dxg / total)
        x_mean, delta_x = moments(packet, sol, PARAMS, n)
        assert abs(mean / x_mean - 1.0) < 1e-6, n
        assert abs(width / delta_x - 1.0) < 1e-6, n


def test_matched_packet_width_is_stationary_without_friction():
    sol = make_solution(0.0)
    sigma_coh = math.sqrt(PARAMS.hbar_eff / (2.0 * PARAMS.mass_eff * PARAMS.omega))
    packet = GaussianWavepacket(width=sigma_coh)
    n = np.linspace(0.0, 20.0, 200)
    # avoid the caustics of u2 where the formula is evaluated in the limit
    n = n[np.abs(np.cos(PARAMS.omega * n)) > 1e-3]
    _, delta_x = moments(packet, sol, PARAMS, n)
    assert np.max(np.abs(delta_x / sigma_coh - 1.0)) < 1e-10


def test_width_collapses_with_friction():
    gamma = 1e-3
    sol = make_solution(gamma)
    packet = GaussianWavepacket(width=SPOT0 / 2.0)
    n = np.arange(0.0, 5001.0)
    _, delta_x = moments(packet, sol, PARAMS, n)
    # per-period envelope decreases monotonically
    period = 2.0 * math.pi / math.sqrt(PARAMS.omega ** 2 - gamma ** 2 / 4.0)
    lag = int(math.ceil(period))
    running = np.array([delta_x[i:i + lag + 1].max()
                        for i in range(delta_x.size - lag)])
    assert np.all(np.diff(running) < 0.0)
    assert delta_x[-1] < 0.1 * delta_x[0]


def test_centroid_obeys_classical_equation():
    gamma = 1e-3
    sol = make_solution(gamma)
    packet = GaussianWavepacket(width=SPOT0 / 2.0, center=0.4 * SPOT0)
    h = 0.004
    n = np.arange(0.0, 40.0, h)
    x_mean, _ = moments(packet, sol, PARAMS, n)
    xdd = (x_mean[2:] - 2.0 * x_mean[1:-1] + x_mean[:-2]) / h ** 2
    xd = (x_mean[2:] - x_mean[:-2]) / (2.0 * h)
    resid = xdd + gamma * xd + PARAMS.omega ** 2 * x_mean[1:-1]
    assert np.max(np.abs(resid)) / np.max(np.abs(x_mean)) < 1e-4


# ---------------------------------------------------------------------------
# engine cross-checks


def test_crosscheck_stationary_mode():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(0.0))
    records = crosscheck_engines(sched, WAVELENGTH, 200)
    assert len(records) == 201
    assert max(r["l2_distance"] for r in records) < 1e-6


def test_crosscheck_damped_mode():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-2))
    records = crosscheck_engines(sched, WAVELENGTH, 200)
    assert max(r["l2_distance"] for r in records) < 1e-2
    widths_wave = np.array([r["width_wave"] for r in records])
    widths_analytic = np.array([r["width_analytic"] for r in records])
    assert np.max(np.abs(widths_wave / widths_analytic - 1.0)) < 1e-2


def test_crosscheck_displaced_centroids_agree_three_ways():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-2))
    x0 = SPOT0
    records = crosscheck_engines(sched, WAVELENGTH, 200, center=x0)
    ray = iterate_ray(sched, (x0, 0.0), 200).x
    wave = np.array([r["centroid_wave"] for r in records])
    analytic = np.array([r["centroid_analytic"] for r in records])
    assert np.max(np.abs(wave - analytic)) / x0 < 0.01
    assert np.max(np.abs(wave - ray)) / x0 < 0.01
    assert np.max(np.abs(analytic - ray)) / x0 < 0.01


# ---------------------------------------------------------------------------
# oracle: the analytic propagator as first written, chirp times free Gaussian


def reference_kanai_propagate(packet, sol, params, x, n):
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    u1, u2, du2 = (float(v) for v in (sol.u1(n), sol.u2(n), sol.du2(n)))
    w_ronskian = float(np.exp(-sol.friction.evaluate(n)[0]))
    hbar = params.hbar_eff
    mass = params.mass_eff
    prefactor = (u2 + 0j) ** (-0.5)
    chirp = np.exp(1j * mass * du2 * x ** 2 / (2.0 * hbar * w_ronskian * u2))
    phi = free_gaussian(packet, x / u2, u1 / u2, hbar, mass)
    return prefactor * chirp * phi


@pytest.mark.parametrize("n_samples", [2, 4, 256, 1024, 8192])
def test_propagator_matches_the_first_kernel(n_samples):
    """Centred and displaced (moving) packets at trips where u2 > 0 and
    u2 < 0, with and without friction, on the centred grid and on one
    offset by 0.37 spot sizes; relative L2 <= 1e-12 (measured: at most
    6.9e-16 over all cases)."""
    packets = (GaussianWavepacket(width=SPOT0 / 2.0),
               GaussianWavepacket(width=0.7 * SPOT0, center=0.6 * SPOT0,
                                  momentum=-3e-3))
    for x in (propagator_grid(n_samples),
              propagator_grid(n_samples) + 0.37 * SPOT0):
        for gamma in (0.0, 1e-2):
            sol = make_solution(gamma)
            for packet in packets:
                for n in (0.0, 0.5, 1.0, 2.0, 7.0, 40.25):
                    ref = reference_kanai_propagate(packet, sol, PARAMS, x, n)
                    got = kanai_propagate(packet, sol, PARAMS, x, n).samples
                    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                    assert err <= 1e-12, (x[0], gamma, packet.center, n)


@pytest.mark.parametrize("n_samples", [2, 256, 8192])
def test_propagator_in_a_chirp_frame_materialises_to_the_first_kernel(
        n_samples):
    """The analytic field in the chirp frame of a Fresnel output, rate
    beta, as the crosscheck builds it: its samples, (-1)^s exp(i beta s^2)
    times the raw ones, match the first kernel to relative L2 <= 1e-12
    for chirp rates up to the Nyquist limit (measured: at most 3.4e-13,
    the rounding of the chirp's phase, which grows as beta s^2)."""
    x = propagator_grid(n_samples)
    dx = x[1] - x[0]
    sol = make_solution(1e-2)
    packet = GaussianWavepacket(width=0.7 * SPOT0, center=0.6 * SPOT0,
                                momentum=-3e-3)
    for frame in (0.9 * math.pi / n_samples, -0.4 * math.pi / n_samples):
        for n in (0.5, 7.0):
            u1, u2, du2 = (float(f(n)) for f in (sol.u1, sol.u2, sol.du2))
            field = kanai._propagate(
                packet, PARAMS, (n_samples, x[0], dx, x[n_samples // 2]), n,
                u1, u2, du2,
                float(np.exp(-sol.friction.evaluate(n)[0])), frame)
            assert field._rate == frame
            ref = reference_kanai_propagate(packet, sol, PARAMS, x, n)
            err = np.linalg.norm(field.samples - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (frame, n)


# ---------------------------------------------------------------------------
# oracle: crosscheck records from per-trip kanai_propagate and moments calls


RECORD_FIELDS = ("l2_distance", "centroid_wave", "centroid_analytic",
                 "width_wave", "width_analytic")


def reference_crosscheck(geom0, wavelength, sched, n_max, center=0.0,
                         tilt=0.0, width_scale=1.0, grid_n=256):
    """The crosscheck loop as first written: the analytic side comes from
    one ``kanai_propagate`` and one ``moments`` call per trip, the wave side
    from the grid kernels of ``grid_oracles``, which measure every spectrum
    and post-chirp every trip, and the distance is summed directly."""
    params = map_parameters(geom0, wavelength)
    m0 = round_trip_matrix(geom0)
    beam = GaussianBeam(1j * width_scale * width_scale
                        * math.sqrt(-m0.b / m0.c), center=center, tilt=tilt)
    packet = GaussianWavepacket(beam.spot_size(wavelength) / 2.0,
                                center=center, momentum=-tilt)
    sol = fundamental_solutions(
        params.omega, sched.friction,
        n_max=n_max or min(1.0, sched.friction.n_max))
    field = sample_beam(beam, wavelength, grid_n)
    a_arr, b_arr, c_arr = sched.elements_at(
        np.arange(max(n_max, 1), dtype=float))
    records = []
    for n in range(n_max + 1):
        analytic = kanai_propagate(packet, sol, params, field.grid, float(n))
        x_mean, delta_x = moments(packet, sol, params, float(n))
        records.append({
            "n": n,
            "l2_distance": grid_oracles.aligned_l2(analytic, field),
            "centroid_wave": grid_oracles.centroid(field),
            "centroid_analytic": x_mean,
            "width_wave": grid_oracles.spot_size(field) / 2.0,
            "width_analytic": delta_x,
        })
        if n == n_max:
            break
        field = grid_oracles.fresnel_round_trip(
            field, AbcdMatrix(a_arr[n], b_arr[n], c_arr[n], a_arr[n]))
    return records


def seeded_table(seed, n_end=64.0):
    """A monotone g(n) table with nodes off the 1/8-trip grid and flat
    stretches (runs of equal g), covering [0, n_end]."""
    rng = np.random.default_rng(seed)
    n = [0.0]
    while n[-1] < n_end:
        n.append(n[-1] + rng.uniform(1.3, 9.7))
    steps = rng.uniform(2e-3, 1.2e-2, len(n) - 1)
    steps[rng.random(steps.size) < 0.3] = 0.0
    return FrictionProfile.tabulated(n, np.concatenate(([0.0],
                                                        np.cumsum(steps))))


def bit_patterns(records, fields=RECORD_FIELDS):
    return [(r["n"],) + tuple(float(r[k]).hex() for k in fields)
            for r in records]


FRICTIONS = {
    "constant": FrictionProfile.constant(5e-3),
    "table1": seeded_table(1),
    "table2": seeded_table(2),
}


@pytest.mark.parametrize("friction", sorted(FRICTIONS))
@pytest.mark.parametrize("n_max", [0, 1, 7, 60])
@pytest.mark.parametrize("center, tilt, width_scale", [
    (0.0, 0.0, 1.0), (0.7, 0.0, 1.0), (-0.5, 1e-3, 1.0), (0.7, 0.0, 1.3)],
    ids=["0.0-0.0", "0.7-0.0", "-0.5-0.001", "0.7-0.0-1.3"])
def test_crosscheck_records_match_per_trip_calls(friction, n_max, center,
                                                 tilt, width_scale):
    """Against per-trip calls and the grid kernels that measured every
    spectrum and post-chirped every trip: every float64 bit of the analytic
    columns; the wave centroid and width to <= 1e-10 of the width, and
    l2_distance to <= 1e-7, the sqrt(eps) floor of its cancelling formula
    where the fields agree to rounding (measured: at most 2.1e-8).  The
    reference writes the width-scaled eigenmode q = i ws^2 sqrt(-b/c) out
    by hand."""
    sched = MirrorSchedule(GEOM0, FRICTIONS[friction])
    kwargs = dict(center=center * SPOT0, tilt=tilt, width_scale=width_scale)
    got = crosscheck_engines(sched, WAVELENGTH, n_max, grid_n=256, **kwargs)
    ref = reference_crosscheck(GEOM0, WAVELENGTH, sched, n_max, **kwargs)
    analytic = ("centroid_analytic", "width_analytic")
    assert bit_patterns(got, analytic) == bit_patterns(ref, analytic)
    for g, r in zip(got, ref):
        for key in ("centroid_wave", "width_wave"):
            assert abs(g[key] - r[key]) <= 1e-10 * r["width_wave"], g["n"]
        assert abs(g["l2_distance"] - r["l2_distance"]) <= 1e-7, g["n"]


@pytest.mark.parametrize("friction", ["constant", "table1"])
@pytest.mark.parametrize("center, tilt", [(0.0, 0.0), (0.7, 0.0),
                                          (-0.5, 1e-3)])
def test_crosscheck_and_fresnel_collapse_step_the_same_fields(friction,
                                                              center, tilt):
    """Both commands step their fields through ``grid_trips``: the
    crosscheck's wave centroid and width are the fresnel collapse's
    centroid and w1 / 2, bit for bit, on every trip."""
    sched = MirrorSchedule(GEOM0, FRICTIONS[friction])
    beam = GaussianBeam(eigenmode_beam(round_trip_matrix(GEOM0)).q,
                        center=center * SPOT0, tilt=tilt)
    records = crosscheck_engines(sched, WAVELENGTH, 60, center=beam.center,
                                 tilt=tilt, grid_n=1024)
    trace = run_collapse(sched, beam, 60, "fresnel", wavelength=WAVELENGTH,
                         grid_n=1024)
    assert not trace.truncated
    assert ([(r["centroid_wave"].hex(), r["width_wave"].hex())
             for r in records]
            == [(float(c).hex(), float(w / 2.0).hex())
                for c, w in zip(trace.centroid, trace.w1)])


def test_a_superposition_follows_the_propagator_through_the_grid_trips():
    """Two Gaussians, weighted 1 and i, displaced by +-0.8 w and tilted by
    2e-3 and -1e-3, stepped together through 20 Fresnel trips at
    gamma = 1e-3, N = 4096: after every trip the field is the same
    weighted sum of the analytic propagator's components, taken in the
    field's chirp frame, up to one global phase.  Bound 2e-3 on the
    phase-aligned L2 (measured: at most 7.2e-4).  The components have
    different |p|, so a propagator that dropped the phase p^2 t / (2 m hbar)
    would move them against each other (measured: 0.30)."""
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    q0 = eigenmode_beam(round_trip_matrix(GEOM0)).q
    parts = [(1.0, 0.8 * SPOT0, 2e-3), (1j, -0.8 * SPOT0, -1e-3)]
    grid_n = 4096
    dx = DEFAULT_WINDOW_FACTOR * SPOT0 / grid_n
    start = sum(weight * sample_beam(GaussianBeam(q0, center, tilt),
                                     WAVELENGTH, grid_n, dx=dx).samples
                for weight, center, tilt in parts)
    packets = [(weight, GaussianWavepacket(SPOT0 / 2.0, center, -tilt))
               for weight, center, tilt in parts]
    sol = fundamental_solutions(PARAMS.omega, sched.friction)
    distances = []
    for n, field in enumerate(grid_trips(
            sched, ComplexField(start, dx, -(grid_n // 2) * dx, WAVELENGTH),
            20, fresnel_round_trip)):
        u2, u1, du2, _ = sol._eval(float(n))
        w_ronskian = math.exp(-sched.friction.evaluate(float(n))[0])
        grid = (grid_n, field.x0, field.dx,
                field.x0 + (grid_n // 2) * field.dx)
        raw = sum(weight * kanai._propagate(packet, PARAMS, grid, n, u1, u2,
                                            du2, w_ronskian, field._rate)._raw
                  for weight, packet in packets)
        analytic = ComplexField(raw, field.dx, field.x0, WAVELENGTH,
                                (field._rate, 1.0))
        distances.append(phase_aligned_l2(analytic, field))
    assert len(distances) == 21
    assert max(distances) < 2e-3, distances
