"""Tests for the wave-optics round-trip engines."""

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from kanai_cavity.core import (FrictionProfile, flow_products,
                               fundamental_solutions, magnus4_steps)
from kanai_cavity.errors import (
    BeamParameterError,
    NearFocalPlaneError,
    NearInstabilityError,
    ResolutionError,
    SamplingError,
    ValidationError,
)
from kanai_cavity.paraxial import AbcdMatrix, ResonatorGeometry, round_trip_matrix, stability
from kanai_cavity.raysim import iterate_ray
from kanai_cavity.schedule import MirrorSchedule
from kanai_cavity import core, wavesim
import grid_oracles
import oracles
from oracles import centered_grid, overlap
from kanai_cavity.wavesim import (
    ComplexField,
    GaussianBeam,
    eigenmode_beam,
    fresnel_round_trip,
    gaussian_q_trace,
    inner_product,
    phase_aligned_l2,
    run_collapse,
    sample_beam,
    split_step_round_trip,
    spot_size,
)

GEOM0 = ResonatorGeometry(1.7, 1.5)
MATRIX0 = round_trip_matrix(GEOM0)
THETA = stability(MATRIX0).theta
WAVELENGTH = 1e-4
WAVENUMBER = 2.0 * math.pi / WAVELENGTH
EIGENBEAM = eigenmode_beam(MATRIX0)
SPOT0 = EIGENBEAM.spot_size(WAVELENGTH)
# conjugate-plane uncertainty product of this cavity
PRODUCT0 = (WAVELENGTH / math.pi) * math.sqrt((1.0 - math.cos(THETA)) / 2.0)


def eigen_field(n_samples=4096, dx=None, center=0.0):
    beam = GaussianBeam(EIGENBEAM.q, center=center)
    return sample_beam(beam, WAVELENGTH, n_samples, dx=dx)


def aligned_l2(ref, out):
    """Relative L2 distance after removing one global phase."""
    ip = inner_product(ref, out)
    phase = ip / abs(ip)
    diff = out.samples - phase * ref.samples
    return math.sqrt(np.sum(np.abs(diff) ** 2) * out.dx / ref.norm_sq())


# ---------------------------------------------------------------------------
# fields and beams


def test_centered_grid_is_centered():
    x = centered_grid(8, 0.5)
    assert x[4] == 0.0 and x[0] == -2.0


def test_field_validation():
    with pytest.raises(ValidationError):
        ComplexField(np.ones(100, complex), 1e-3, 0.0, WAVELENGTH)  # not 2^k
    with pytest.raises(ValidationError):
        ComplexField(np.zeros(64, complex), 1e-3, 0.0, WAVELENGTH)  # zero norm


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                 complex(0.0, math.nan),
                                 complex(math.inf, 0.0),
                                 complex(-math.inf, 1.0),
                                 complex(0.0, -math.inf)])
def test_field_rejects_non_finite_samples(bad):
    samples = np.ones(64, complex)
    samples[5] = bad
    with pytest.raises(ValidationError, match="field samples must be finite"):
        ComplexField(samples, 1e-3, 0.0, WAVELENGTH)


def test_field_is_read_only():
    field = eigen_field(64)
    with pytest.raises(ValueError):
        field.samples[0] = 0.0
    with pytest.raises(ValueError):
        field.samples *= 2.0
    with pytest.raises(ValueError):
        field.grid[0] = 0.0
    assert field.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_beam_requires_confinement():
    with pytest.raises(ValidationError):
        GaussianBeam(1.0 - 0.5j)
    with pytest.raises(ValidationError):
        GaussianBeam(2.0 + 0.0j)


def test_eigenmode_spot_size_formula():
    expected = math.sqrt(WAVELENGTH / math.pi) * 0.91 ** 0.25
    assert abs(SPOT0 - expected) < 1e-15
    assert abs(EIGENBEAM.q - 1j * math.sqrt(0.91)) < 1e-15


def test_eigenmode_requires_strict_stability():
    with pytest.raises(ValidationError):
        eigenmode_beam(AbcdMatrix(1.0, 0.0, 0.0, 1.0))


def test_sample_beam_normalization_and_centroid():
    beam = GaussianBeam(EIGENBEAM.q, center=0.3 * SPOT0, tilt=1e-3)
    field = sample_beam(beam, WAVELENGTH, 2048)
    assert abs(field.norm_sq() - 1.0) < 1e-12
    assert abs(field.centroid() - 0.3 * SPOT0) < 1e-9 * SPOT0
    assert field.is_centered()


def test_spot_size_of_sampled_gaussian():
    w0 = 2.5e-3
    x = centered_grid(4096, 16.0 * w0 / 4096)
    psi = np.exp(-x ** 2 / w0 ** 2).astype(complex)
    field = ComplexField(psi, x[1] - x[0], x[0], WAVELENGTH)
    assert abs(spot_size(field) / w0 - 1.0) < 1e-6


def test_spot_size_ignores_phase():
    field = eigen_field(1024)
    w_plain = spot_size(field)
    chirped = field.with_samples(
        field.samples * np.exp(1j * (0.3 + 55.0 * field.grid
                                     + 4e4 * field.grid ** 2)))
    assert abs(spot_size(chirped) - w_plain) < 1e-15


def test_spot_size_needs_resolved_intensity():
    samples = np.zeros(64, complex)
    samples[32] = 1.0
    field = ComplexField(samples, 1e-3, -32e-3, WAVELENGTH)
    with pytest.raises(ResolutionError):
        spot_size(field)


# ---------------------------------------------------------------------------
# generalized Fresnel propagation


def test_free_propagation_matches_analytic_gaussian():
    for distance in (0.05, 0.37, 1.0):
        free = AbcdMatrix(1.0, distance, 0.0, 1.0)
        field = eigen_field()
        out = fresnel_round_trip(field, free)
        ref = sample_beam(GaussianBeam(EIGENBEAM.q + distance), WAVELENGTH,
                          4096, dx=out.dx)
        assert aligned_l2(ref, out) < 1e-8


def test_eigenmode_self_reproduction():
    # self-conjugate grid spacing keeps input and output grids identical
    dx_star = math.sqrt(WAVELENGTH * abs(MATRIX0.b) / 4096)
    field0 = eigen_field(dx=dx_star)
    field = field0
    worst_norm = 0.0
    worst_overlap = 0.0
    worst_spot = 0.0
    for _ in range(100):
        field = fresnel_round_trip(field, MATRIX0)
        worst_norm = max(worst_norm, abs(field.norm_sq() - 1.0))
        worst_overlap = max(worst_overlap, abs(1.0 - abs(overlap(field0, field))))
        worst_spot = max(worst_spot, abs(spot_size(field) / SPOT0 - 1.0))
    assert worst_norm < 1e-6
    assert worst_overlap < 1e-6
    assert worst_spot < 1e-6


def test_output_grid_rescales_with_b():
    field = eigen_field()
    out = fresnel_round_trip(field, MATRIX0)
    expected_dx = WAVELENGTH * abs(MATRIX0.b) / (4096 * field.dx)
    assert abs(out.dx - expected_dx) < 1e-18


def test_near_focal_plane_rejected():
    field = eigen_field(1024)
    with pytest.raises(NearFocalPlaneError):
        fresnel_round_trip(field, AbcdMatrix(1.0, 1e-12, 0.0, 1.0))


def test_non_finite_chirp_names_the_grid_spacing():
    """A window far below the spot makes the output spacing, and so the
    post-chirp, overflow: a SamplingError, not an OverflowError."""
    field = sample_beam(EIGENBEAM, WAVELENGTH, 256, window_factor=1e-300)
    with np.errstate(all="ignore"), pytest.raises(
            SamplingError, match=r"post-chirp from grid spacing 2.15e-305 "
                                 r"to 1.65e\+298 is not finite"):
        fresnel_round_trip(field, MATRIX0)


def test_aliasing_guard_suggests_larger_grid():
    field = eigen_field(32)
    with pytest.raises(SamplingError) as excinfo:
        fresnel_round_trip(field, MATRIX0)
    suggested = excinfo.value.suggested_n
    assert suggested is not None and suggested > 32
    # the suggested size actually clears the guard
    bigger = eigen_field(suggested)
    fresnel_round_trip(bigger, MATRIX0)


def test_repeated_sampling_check_raises_as_on_fresh_field():
    field = eigen_field(32)
    # a = 0 leaves only the field's own spectrum, which the grid resolves
    wavesim._check_chirp_sampling(field, 0.0, MATRIX0.b)
    with pytest.raises(SamplingError) as again:
        wavesim._check_chirp_sampling(field, MATRIX0.a, MATRIX0.b)
    with pytest.raises(SamplingError) as fresh:
        wavesim._check_chirp_sampling(eigen_field(32), MATRIX0.a, MATRIX0.b)
    assert again.value.suggested_n == fresh.value.suggested_n > 32
    assert str(again.value) == str(fresh.value)


def test_sampling_check_counts_the_spectral_mean():
    # with a = 0 only the field's spectrum counts; a tilt moves its mean to
    # tilt / lambda, which adds to the spread the grid must resolve
    field = eigen_field(64)
    wavesim._check_chirp_sampling(field, 0.0, MATRIX0.b)
    tilt = 0.7 * (0.5 / field.dx) * WAVELENGTH
    tilted = sample_beam(GaussianBeam(EIGENBEAM.q, tilt=tilt), WAVELENGTH, 64)
    assert tilted.dx == field.dx
    with pytest.raises(SamplingError):
        wavesim._check_chirp_sampling(tilted, 0.0, MATRIX0.b)


def test_sampling_support_edge_matches_the_masked_grid():
    """The support edge from the mask's first and last index has the bits
    of the maximum over the masked grid, including a one-point support."""
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = 1 << int(rng.integers(1, 11))
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * np.exp(-rng.uniform(0.0, 60.0, n))
        if trial % 4 == 0:
            samples = np.zeros(n, dtype=complex)
            samples[rng.integers(n)] = 1.0 + 0.5j
        field = ComplexField(samples, rng.uniform(1e-6, 1e-3),
                             rng.uniform(-1.0, 1.0), WAVELENGTH)
        intens = np.abs(field.samples) ** 2
        x_mean = field.centroid()
        support = field.grid[intens >= 1e-12 * intens.max()]
        expected = float(np.max(np.abs(support - x_mean))) + abs(x_mean)
        try:
            wavesim._check_chirp_sampling(field, 0.0, MATRIX0.b)
        except SamplingError:
            pass
        assert field._chirp_stats[0].hex() == expected.hex(), trial


@pytest.fixture
def fft_count(monkeypatch):
    """Count the transforms wavesim makes through numpy.fft."""
    count = [0]

    def counted(transform):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return transform(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return count


def test_fresnel_collapse_transform_count(fft_count):
    # the first field's moments: its spectrum and one inverse transform for
    # the covariance; later fields carry theirs through the trip.  Per trip
    # a half trip and a round trip; the last row needs only the half trip
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(5e-3))
    trace = run_collapse(sched, EIGENBEAM, 20, engine="fresnel",
                         wavelength=WAVELENGTH, grid_n=512)
    assert not trace.truncated
    assert fft_count[0] == 2 + 2 * 20 + 1


def test_split_step_transform_count(fft_count):
    # a fresh field: two transforms for its moments, two per piece
    field = eigen_field(256)
    split_step_round_trip(field, MATRIX0)
    assert fft_count[0] == 2 + 2
    # per trip: the row's half trip, then one piece, whose check reads the
    # carried moments; the last row needs only the half trip
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(5e-3))
    fft_count[0] = 0
    trace = run_collapse(sched, EIGENBEAM, 3, engine="split_step",
                         wavelength=WAVELENGTH, grid_n=256)
    assert not trace.truncated
    assert fft_count[0] == 2 + 3 * (1 + 2) + 1


# ---------------------------------------------------------------------------
# split-step engine


def test_split_step_spot_accuracy():
    field = eigen_field()
    ref = fresnel_round_trip(field, MATRIX0)
    out = split_step_round_trip(field, MATRIX0)
    assert abs(spot_size(out) / spot_size(ref) - 1.0) < 1e-4


def test_split_step_is_unitary():
    field = eigen_field(1024)
    out = split_step_round_trip(field, MATRIX0)
    assert abs(out.norm_sq() / field.norm_sq() - 1.0) < 1e-8


def test_split_step_pure_kinetic_matches_dispersion():
    # the continuous-time equation with c = 0 keeps only the
    # transform-space quadratic phase: free propagation over
    # b * theta / sin(theta), the matrix [[1, that], [0, 1]]
    theta, b = math.pi / 2.0, -0.3
    field = eigen_field(1024)
    effective = b * theta / math.sin(theta)
    out = split_step_round_trip(field, AbcdMatrix(1.0, effective, 0.0, 1.0))
    ref = sample_beam(GaussianBeam(EIGENBEAM.q + effective), WAVELENGTH,
                      1024, dx=field.dx)
    assert aligned_l2(ref, out) < 1e-12


def test_split_step_displaced_centroid_orbits_at_theta():
    x0 = 0.3 * SPOT0
    field = eigen_field(1024, center=x0)
    centroids = [field.centroid()]
    for _ in range(100):
        field = split_step_round_trip(field, MATRIX0)
        centroids.append(field.centroid())
    n = np.arange(101)
    dev = np.max(np.abs(np.array(centroids) - x0 * np.cos(THETA * n)))
    assert dev / x0 < 0.01


def test_split_step_validation():
    field = eigen_field(256)
    # theta = pi (a + d = -2) with a kick too steep for one piece: the trip
    # has no real half to split into
    with pytest.raises(NearInstabilityError):
        split_step_round_trip(field,
                              AbcdMatrix(-1.0, MATRIX0.b / 100.0, 0.0, -1.0))
    with pytest.raises(NearFocalPlaneError):
        split_step_round_trip(field, AbcdMatrix(1.0, 1e-12, 0.0, 1.0))


# ---------------------------------------------------------------------------
# beam-parameter flow


def test_gaussian_q_trace_follows_collapse_law():
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    trace = run_collapse(sched, EIGENBEAM, 3000, "gaussian_q",
                         wavelength=WAVELENGTH)
    sol = fundamental_solutions(THETA, FrictionProfile.constant(gamma))
    law = np.sqrt(sol.u2(trace.n) ** 2
                  + THETA ** 2 * np.asarray(sol.u1(trace.n)) ** 2)
    assert np.max(np.abs(trace.w1 / trace.w1[0] - law)) < 1e-3
    # the law itself is the slow e^{-gamma n / 2} envelope times a ripple
    assert abs(trace.w1[-1] / trace.w1[0] / math.exp(-gamma * 3000 / 2.0)
               - 1.0) < 0.05


def test_gaussian_q_uncertainty_product_constant():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    trace = run_collapse(sched, EIGENBEAM, 3000, "gaussian_q",
                         wavelength=WAVELENGTH)
    product = np.asarray(trace.w1) * np.asarray(trace.w2)
    assert np.max(np.abs(product / PRODUCT0 - 1.0)) < 1e-6


def test_gaussian_q_stationary_without_friction():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(0.0))
    trace = run_collapse(sched, EIGENBEAM, 500, "gaussian_q",
                         wavelength=WAVELENGTH)
    assert np.max(np.abs(np.asarray(trace.w1) / trace.w1[0] - 1.0)) < 1e-12


def test_gaussian_q_trace_validation():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    with pytest.raises(ValidationError):
        gaussian_q_trace(sched, 1.0 - 1j, 10)


def test_gaussian_q_zero_trips_is_the_start():
    """With n_max = 0 the flow has no step: one row, q0 on the left mirror
    and its half-trip image on the right."""
    sched = MirrorSchedule(GEOM0, seeded_q_table(np.random.default_rng(4), 50))
    q_left, q_right = gaussian_q_trace(sched, EIGENBEAM.q, 0)
    assert q_left.tolist() == [EIGENBEAM.q]
    assert q_right.tolist() == [
        wavesim.beam_round_trip(EIGENBEAM.q, sched.half_matrix_at(0.0))]


def fixed_flow(rows_at):
    """A stand-in for ``oscillator_flow`` with steps ending at the integer
    trips, whose row (u2, u1, u2', u1') at trip t is ``rows_at(t)`` (the
    identity at t = 0); it records the trip count of each call."""
    calls = []

    def flow(friction, omega_sq, n_max, halvings=0, trips=False):
        calls.append(n_max)
        return (np.arange(n_max + 1.0),
                np.array([(1.0, 0.0, 0.0, 1.0)]
                         + [rows_at(t) for t in range(1, n_max + 1)]))
    return flow, calls


def test_gaussian_q_lower_half_plane_raises(monkeypatch):
    """A flow with determinant -1 sends q0 to -q0 e^{-g}, below the real
    axis."""
    flow, _ = fixed_flow(lambda t: (1.0, 0.0, 0.0, -1.0))
    monkeypatch.setattr(wavesim, "oscillator_flow", flow)
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    with pytest.raises(BeamParameterError, match="upper half plane"):
        gaussian_q_trace(sched, EIGENBEAM.q, 4)


def test_gaussian_q_singular_flow_names_the_first_bad_trip(monkeypatch):
    """The right mirror's map is singular at trip 2 (u1 = u2 = 0) and the
    left mirror's, p21 q0 + p22 = 0, from trip 3 on: the left mirror is
    checked first, so the message names trip 3.  One flow serves both."""
    flow, calls = fixed_flow(
        lambda t: ((1.0, 0.0, 0.0, 1.0) if t < 2 else
                   (0.0, 0.0, 0.0, 1.0) if t == 2 else (1.0, 0.0, 0.0, 0.0)))
    monkeypatch.setattr(wavesim, "oscillator_flow", flow)
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    with pytest.raises(BeamParameterError,
                       match="beam-parameter flow singular at trip 3$"):
        gaussian_q_trace(sched, EIGENBEAM.q, 6)
    assert len(calls) == 1


def test_gaussian_q_nan_flow_passes_through(monkeypatch):
    """A NaN q is not a lower-half-plane q: it reaches the caller, whose
    finite-data check refuses it (exit 3 from the CLI)."""
    flow, _ = fixed_flow(lambda t: (math.nan,) * 4)
    monkeypatch.setattr(wavesim, "oscillator_flow", flow)
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    with np.errstate(invalid="ignore"):
        q_left, q_right = gaussian_q_trace(sched, EIGENBEAM.q, 3)
        trace = run_collapse(sched, EIGENBEAM, 3, "gaussian_q",
                             wavelength=WAVELENGTH)
    assert np.isfinite(q_left[0]) and np.isfinite(q_right[0])
    assert np.isnan(q_left[1:]).all() and np.isnan(q_right[1:]).all()
    assert np.isfinite(trace.w1[0]) and np.isfinite(trace.w2[0])
    assert np.isnan(trace.w1[1:]).all() and np.isnan(trace.w2[1:]).all()


@pytest.mark.parametrize("n_max", [0, 1, 7, 300])
def test_gaussian_q_carries_one_matrix_per_trip(monkeypatch, n_max):
    """One flow serves both mirrors: a single flow_products call takes the
    8 n_max Magnus steps and forms only the rows at whole trips."""
    calls = []

    def counted(steps, start=(1.0, 0.0, 0.0, 1.0), ends_only=False):
        calls.append((len(steps[0]), ends_only))
        return flow_products(steps, start, ends_only)
    monkeypatch.setattr(core, "flow_products", counted)
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    gaussian_q_trace(sched, EIGENBEAM.q, n_max)
    assert calls == [(8 * n_max, True)]


def on_grid_tables():
    """Monotone g(n) tables whose nodes all lie on the 1/8-trip grid: one
    with a node every 10 trips, as the benchmark writes them, and one with
    nodes 1/8 to 40 trips apart."""
    rng = np.random.default_rng(16)
    n_int = np.arange(0.0, 530.0, 10.0)
    n_eighth = np.concatenate(([0.0], np.cumsum(rng.integers(1, 320, 40)) / 8))
    return [FrictionProfile.tabulated(
        n, np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 2e-3, n.size - 1)
                                            * np.diff(n)))))
        for n in (n_int, n_eighth)]


def q_from_rows(sched, q0, rows):
    """(q_left, q_right) at trips 0 ... len(rows) - 1 from the flow rows
    (u2, u1, u2', u1'), through the engine's own maps."""
    u2, u1, du2, du1 = np.asarray(rows).T
    eg = np.exp(sched.friction.evaluate(np.arange(len(rows), dtype=float))[0])
    kk = sched.theta / math.sin(sched.theta)
    kb, kc = kk * sched.b0, kk * sched.right_c0
    q_right0 = wavesim.beam_round_trip(q0, sched.half_matrix_at(0.0))
    return (wavesim._mobius(u2, kb * u1, eg * du2 / kb, eg * du1, q0),
            wavesim._mobius(eg * du1, eg * du2 / kc, kc * u1, u2, q_right0))


#: Largest |q - q_ref| / |q_ref| against the per-trip flow over 500 trips
#: (7.1e-15 was the worst of the cases below).
Q_SCAN_TOL = 5e-14


@pytest.mark.parametrize("case", ["constant", "integer_nodes", "eighth_nodes"])
def test_gaussian_q_follows_the_per_trip_flow(case):
    """With constant friction, and on tables whose nodes lie on the 1/8-trip
    grid, q on both mirrors stays within ``Q_SCAN_TOL`` of the per-trip flow
    ``oracles.trip_flow``, for 0 to 500 trips; it keeps every bit at 0 and
    1 trips, where no products are reassociated."""
    frictions = {"constant": FrictionProfile.constant(1.3e-3)}
    frictions["integer_nodes"], frictions["eighth_nodes"] = on_grid_tables()
    friction = frictions[case]
    sched = MirrorSchedule(GEOM0, friction)
    for n_max in (0, 1, 7, 500):
        rows = oracles.trip_flow(friction, sched.theta ** 2, n_max)
        for q0 in (EIGENBEAM.q, complex(0.3, 1.4 * EIGENBEAM.q.imag)):
            for got, ref in zip(gaussian_q_trace(sched, q0, n_max),
                                q_from_rows(sched, q0, rows)):
                if n_max <= 1:
                    assert got.tobytes() == ref.tobytes(), (n_max, q0)
                assert (np.abs(got - ref) <= Q_SCAN_TOL * np.abs(ref)).all(), \
                    (n_max, q0)


# ---------------------------------------------------------------------------
# overlaps and snapshots


def test_inner_product_requires_matching_grids():
    f1 = eigen_field(1024)
    f2 = eigen_field(2048)
    with pytest.raises(ValidationError):
        inner_product(f1, f2)
    assert abs(overlap(f1, f1) - 1.0) < 1e-12
    assert phase_aligned_l2(f1, f1) == 0.0


# ---------------------------------------------------------------------------
# collapse runner


def test_collapse_fresnel_matches_slow_envelope_law():
    gamma = 1e-2
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    trace = run_collapse(sched, EIGENBEAM, 500, engine="fresnel",
                         wavelength=WAVELENGTH)
    assert not trace.truncated
    sol = fundamental_solutions(THETA, FrictionProfile.constant(gamma))
    law = np.sqrt(sol.u2(trace.n.astype(float)) ** 2
                  + THETA ** 2 * np.asarray(sol.u1(trace.n.astype(float))) ** 2)
    w1 = np.asarray(trace.w1)
    assert np.max(np.abs(w1 / w1[0] - law) / law) < 0.01
    product = w1 * np.asarray(trace.w2)
    assert np.max(np.abs(product / PRODUCT0 - 1.0)) < 0.01
    # norm conservation along the run
    assert np.max(np.abs(np.asarray(trace.norm) - 1.0)) < 1e-6
    # fitted slope of log w1 is -gamma/2
    slope = np.polyfit(trace.n.astype(float), np.log(w1), 1)[0]
    assert abs(slope / (-gamma / 2.0) - 1.0) < 0.02


def test_collapse_displaced_centroid_follows_ray():
    gamma = 1e-2
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    x0 = 0.3 * SPOT0
    beam = GaussianBeam(EIGENBEAM.q, center=x0)
    trace = run_collapse(sched, beam, 500, engine="fresnel",
                         wavelength=WAVELENGTH)
    rays = iterate_ray(sched, (x0, 0.0), 500)
    assert np.max(np.abs(np.asarray(trace.centroid) - rays.x)) < 0.01 * x0


def test_engine_cross_agreement_over_fifty_trips():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-2))
    field_f = eigen_field()
    field_s = eigen_field()
    worst = 0.0
    for n in range(50):
        a, b, c = sched.elements_at(float(n))
        m = AbcdMatrix(a, b, c, a)
        field_f = fresnel_round_trip(field_f, m)
        field_s = split_step_round_trip(field_s, m)
        resampled = (CubicSpline(field_f.grid, field_f.samples.real)(field_s.grid)
                     + 1j * CubicSpline(field_f.grid, field_f.samples.imag)(field_s.grid))
        dist = math.sqrt(np.sum(np.abs(resampled - field_s.samples) ** 2)
                         * field_s.dx / field_s.norm_sq())
        worst = max(worst, dist)
    assert worst < 1e-3


def test_wave_centroids_track_rays_over_thousand_trips():
    gamma = 1e-3
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    x0 = 0.3 * SPOT0
    rays = iterate_ray(sched, (x0, 0.0), 1000)
    starts = np.arange(1000, dtype=float)
    a_arr, b_arr, c_arr = sched.elements_at(starts)

    trips = [AbcdMatrix(a, b, c, a) for a, b, c in zip(a_arr, b_arr, c_arr)]

    field = eigen_field(4096, center=x0)
    worst_f = 0.0
    for n, m in enumerate(trips):
        field = fresnel_round_trip(field, m)
        worst_f = max(worst_f, abs(field.centroid() - rays.x[n + 1]))

    field = eigen_field(1024, center=x0)
    worst_s = 0.0
    for n, m in enumerate(trips):
        field = split_step_round_trip(field, m)
        worst_s = max(worst_s, abs(field.centroid() - rays.x[n + 1]))
    assert worst_f / x0 < 0.01
    assert worst_s / x0 < 0.01


def test_split_step_run_truncates_when_underresolved():
    # aggressive damping on a coarse fixed grid shrinks the spot below the
    # trusted eight-pixel bound; the runner must truncate with a diagnostic
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(5e-2))
    trace = run_collapse(sched, EIGENBEAM, 200, engine="split_step",
                         wavelength=WAVELENGTH, grid_n=256)
    assert trace.truncated
    assert "eight grid pixels" in trace.diagnostic
    assert len(trace.n) < 201


def test_collapse_single_row_run():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    trace = run_collapse(sched, EIGENBEAM, 0, engine="gaussian_q",
                         wavelength=WAVELENGTH)
    assert list(trace.n) == [0]
    assert abs(trace.w1[0] - SPOT0) < 1e-12


def test_run_collapse_validation():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(1e-3))
    with pytest.raises(ValidationError):
        run_collapse(sched, EIGENBEAM, 10, engine="spectral",
                     wavelength=WAVELENGTH)
    with pytest.raises(TypeError, match="wavelength"):
        run_collapse(sched, EIGENBEAM, 10, engine="fresnel")  # no wavelength
    for engine in ("fresnel", "split_step", "gaussian_q"):
        with pytest.raises(ValidationError):
            run_collapse(sched, eigen_field(256), 10, engine=engine,
                         wavelength=WAVELENGTH)


# ---------------------------------------------------------------------------
# oracles: the grid trips as first written, with a fresh pair of
# complex-exponential chirps, explicit FFT shifts and unmerged half-kicks


def reference_fresnel_round_trip(field, m):
    a_el, b_el, d_el = m.a, m.b, m.d
    lam = field.wavelength
    n = field.n_samples
    dx_in = field.dx
    x_in = field.grid
    dx_out = lam * abs(b_el) / (n * dx_in)
    x_out = centered_grid(n, dx_out)

    pre = np.exp(-1j * math.pi * a_el * x_in ** 2 / (lam * b_el)) * field.samples
    if b_el < 0.0:
        spectrum = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(pre)))
        amp = np.sqrt(-1j / (lam * abs(b_el)))
    else:
        spectrum = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(pre))) * n
        amp = np.sqrt(1j / (lam * b_el))
    post = np.exp(-1j * math.pi * d_el * x_out ** 2 / (lam * b_el))
    out = amp * dx_in * post * spectrum
    return ComplexField(out, dx_out, x_out[0], lam)


#: Stage weights of the 5-stage Suzuki fractal composition: sandwiching
#: kick-drift-kick substeps with these weights cancels the second- and
#: third-order splitting errors (the middle weight is negative).
SUZUKI_W1 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUZUKI_STAGES = (SUZUKI_W1, SUZUKI_W1, 1.0 - 4.0 * SUZUKI_W1, SUZUKI_W1,
                 SUZUKI_W1)


def reference_split_step_round_trip(field, theta, b, c, k, substeps=8):
    """One trip of the continuous-time equation
    i dpsi/dn = [b theta/(2k sin theta)] psi_xx + [k theta c/(2 sin theta)]
    x^2 psi, integrated by ``substeps`` fourth-order Suzuki substeps of
    unmerged kick-drift-kick stages on the field's own grid; its per-trip
    error scales as (theta / substeps)^4."""
    sin_theta = math.sin(theta)
    x = np.fft.ifftshift(field.grid)
    kappa = 2.0 * math.pi * np.fft.fftfreq(field.n_samples, field.dx)
    c_kin = b * theta / (2.0 * k * sin_theta)
    c_pot = k * theta * c / (2.0 * sin_theta)
    dt = 1.0 / substeps
    tables = {w: (np.exp(-1j * c_pot * (w * dt / 2.0) * x ** 2),
                  np.exp(1j * c_kin * w * dt * kappa ** 2))
              for w in set(SUZUKI_STAGES)}
    stages = [tables[w] for w in SUZUKI_STAGES]
    out = np.fft.ifftshift(field.samples)
    for _ in range(substeps):
        for half_kick, drift in stages:
            out = half_kick * out
            out = np.fft.ifft(np.fft.fft(out) * drift)
            out = half_kick * out
    return field.with_samples(np.fft.fftshift(out))


def rel_l2(ref, out):
    return float(np.linalg.norm(out.samples - ref.samples)
                 / np.linalg.norm(ref.samples))


ORACLE_N = (2, 4, 256, 1024, 8192)
#: b < 0 (the cavity's own round trip) and b > 0 (its inverse).
ORACLE_MATRICES = (MATRIX0, AbcdMatrix(MATRIX0.d, -MATRIX0.b, -MATRIX0.c,
                                       MATRIX0.a))


def oracle_field(n_samples, displaced, b_el):
    """Eigenbeam on the self-conjugate pitch, so chained trips keep the
    grid; the displaced one is also tilted."""
    beam = GaussianBeam(EIGENBEAM.q, center=SPOT0 if displaced else 0.0,
                        tilt=2e-3 if displaced else 0.0)
    return sample_beam(beam, WAVELENGTH, n_samples,
                       dx=math.sqrt(WAVELENGTH * abs(b_el) / n_samples))


@pytest.mark.parametrize("n_samples", ORACLE_N)
def test_fresnel_round_trip_matches_the_first_kernel(n_samples,
                                                     monkeypatch):
    """Five chained trips against the reference kernel, b < 0 and b > 0,
    centred and displaced; relative L2 per trip <= 1e-12 (measured: at
    most 3.8e-15 over all cases).  The kernels are compared on grids
    the sampling guard refuses at N = 2 and 4, so it is switched off."""
    monkeypatch.setattr(wavesim, "_check_chirp_sampling",
                        lambda field, a_el, b_el: None)
    for m in ORACLE_MATRICES:
        for displaced in (False, True):
            field = ref = oracle_field(n_samples, displaced, m.b)
            for trip in range(5):
                field = fresnel_round_trip(field, m)
                ref = reference_fresnel_round_trip(ref, m)
                case = (m.b, displaced, trip)
                assert field.dx == pytest.approx(ref.dx, rel=1e-15), case
                assert field.x0 == pytest.approx(ref.x0, rel=1e-15), case
                assert rel_l2(ref, field) <= 1e-12, case


#: (l1/f, l2/f) of the split-step checks, b < 0; the last has theta =
#: 3.078, close to pi.
SPLIT_GEOMETRIES = ((1.2, 1.6), (1.5, 1.8), (2.0, 1.9), (1.7, 1.5),
                    (1.05, 1.02))
NEAR_PI = SPLIT_GEOMETRIES[-1]


def split_matrices(l_over_f):
    """A cavity's round trip (b < 0) and its inverse (b > 0)."""
    m = round_trip_matrix(ResonatorGeometry(*l_over_f))
    return m, AbcdMatrix(m.d, -m.b, -m.c, m.a)


def split_fields(m, n_samples):
    """The eigenbeam of ``m`` on the self-conjugate pitch, where a Fresnel
    trip keeps the grid, centred and displaced-and-tilted."""
    beam = eigenmode_beam(m)
    spot = beam.spot_size(WAVELENGTH)
    dx = math.sqrt(WAVELENGTH * abs(m.b) / n_samples)
    return [sample_beam(GaussianBeam(beam.q, center=center, tilt=tilt),
                        WAVELENGTH, n_samples, dx=dx)
            for center, tilt in ((0.0, 0.0), (spot, 2e-3))]


def split_n(l_over_f):
    # near pi the N = 256 self-conjugate window spans only +-3.6 spot sizes,
    # and the tails cut off there propagate differently on the two grids
    return (1024, 8192) if l_over_f == NEAR_PI else (256, 1024, 8192)


@pytest.mark.parametrize("l_over_f", SPLIT_GEOMETRIES)
def test_split_step_trip_is_the_fresnel_trip(l_over_f):
    """On the self-conjugate pitch both grid engines apply one map: relative
    L2 <= 1e-12 (measured: at most 7.3e-15)."""
    for m in split_matrices(l_over_f):
        for n_samples in split_n(l_over_f):
            for field in split_fields(m, n_samples):
                ref = fresnel_round_trip(field, m)
                assert ref.dx == pytest.approx(field.dx, rel=1e-14)
                out = split_step_round_trip(field, m)
                assert aligned_l2(ref, out) <= 1e-12, (m.b, n_samples)


@pytest.mark.parametrize("l_over_f", SPLIT_GEOMETRIES)
def test_split_step_trip_reproduces_the_eigenbeam(l_over_f):
    """On the default window one trip maps the eigenbeam onto itself up to
    a phase: relative L2 <= 1e-12 (measured: at most 2.1e-15)."""
    for m in split_matrices(l_over_f):
        beam = eigenmode_beam(m)
        for n_samples in (256, 1024, 8192):
            field = sample_beam(beam, WAVELENGTH, n_samples)
            out = split_step_round_trip(field, m)
            assert aligned_l2(field, out) <= 1e-12, (m.b, n_samples)


@pytest.mark.parametrize("l_over_f", SPLIT_GEOMETRIES)
def test_split_step_trip_is_the_suzuki_limit(l_over_f):
    """The continuous-time equation integrated by 128 Suzuki substeps
    reaches the exact trip to <= 5e-9 relative L2 (measured: at most
    1.1e-9, Suzuki's own error near theta = pi)."""
    for m in split_matrices(l_over_f):
        theta = stability(m).theta
        for field in split_fields(m, 1024):
            ref = reference_split_step_round_trip(field, theta, m.b, m.c,
                                                  WAVENUMBER, 128)
            out = split_step_round_trip(field, m)
            assert aligned_l2(ref, out) <= 5e-9, m.b


def test_split_step_near_pi_runs_in_two_pieces(fft_count):
    """At theta = 3.078 on N = 256 one kick would alias (one piece gives
    0.49 relative L2); two half-trip pieces reproduce the eigenbeam."""
    m = split_matrices(NEAR_PI)[0]
    field = sample_beam(eigenmode_beam(m), WAVELENGTH, 256)
    with pytest.raises(SamplingError):
        wavesim._check_chirp_sampling(field, m.a - 1.0, m.b)
    fft_count[0] = 0
    out = split_step_round_trip(field, m)
    assert fft_count[0] == 2 * 2
    assert aligned_l2(field, out) <= 1e-12


def test_split_step_runs_on_an_offset_grid():
    """The drift needs no centred grid: the eigenbeam sampled on a window
    shifted by an eighth of its width comes back after one trip, while the
    Fresnel trip refuses the grid."""
    dx = eigen_field(1024).dx
    x = (np.arange(1024) - 384) * dx
    field = ComplexField(np.exp(-1j * math.pi * x ** 2
                                / (WAVELENGTH * EIGENBEAM.q)),
                         dx, x[0], WAVELENGTH)
    out = split_step_round_trip(field, MATRIX0)
    assert out.x0 == field.x0 and not field.is_centered()
    assert aligned_l2(field, out) <= 1e-12
    with pytest.raises(ValidationError):
        fresnel_round_trip(field, MATRIX0)


@pytest.mark.parametrize("n_samples", [2, 4])
def test_split_step_refuses_underresolved_fields(n_samples):
    for l_over_f in SPLIT_GEOMETRIES:
        for m in split_matrices(l_over_f):
            for field in split_fields(m, n_samples):
                with pytest.raises(SamplingError):
                    split_step_round_trip(field, m)


# ---------------------------------------------------------------------------
# oracle: the grid engines before their trips carried the spectral moments
# and the Fresnel post-chirp (tests/grid_oracles.py)

#: The golden grid geometry's table (tests/test_golden.py), off the trip grid.
GOLDEN_TABLE = FrictionProfile.tabulated(
    (0.0, 3.3, 7.1, 12.45, 18.0, 26.7, 33.05, 41.9, 50.0, 60.0),
    (0.0, 0.011, 0.027, 0.05, 0.081, 0.12, 0.152, 0.21, 0.26, 0.33))

#: (engine, l/f, friction, offset in spot sizes, tilt, grid_n, n_max): the
#: golden grid runs, a tabulated table, other geometries (the last near
#: theta = pi, in two pieces per split-step trip), a 1,000-trip Fresnel run
#: and runs that truncate on aliasing and on the eight-pixel bound.
GRID_RUNS = {
    "golden_fresnel": ("fresnel", (1.7, 1.5), 5e-3, 0.0, 0.0, 512, 20),
    "golden_fresnel_displaced": ("fresnel", (1.7, 1.5), 5e-3, 1.0, 0.0, 512,
                                 20),
    "golden_split": ("split_step", (1.7, 1.5), 5e-3, 0.0, 0.0, 256, 20),
    "golden_split_displaced": ("split_step", (1.7, 1.5), 5e-3, 1.0, 0.0, 256,
                               20),
    "tabulated_fresnel": ("fresnel", (1.7, 1.5), GOLDEN_TABLE, 0.5, 1e-3,
                          1024, 60),
    "tabulated_split": ("split_step", (1.7, 1.5), GOLDEN_TABLE, -0.5, 1e-3,
                        1024, 60),
    "fresnel_1.2_1.6": ("fresnel", (1.2, 1.6), 1e-2, 0.7, 0.0, 2048, 100),
    "split_2.0_1.9": ("split_step", (2.0, 1.9), 1e-2, -0.7, 0.0, 1024, 40),
    "split_near_pi": ("split_step", NEAR_PI, 1e-2, 0.5, 0.0, 256, 30),
    "fresnel_thousand": ("fresnel", (1.7, 1.5), 1e-3, 0.3, 0.0, 2048, 1000),
    "fresnel_aliasing": ("fresnel", (1.7, 1.5), 1e-2, 1.0, 0.0, 64, 20),
    "split_eight_pixels": ("split_step", (1.7, 1.5), 5e-2, 0.0, 0.0, 256,
                           200),
}


def grid_run(name):
    """(schedule, beam, engine, grid_n, n_max) of a GRID_RUNS entry."""
    engine, l_over_f, friction, offset, tilt, grid_n, n_max = GRID_RUNS[name]
    if not isinstance(friction, FrictionProfile):
        friction = FrictionProfile.constant(friction)
    geom = ResonatorGeometry(*l_over_f)
    eigen = eigenmode_beam(round_trip_matrix(geom))
    beam = GaussianBeam(eigen.q, center=offset * eigen.spot_size(WAVELENGTH),
                        tilt=tilt)
    return MirrorSchedule(geom, friction), beam, engine, grid_n, n_max


@pytest.mark.parametrize("name", sorted(GRID_RUNS))
def test_collapse_matches_the_parent_kernels(name):
    """Same rows and the same diagnostic as the kernels that measured every
    spectrum and post-chirped every output; w1, w2 and the norm to <= 1e-12
    relative, the centroid to <= 1e-12 of w1."""
    sched, beam, engine, grid_n, n_max = grid_run(name)
    trace = run_collapse(sched, beam, n_max, engine, wavelength=WAVELENGTH,
                         grid_n=grid_n)
    n, w1, w2, norm, centroid, diagnostic = grid_oracles.run_collapse(
        sched, beam, n_max, engine, WAVELENGTH, grid_n)
    assert trace.diagnostic == diagnostic
    assert list(trace.n) == list(n)
    for got, ref in ((trace.w1, w1), (trace.w2, w2), (trace.norm, norm)):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    assert np.all(np.abs(trace.centroid - centroid) <= 1e-12 * w1)


@pytest.mark.parametrize("name", sorted(set(GRID_RUNS) - {
    "fresnel_aliasing", "split_eight_pixels"}))
def test_carried_spectral_moments_match_the_fft(name):
    """On every trip the spectral mean and spread the sampling check used
    match the FFT of the field's samples: the mean to <= 1e-9 of Nyquist,
    the spread to <= 1e-9 relative."""
    sched, beam, engine, grid_n, n_max = grid_run(name)
    trip = fresnel_round_trip if engine == "fresnel" else split_step_round_trip
    field = sample_beam(beam, WAVELENGTH, grid_n)
    a_arr, b_arr, c_arr = sched.elements_at(np.arange(n_max, dtype=float))
    for n in range(n_max + 1):
        if n < n_max:
            after = trip(field, AbcdMatrix(a_arr[n], b_arr[n], c_arr[n],
                                           a_arr[n]))
        else:
            wavesim._check_chirp_sampling(field, 0.0, MATRIX0.b)
        nu_mean, nu_std = grid_oracles.spectral_stats(field)
        _, got_mean, got_std = field._chirp_stats
        assert abs(got_mean - nu_mean) <= 1e-9 * 0.5 / field.dx, n
        assert abs(got_std - nu_std) <= 1e-9 * nu_std, n
        field = after


# ---------------------------------------------------------------------------
# oracle: the gaussian_q engine as first written, one Magnus integration of
# the (q-numerator, q-denominator) flow per mirror, with one running product
# per step and a per-trip Python loop for q and the spot sizes


#: Magnus steps per trip of the first gaussian_q engine.
Q_STEPS = 8


def reference_flow_trace(q0, b0, c0, kk, friction, n_max, sign):
    def generator(n):
        g = friction.evaluate(n)[0]
        return 0.0, kk * b0 * np.exp(-sign * g), kk * c0 * np.exp(sign * g)

    h = 1.0 / Q_STEPS
    steps = magnus4_steps(np.arange(n_max * Q_STEPS) * h, h, generator)
    qs = [q0]
    trips = oracles.stepwise_products(steps)[Q_STEPS::Q_STEPS].tolist()
    for trip, (p11, p12, p21, p22) in enumerate(trips, 1):
        denom = p21 * q0 + p22
        if abs(denom) < 1e-12:
            raise BeamParameterError(
                "beam-parameter flow singular at trip %d" % trip)
        qs.append((p11 * q0 + p12) / denom)
    return qs


def reference_spot_from_q(q, wavelength):
    if q.imag <= 0.0:
        raise BeamParameterError("beam parameter left the upper half plane")
    return math.sqrt(wavelength * abs(q) ** 2 / (math.pi * q.imag))


def reference_gaussian_q_trace(sched, q0, n_max, wavelength):
    """(q_left, q_right, w1, w2) as lists, one entry per trip."""
    kk = sched.theta / math.sin(sched.theta)
    q_right0 = wavesim.beam_round_trip(q0, sched.half_matrix_at(0.0))
    q_left = reference_flow_trace(q0, sched.b0, sched.c0, kk,
                                  sched.friction, n_max, +1.0)
    q_right = reference_flow_trace(q_right0, sched.right_b0, sched.right_c0,
                                   kk, sched.friction, n_max, -1.0)
    return (q_left, q_right,
            [reference_spot_from_q(q, wavelength) for q in q_left],
            [reference_spot_from_q(q, wavelength) for q in q_right])


def seeded_geometry(rng):
    """A strictly stable geometry in the upper domain (l2 > f), |a| <= 0.9."""
    while True:
        geom = ResonatorGeometry(rng.uniform(0.2, 3.0), rng.uniform(1.05, 3.0))
        info = stability(round_trip_matrix(geom))
        if info.stable and abs(info.a) <= 0.9:
            return geom


def seeded_q_table(rng, n_end):
    """A monotone g(n) table over [0, n_end] with nodes off the 1/8-trip
    grid and flat stretches."""
    n = [0.0]
    while n[-1] < n_end:
        n.append(n[-1] + rng.uniform(1.3, 97.0))
    steps = np.diff(n) * rng.uniform(0.0, 2e-3, len(n) - 1)
    steps[rng.random(steps.size) < 0.3] = 0.0
    return FrictionProfile.tabulated(n, np.concatenate(([0.0],
                                                        np.cumsum(steps))))


def rel_dev(got, ref):
    ref = np.asarray(ref)
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


Q_ORACLE_N = (0, 1, 7, 500, 3000)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gaussian_q_trace_matches_the_stepwise_flow(seed):
    """q on both mirrors and both spot sizes, per trip, against the
    two-flow stepwise engine: constant gamma and a tabulated table with
    off-grid nodes, the eigenbeam and an off-eigen q0; relative deviation
    <= 5e-6 (measured: at most 1.2e-6 on q_left and q_right, 4.7e-7 on w1
    and 5.8e-7 on w2).  The deviation is the oracle's own step error:
    with constant gamma the engine is exact to rounding (see
    test_gaussian_q_is_exact_for_the_damped_oscillator)."""
    rng = np.random.default_rng(seed)
    geom = seeded_geometry(rng)
    eigen_q = eigenmode_beam(round_trip_matrix(geom)).q
    frictions = (FrictionProfile.constant(rng.uniform(1e-4, 2e-3)),
                 seeded_q_table(rng, max(Q_ORACLE_N)))
    for friction in frictions:
        sched = MirrorSchedule(geom, friction)
        for q0 in (eigen_q, complex(0.4, 1.7 * eigen_q.imag)):
            for n_max in Q_ORACLE_N:
                trace = run_collapse(sched, GaussianBeam(q0), n_max,
                                     "gaussian_q", wavelength=WAVELENGTH)
                ref = reference_gaussian_q_trace(sched, q0, n_max,
                                                 WAVELENGTH)
                got = gaussian_q_trace(sched, q0, n_max) + (trace.w1,
                                                            trace.w2)
                case = (friction.kind, q0, n_max)
                for g, r in zip(got, ref):
                    assert len(g) == n_max + 1, case
                    assert rel_dev(g, r) <= 5e-6, case


def identity_q(sched, q0, sol, n_max):
    """(q_left, q_right) at trips 0 ... n_max from the fundamental solutions
    ``sol``, through the identities that map the (x, x') flow onto each
    mirror's beam-parameter flow."""
    n = np.arange(n_max + 1.0)
    kb = sched.theta / math.sin(sched.theta) * sched.b0
    kc = sched.theta / math.sin(sched.theta) * sched.right_c0
    eg = np.exp(sched.friction.evaluate(n)[0])
    u1, du1, u2, du2 = (f(n) for f in (sol.u1, sol.du1, sol.u2, sol.du2))
    q_right0 = wavesim.beam_round_trip(q0, sched.half_matrix_at(0.0))
    return ((u2 * q0 + kb * u1) / (eg * du2 / kb * q0 + eg * du1),
            (eg * du1 * q_right0 + eg * du2 / kc) / (kc * u1 * q_right0 + u2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gaussian_q_is_exact_for_the_damped_oscillator(seed):
    """Over 3,000 trips, for the eigenbeam and an off-eigen q0, q on both
    mirrors against q built from the fundamental solutions.  With constant
    friction the Magnus steps are exact, so against the closed form the
    relative deviation is <= 1e-11 (measured: at most 1.6e-12; the
    two-flow engine this one replaced reached 1.2e-6).  A tabulated table
    with nodes off the 1/8-trip grid ends steps at its nodes, so no kink of
    gdot falls inside a step; against the converged ODE branch the
    deviation is <= 2e-7 (measured: at most 8.0e-8; 1.8e-6 while the steps
    ignored the nodes, and the two-flow engine reached 7.0e-7)."""
    rng = np.random.default_rng(seed)
    geom = seeded_geometry(rng)
    eigen_q = eigenmode_beam(round_trip_matrix(geom)).q
    n_max = max(Q_ORACLE_N)
    cases = ((FrictionProfile.constant(rng.uniform(1e-4, 2e-3)),
              "closed_form", 1e-11),
             (seeded_q_table(rng, n_max), "ode", 2e-7))
    for friction, method, bound in cases:
        sched = MirrorSchedule(geom, friction)
        sol = fundamental_solutions(sched.theta, friction,
                                    method=method, n_max=n_max)
        for q0 in (eigen_q, complex(0.4, 1.7 * eigen_q.imag)):
            ref = identity_q(sched, q0, sol, n_max)
            for got, r in zip(gaussian_q_trace(sched, q0, n_max), ref):
                assert rel_dev(got, r) <= bound, (method, q0)


# ---------------------------------------------------------------------------
# the grid engines on any unimodular matrix: the Gaussian ABCD law


def law_moments(q, x, slope):
    """(<x>, <nu>, Var x, Cov(x, nu), Var nu) of the Gaussian of parameter
    q centred at x with tilt ``slope``, nu = -slope / lambda at the centre:
    Var x = w^2 / 4, the phase curvature Re(1/q) / lambda sets the
    covariance, and the waist adds 1 / (16 pi^2 Var x) to Var nu."""
    xx = WAVELENGTH * abs(q) ** 2 / (math.pi * q.imag) / 4.0
    curv = (1.0 / q).real / WAVELENGTH
    return (x, -slope / WAVELENGTH, xx, -curv * xx,
            curv * curv * xx + 1.0 / (16.0 * math.pi ** 2 * xx))


def signed(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda drawn: drawn[0] * drawn[1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=signed(0.3, 2.0), b=signed(0.05, 2.0), c=signed(0.05, 2.0),
       q0=st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 3.0)),
       offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       n_samples=st.sampled_from((256, 512, 1024, 2048)),
       trips=st.integers(1, 3),
       engine=st.sampled_from(("fresnel", "split_step")))
@example(a=0.6, b=-1.0, c=0.8, q0=(0.0, 1.0), offset=(0.0, 0.0),
         n_samples=1024, trips=2, engine="fresnel")
@example(a=0.6, b=-1.0, c=0.8, q0=(0.0, 1.0), offset=(0.0, 0.0),
         n_samples=1024, trips=2, engine="split_step")
@example(a=0.6, b=-1.0, c=0.8, q0=(0.0, 1.0), offset=(0.5, -0.5),
         n_samples=1024, trips=1, engine="fresnel")
@example(a=-1.5073863132708047, b=-0.22382890437398634,
         c=1.2760109124615133, q0=(0.3213065173562799, 2.12437328029529),
         offset=(0.5879632679010651, 0.36709976277718215), n_samples=512,
         trips=1, engine="split_step")
def test_grid_trips_follow_the_gaussian_abcd_law(a, b, c, q0, offset,
                                                 n_samples, trips, engine):
    """A Gaussian through 1-3 trips of a unimodular matrix with a != d,
    d = (1 + bc)/a, either raises one of the named errors or is the
    sampled Gaussian of the ABCD law q' = (aq + b)/(cq + d), its centre and
    tilt carried as a ray (Kogelnik & Li, Appl. Opt. 5, 1550 (1966)): a
    phase-aligned L2 distance <= 1e-3 (the sampling guard's 5 sigma admits
    tails of about 7.6e-4; measured at most 7e-5), the norm kept to 1e-12,
    and the carried moments within 1e-9 of the law's on the scales of
    their standard deviations (measured 4e-14).  The pinned examples are
    the draws that a Fresnel post-chirp reading a for d, a split-step last
    kick reusing the first and a moment carry with a and d swapped fail,
    and a split-step trip of 16 pieces whose middle pieces carry the field
    past the window edge, which the reach check once saw only after the
    first piece."""
    m = AbcdMatrix(a, b, c, (1.0 + b * c) / a)
    q = complex(*q0)
    w0 = math.sqrt(WAVELENGTH * abs(q) ** 2 / (math.pi * q.imag))
    x, slope = offset[0] * w0, offset[1] * WAVELENGTH / (math.pi * w0)
    field = sample_beam(GaussianBeam(q, center=x, tilt=slope), WAVELENGTH,
                        n_samples)
    trip = fresnel_round_trip if engine == "fresnel" else split_step_round_trip
    try:
        for _ in range(trips):
            field = trip(field, m)
            q = (m.a * q + m.b) / (m.c * q + m.d)
            x, slope = m.a * x + m.b * slope, m.c * x + m.d * slope
    except (SamplingError, NearFocalPlaneError, NearInstabilityError) as exc:
        event(type(exc).__name__)
        return
    law = sample_beam(GaussianBeam(q, center=x, tilt=slope), WAVELENGTH,
                      n_samples, dx=field.dx)
    assert phase_aligned_l2(law, field) <= 1e-3
    assert abs(field.norm_sq() - 1.0) <= 1e-12
    want = law_moments(q, x, slope)
    sx, sn = math.sqrt(want[2]), math.sqrt(want[4])
    for got, ref, scale in zip(field._moments, want,
                               (sx, sn, sx * sx, sx * sn, sn * sn)):
        assert abs(got - ref) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the quadratic-phase kernel against direct cos/sin, and the sampled beam
# and chirps against the retired per-sample formulas (tests/grid_oracles.py)

EPS = np.finfo(float).eps


def _two_product(a, b):
    """a * b and its rounding error, exactly (Veltkamp's split)."""
    def split(x):
        t = x * 134217729.0
        return t - (t - x), x - (t - (t - x))
    p = a * b
    (a1, a2), (b1, b2) = split(a), split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def direct_phase(a, b, s):
    """exp(i (a s^2 + b s)) by cos/sin of the phase taken as a
    double-double hi + lo, so that the reference carries no rounding of
    the phase itself."""
    p1, e1 = _two_product(np.full(s.shape, a), s * s)
    p2, e2 = _two_product(np.full(s.shape, b), s)
    hi = p1 + p2
    back = hi - p1
    lo = e1 + e2 + (p1 - (hi - back)) + (p2 - back)
    return (np.cos(hi) + 1j * np.sin(hi)) * np.exp(1j * lo)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 14), st.booleans(), st.booleans(), st.floats(0.0, 1.0),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0)))
@example(14, False, False, 1.0, 0.0, 1.0, 1.0)
@example(14, False, True, 1.0, 0.5, 1.0, -1.0)
@example(13, True, True, 1.0, 0.0, -1.0, 1.0)
@example(12, True, False, 1.0, 0.9, -1.0, -1.0)
def test_quadratic_phase_matches_direct_cos_sin(p, half, signed, rate, share,
                                                sign_a, sign_b):
    """Centred (s = j - n/2) and half (s = 0..n/2) tables at rates up to
    the Nyquist limit, |2 a s + b| <= pi, with and without the linear term:
    |z - e^{i phi}| <= 32 eps (1 + |a| s^2 + |b| |s|), the rounding scale of
    the phase's two terms (|phi| itself without the linear term), and
    ||z| - 1| <= 4 eps; (-1)^s is exact."""
    n = 2 ** p
    a = sign_a * (1.0 - share) * rate * math.pi / n
    b = sign_b * share * rate * math.pi
    z = wavesim._quadratic_phase(n, a, b, signed=signed, half=half)
    s = np.arange(n // 2 + 1.0) if half else np.arange(n) - n // 2.0
    ref = direct_phase(a, b, s)
    if signed:
        ref *= 1.0 - 2.0 * (np.abs(s) % 2)
    assert z.shape == s.shape
    scale = 1.0 + abs(a) * s * s + abs(b) * np.abs(s)
    assert np.all(np.abs(z - ref) <= 32.0 * EPS * scale)
    assert np.all(np.abs(np.abs(z) - 1.0) <= 4.0 * EPS)


@pytest.mark.parametrize("n_samples", ORACLE_N)
def test_chirps_match_the_retired_half_table(n_samples):
    """The Fresnel chirp against cos/sin on every |s| = 0..n/2, also past
    the Nyquist rate and with a scale: within 32 eps |scale| (1 + |beta|
    s^2), that formula's own rounding scale; without the sign, exactly
    (-1)^s times it."""
    s = np.arange(n_samples) - n_samples // 2
    raw = np.ones(n_samples, dtype=complex)
    for beta in (0.9 * math.pi / n_samples, -0.3 * math.pi / n_samples,
                 2.5 * math.pi / n_samples, 0.0):
        for scale in (1.0, 0.3 - 0.7j):
            ref = grid_oracles.chirp(n_samples, beta, scale)
            got = wavesim._chirped(raw, beta, scale)
            assert np.all(np.abs(got - ref) <= 32.0 * EPS * abs(scale)
                          * (1.0 + abs(beta) * s * s)), (beta, scale)
            unsigned = wavesim._chirped(raw, beta, scale, signed=False)
            assert np.array_equal(unsigned, got * (1 - 2 * (s % 2)))


@pytest.mark.parametrize("n_samples", ORACLE_N)
def test_sample_beam_matches_the_retired_exponential(n_samples):
    """Centred, displaced and tilted beams on the default window and on a
    wide one: the same grid, relative L2 <= 1e-12 against one complex exp
    per sample."""
    for center, tilt, window in ((0.0, 0.0, 16.0), (SPOT0, 2e-3, 16.0),
                                 (-2.5 * SPOT0, -1e-3, 40.0)):
        beam = GaussianBeam(EIGENBEAM.q, center, tilt)
        ref = grid_oracles.sample_beam(beam, WAVELENGTH, n_samples,
                                       window_factor=window)
        got = sample_beam(beam, WAVELENGTH, n_samples, window_factor=window)
        assert (got.dx, got.x0) == (ref.dx, ref.x0)
        assert rel_l2(ref, got) <= 1e-12, (center, tilt, window)
