"""Tests for ABCD matrix algebra, the cavity geometry, and stability."""

import math

import numpy as np
import pytest

from kanai_cavity.core import FrictionProfile
from kanai_cavity.errors import ContractViolationError, ValidationError
from kanai_cavity.paraxial import (
    CANONICAL_TOL,
    AbcdMatrix,
    ResonatorGeometry,
    half_trip_matrix,
    right_mirror_elements,
    round_trip_elements,
    round_trip_matrix,
    stability,
    stability_map,
)
from kanai_cavity.schedule import MirrorSchedule
from oracles import count_stable_domains, propagation, raster_columns, thin_lens

REFERENCE_GEOMETRY = ResonatorGeometry(1.7, 1.5)


def entries(m):
    return np.array([[m.a, m.b], [m.c, m.d]])


def assert_matrix_close(m, expected, tol=1e-12):
    got = entries(m)
    assert np.max(np.abs(got - np.asarray(expected))) < tol, got


# ---------------------------------------------------------------------------
# elementary elements


def test_zero_propagation_is_identity():
    assert_matrix_close(propagation(0.0), np.eye(2))


def test_cancelling_lenses():
    assert_matrix_close(thin_lens(1.0) @ thin_lens(-1.0), np.eye(2))


def test_composition_is_unimodular():
    m = propagation(2.0) @ thin_lens(1.0)
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12


def test_elementary_validation():
    with pytest.raises(ValidationError, match="propagation distance"):
        propagation(-1.0)
    with pytest.raises(ValidationError, match="nonzero focal length"):
        thin_lens(0.0)


# ---------------------------------------------------------------------------
# round-trip matrix of the reference geometry


def test_reference_round_trip_elements():
    m = round_trip_matrix(REFERENCE_GEOMETRY)
    assert abs(m.a + 0.30) < 1e-12
    assert abs(m.d + 0.30) < 1e-12
    assert abs(m.b + 0.91) < 1e-12
    assert abs(m.c - 1.0) < 1e-12
    info = stability(m)
    assert info.stable and not info.marginal
    assert abs(info.theta - math.acos(-0.30)) < 1e-12
    assert abs(info.theta - 1.875) < 5e-3  # the headline rotation angle


def test_zero_arm_geometry():
    m = round_trip_matrix(ResonatorGeometry(0.0, 0.0))
    assert_matrix_close(m, [[1.0, 0.0], [-2.0, 1.0]])


def test_geometry_validation():
    with pytest.raises(ValidationError):
        ResonatorGeometry(-0.1, 1.0)
    with pytest.raises(ValidationError):
        ResonatorGeometry(1.0, math.inf)


# ---------------------------------------------------------------------------
# stability classification


def test_marginal_boundary():
    m = AbcdMatrix(1.0, 0.0, 0.0, 1.0)
    info = stability(m)
    assert info.stable and info.marginal
    assert info.theta == 0.0


def test_unstable_matrix():
    # a = 1.2 with a*d - b*c = 1
    m = AbcdMatrix(1.2, 1.0, 0.44, 1.2)
    info = stability(m)
    assert not info.stable
    assert math.isnan(info.theta)


def test_non_canonical_matrix_rejected():
    """|a - d| up to CANONICAL_TOL counts as canonical; beyond it, or NaN,
    does not."""
    d = 0.25
    assert stability(AbcdMatrix(d + 0.5 * CANONICAL_TOL, 1.0, -1.0, d)).stable
    for a, d_el in ((0.5, 0.9), (d + 2.0 * CANONICAL_TOL, d), (math.nan, d)):
        with pytest.raises(ContractViolationError):
            stability(AbcdMatrix(a, 1.0, -0.5, d_el))


# ---------------------------------------------------------------------------
# half-trip matrix


def test_half_trip_reference_values():
    h = half_trip_matrix(REFERENCE_GEOMETRY)
    assert_matrix_close(h, [[-0.5, 0.65], [-1.0, -0.7]])
    assert abs(h.a * h.d - h.b * h.c - 1.0) < 1e-12


def test_half_trips_compose_to_round_trip():
    geom = REFERENCE_GEOMETRY
    forward = half_trip_matrix(geom)
    backward = propagation(geom.l1) @ thin_lens(1.0) @ propagation(geom.l2)
    m = backward @ forward
    assert_matrix_close(m, entries(round_trip_matrix(geom)))


def composed_half_trip(l1, l2):
    """P(l2) Lens P(l1) as the product of the three elementary matrices."""
    return propagation(l2) @ thin_lens(1.0) @ propagation(l1)


def bits(values):
    return [float(v).hex() for v in values]


def matrix_bits(m):
    return bits((m.a, m.b, m.c, m.d))


def seeded_arm_pairs():
    """Arm-length pairs for the bit comparisons: every pair of 0, 1 and the
    README arms 1.7, 1.5, then 1,000 draws on [0, 4]^2 and 500 log-uniform
    draws on [1e-6, 1e6]^2."""
    rng = np.random.default_rng(26)
    edges = (0.0, 1.0, 1.5, 1.7)
    pairs = [(l1, l2) for l1 in edges for l2 in edges]
    pairs += [tuple(p) for p in rng.uniform(0.0, 4.0, (1000, 2))]
    pairs += [tuple(p) for p in 10.0 ** rng.uniform(-6.0, 6.0, (500, 2))]
    return pairs


def test_half_trip_formula_carries_the_composed_bits():
    """The closed-form half trip and the round trips built from it have the
    float64 bits of the composed elementary matrices; the right-mirror trip
    forward @ backward is the round trip of the swapped cavity."""
    for l1, l2 in seeded_arm_pairs():
        forward = composed_half_trip(l1, l2)
        backward = composed_half_trip(l2, l1)
        got = half_trip_matrix(ResonatorGeometry(l1, l2))
        assert matrix_bits(got) == matrix_bits(forward), (l1, l2)
        got = round_trip_matrix(ResonatorGeometry(l1, l2))
        assert matrix_bits(got) == matrix_bits(backward @ forward), (l1, l2)
        got = round_trip_matrix(ResonatorGeometry(l2, l1))
        assert matrix_bits(got) == matrix_bits(forward @ backward), (l1, l2)


def test_schedule_half_elements_carry_the_composed_bits():
    """Every trip's half-trip elements, evaluated at once, have the bits of the
    composition at that trip's mirror positions, on every schedule that the
    seeded pairs on [0, 4]^2 admit."""
    n = np.arange(0.0, 400.0, 7.0)
    checked = 0
    for l1, l2 in seeded_arm_pairs():
        geom = ResonatorGeometry(l1, l2)
        if max(l1, l2) > 4.0:
            continue
        info = stability(round_trip_matrix(geom))
        if not info.stable or info.marginal or l2 <= 1.0:
            continue
        sched = MirrorSchedule(geom, FrictionProfile.constant(2e-3))
        elements = sched.half_elements_at(n)
        positions = np.transpose(sched.positions_at(n))
        for k, (l1_n, l2_n) in enumerate(positions):
            assert bits(e[k] for e in elements) == matrix_bits(
                composed_half_trip(l1_n, l2_n)), (l1, l2, n[k])
        checked += 1
    assert checked >= 100


def test_right_mirror_round_trip():
    geom = REFERENCE_GEOMETRY
    m_right = round_trip_matrix(ResonatorGeometry(geom.l2, geom.l1))
    a, b, c = right_mirror_elements(geom.l1, geom.l2)
    assert abs(m_right.a - a) < 1e-12
    assert abs(m_right.b - b) < 1e-12
    assert abs(m_right.c - c) < 1e-12
    # same trace as the left-mirror trip
    assert abs(m_right.a - round_trip_matrix(geom).a) < 1e-12


# ---------------------------------------------------------------------------
# randomized structural invariants


def test_random_geometry_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        l1, l2 = rng.uniform(0.0, 4.0, size=2)
        m = round_trip_matrix(ResonatorGeometry(l1, l2))
        assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12
        assert abs(m.a - m.d) < 1e-12
        assert abs(m.b * m.c - (m.a ** 2 - 1.0)) < 1e-12
        a, b, c = round_trip_elements(l1, l2)
        assert abs(m.a - a) < 1e-12
        assert abs(m.b - b) < 1e-12
        assert abs(m.c - c) < 1e-12


def test_round_trip_elements_vectorized():
    s1 = np.linspace(0.0, 4.0, 11)[:, None]
    s2 = np.linspace(0.0, 4.0, 7)[None, :]
    a, b, c = round_trip_elements(s1, s2)
    assert a.shape == (11, 7) and b.shape == (11, 7)
    assert np.allclose(c, -2.0 * (1.0 - s2) * np.ones_like(s1), atol=1e-15)


# ---------------------------------------------------------------------------
# stability raster


def test_stability_map_reference_points():
    res = stability_map((0.0, 4.0), (0.0, 4.0), 401)
    # grid includes the exact sample points 1.7, 1.5 and 0.0
    i = np.argmin(np.abs(res.l1_values - 1.7))
    j = np.argmin(np.abs(res.l2_values - 1.5))
    assert res.stable[i, j]
    assert abs(res.theta[i, j] - math.acos(-0.30)) < 1e-12
    assert res.stable[0, 0]
    assert abs(res.a_values[0, 0] - 1.0) < 1e-15  # marginal corner
    assert res.theta[0, 0] == 0.0


def test_stability_map_two_domains():
    res = stability_map(resolution=400)
    assert count_stable_domains(res) == 2


def test_stability_map_unstable_cells_have_nan_theta():
    res = stability_map(resolution=50)
    assert np.all(np.isnan(res.theta[~res.stable]))
    assert np.all(np.isfinite(res.theta[res.stable]))


def test_stability_map_validation():
    with pytest.raises(ValidationError):
        stability_map((2.0, 2.0), (0.0, 4.0), 50)
    with pytest.raises(ValidationError):
        stability_map((0.0, 4.0), (3.0, 1.0), 50)
    with pytest.raises(ValidationError):
        stability_map((0.0, 4.0), (0.0, 4.0), 0)
    # a degenerate single-point raster is fine
    res = stability_map((1.7, 1.7), (1.5, 1.5), 1)
    assert res.stable.shape == (1, 1) and res.stable[0, 0]


def test_stability_map_rows_order():
    res = stability_map((0.0, 1.0), (0.0, 1.0), 2)
    columns = raster_columns(res)
    l1, l2 = columns[:2]
    assert [len(col) for col in columns] == [4, 4, 4, 4]
    assert (l1[0], l2[0]) == (0.0, 0.0)
    assert (l1[1], l2[1]) == (0.0, 1.0)  # l2 is the inner loop
    assert (l1[2], l2[2]) == (1.0, 0.0)
    np.testing.assert_array_equal(columns[2], res.stable.ravel())
    np.testing.assert_array_equal(columns[3], res.theta.ravel())
