"""Tests for ABCD matrix algebra, the cavity geometry, and stability."""

import math

import numpy as np
import pytest

from kanai_cavity.errors import ContractViolationError, ValidationError
from kanai_cavity.paraxial import (
    CANONICAL_TOL,
    AbcdMatrix,
    ResonatorGeometry,
    half_trip_matrix,
    propagation,
    right_mirror_elements,
    round_trip_elements,
    round_trip_matrix,
    stability,
    stability_map,
    thin_lens,
)
from oracles import count_stable_domains

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
    m = round_trip_matrix(ResonatorGeometry(0.0, 0.0, f=1.0))
    assert_matrix_close(m, [[1.0, 0.0], [-2.0, 1.0]])


def test_physical_focal_length_scaling():
    geom = ResonatorGeometry(1.7 * 2.0, 1.5 * 2.0, 2.0)
    assert geom.f == 2.0 and geom.s1 == pytest.approx(1.7)
    m = round_trip_matrix(geom)
    assert abs(m.a + 0.30) < 1e-12
    assert abs(m.b + 0.91 * 2.0) < 1e-12
    assert abs(m.c - 1.0 / 2.0) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValidationError):
        ResonatorGeometry(1.0, 1.0, f=0.0)
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
    backward = propagation(geom.l1) @ thin_lens(geom.f) @ propagation(geom.l2)
    m = backward @ forward
    assert_matrix_close(m, entries(round_trip_matrix(geom)))


def test_right_mirror_round_trip():
    geom = REFERENCE_GEOMETRY
    m_right = round_trip_matrix(geom, plane="right_mirror")
    a, b, c = right_mirror_elements(geom.s1, geom.s2)
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
    columns = res.columns()
    l1, l2 = columns[:2]
    assert [len(col) for col in columns] == [4, 4, 4, 4]
    assert (l1[0], l2[0]) == (0.0, 0.0)
    assert (l1[1], l2[1]) == (0.0, 1.0)  # l2 is the inner loop
    assert (l1[2], l2[2]) == (1.0, 0.0)
    np.testing.assert_array_equal(columns[2], res.stable.ravel())
    np.testing.assert_array_equal(columns[3], res.theta.ravel())
