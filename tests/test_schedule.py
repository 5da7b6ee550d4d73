"""Tests for the adiabatic mirror-motion schedule."""

import json
import math

import numpy as np
import pytest
from scipy.constants import c as SPEED_OF_LIGHT

from kanai_cavity import cli
from kanai_cavity.core import FrictionProfile
from kanai_cavity.errors import InvalidScheduleError, ValidationError
from kanai_cavity.paraxial import ResonatorGeometry, round_trip_matrix
from kanai_cavity.schedule import MirrorSchedule
from oracles import SPEED_OF_LIGHT as ORACLE_SPEED_OF_LIGHT
from oracles import (integrate_schedule_ode, mirror_speed_estimate,
                     propagation, thin_lens)

GEOM0 = ResonatorGeometry(1.7, 1.5)


def make_schedule(gamma=1e-3):
    return MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))


# ---------------------------------------------------------------------------
# closed-form trajectories


def test_initial_positions_reproduced():
    sched = make_schedule()
    l1, l2 = sched.positions_at(0.0)
    assert abs(l1 - 1.7) < 1e-12
    assert abs(l2 - 1.5) < 1e-12


def test_asymptotic_positions():
    # for large g the lens-to-right-mirror arm diverges while l1 -> f
    sched = MirrorSchedule(GEOM0, FrictionProfile.tabulated([0.0, 1.0], [0.0, 40.0]))
    l1, l2 = sched.positions_at(1.0)
    assert l2 > 1e10
    assert abs(l1 - 1.0) < 1e-9


def test_matrix_elements_rescale_exponentially():
    sched = make_schedule()
    # pick the time where g = 0.5 (gamma n = 0.5)
    n = 0.5 / 1e-3
    m = round_trip_matrix(sched.geometry_at(n))
    assert abs(m.a - sched.a0) < 1e-10
    assert abs(m.b - sched.b0 * math.exp(-0.5)) < 1e-10
    assert abs(m.c - sched.c0 * math.exp(0.5)) < 1e-10


def test_element_drift_over_long_window():
    sched = make_schedule(1e-3)
    n = np.linspace(0.0, 3000.0, 3001)
    g, _ = sched.friction.evaluate(n)
    l1, l2 = sched.positions_at(n)
    from kanai_cavity.paraxial import round_trip_elements
    a, b, c = round_trip_elements(l1, l2)
    assert np.max(np.abs(a / sched.a0 - 1.0)) < 1e-10
    assert np.max(np.abs(b * np.exp(g) / sched.b0 - 1.0)) < 1e-10
    assert np.max(np.abs(c * np.exp(-g) / sched.c0 - 1.0)) < 1e-10


def test_right_mirror_elements_rescale_oppositely():
    sched = make_schedule()
    n = 0.5 / 1e-3
    a, b2, c2 = sched.right_elements_at(n)
    assert abs(a - sched.a0) < 1e-12
    assert abs(b2 - sched.right_b0 * math.exp(0.5)) < 1e-12
    assert abs(c2 - sched.right_c0 * math.exp(-0.5)) < 1e-12
    geom = sched.geometry_at(n)
    m = round_trip_matrix(ResonatorGeometry(geom.l2, geom.l1))
    assert abs(m.b - b2) < 1e-10


def test_theta_frozen_along_path():
    sched = make_schedule(1e-3)
    from kanai_cavity.paraxial import stability
    for n in (0.0, 500.0, 2000.0):
        info = stability(round_trip_matrix(sched.geometry_at(n)))
        assert abs(info.theta - sched.theta) < 1e-10


def test_half_matrix_composes_to_full_matrix():
    sched = make_schedule(1e-2)
    for n in (0.0, 120.0):
        geom = sched.geometry_at(n)
        forward = sched.half_matrix_at(n)
        backward = propagation(geom.l1) @ thin_lens(1.0) @ propagation(geom.l2)
        m = backward @ forward
        ref = round_trip_matrix(geom)
        assert abs(m.a - ref.a) < 1e-9
        assert abs(m.b - ref.b) < 1e-9


@pytest.mark.parametrize("friction", [
    FrictionProfile.constant(5e-3),
    FrictionProfile.tabulated((0.0, 3.3, 7.1, 12.45, 18.0, 26.7, 60.0),
                              (0.0, 0.011, 0.027, 0.05, 0.05, 0.12, 0.33))])
@pytest.mark.parametrize("l_over_f", [(1.7, 1.5), (1.2, 1.6), (1.05, 1.02)])
def test_half_elements_carry_the_half_matrix_bits(friction, l_over_f):
    """Every trip's half-trip elements, evaluated at once, have the float64
    bits of the per-trip ``half_matrix_at``."""
    sched = MirrorSchedule(ResonatorGeometry(*l_over_f), friction)
    n = np.arange(61.0)
    elements = sched.half_elements_at(n)
    for k in range(n.size):
        m = sched.half_matrix_at(float(k))
        assert [float(e[k]).hex() for e in elements] == [
            v.hex() for v in (m.a, m.b, m.c, m.d)], k


def test_schedule_validation():
    # l2(0) <= f leaves the closed forms undefined
    with pytest.raises(InvalidScheduleError):
        MirrorSchedule(ResonatorGeometry(0.5, 0.5), FrictionProfile.constant(1e-3))
    # unstable initial geometry
    with pytest.raises(InvalidScheduleError):
        MirrorSchedule(ResonatorGeometry(3.9, 3.9), FrictionProfile.constant(1e-3))
    with pytest.raises(ValidationError):
        MirrorSchedule(GEOM0, "not a profile")


def test_csv_rows_shape(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5},
        "friction": {"kind": "constant", "gamma": 1e-2},
        "run": {"n_max": 4, "dn": 1}}))
    out = tmp_path / "out"
    assert cli.main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "schedule.csv").read_text().splitlines()
    assert lines[0] == "gamma_n,l1_over_f,l2_over_f,a,b_over_f,c_times_f"
    assert len(lines) == 1 + 5
    n0 = [float(v) for v in lines[1].split(",")]
    assert n0[0] == 0.0
    assert abs(n0[1] - 1.7) < 1e-12 and abs(n0[2] - 1.5) < 1e-12
    assert abs(n0[3] + 0.30) < 1e-12
    assert abs(n0[4] + 0.91) < 1e-12 and abs(n0[5] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# velocity-system oracle


def test_ode_path_matches_closed_form():
    friction = FrictionProfile.constant(1e-2)
    n, l1, l2 = integrate_schedule_ode(GEOM0, friction, 200.0, 1.0)
    sched = MirrorSchedule(GEOM0, friction)
    l1_ref, l2_ref = sched.positions_at(n)
    assert np.max(np.abs(l1 - l1_ref)) < 1e-6
    assert np.max(np.abs(l2 - l2_ref)) < 1e-6


def test_stationary_profile_keeps_positions():
    friction = FrictionProfile.constant(0.0)
    n, l1, l2 = integrate_schedule_ode(GEOM0, friction, 50.0, 5.0)
    assert np.max(np.abs(l1 - 1.7)) < 1e-12
    assert np.max(np.abs(l2 - 1.5)) < 1e-12


def test_path_stays_strictly_stable():
    sched = make_schedule(1e-3)
    n = np.linspace(0.0, 2000.0, 200)
    l1, l2 = sched.positions_at(n)
    from kanai_cavity.paraxial import round_trip_elements
    a, _, _ = round_trip_elements(l1, l2)
    assert np.all(np.abs(a) < 1.0)
    # the arms themselves stay inside the plotted window's upper domain
    assert np.all(l2 > 1.0) and np.all(l1 > 1.0)


# ---------------------------------------------------------------------------
# physical mirror speed


def test_speed_of_light_is_the_si_value():
    assert ORACLE_SPEED_OF_LIGHT == SPEED_OF_LIGHT == 299792458.0


def test_mirror_speed_initial_value():
    sched = make_schedule(1e-3)
    v = mirror_speed_estimate(sched, 1.0, 0.0)
    expected = 1e-3 * SPEED_OF_LIGHT * 0.5 / 3.2
    assert abs(v - expected) < 1e-9 * expected


def test_mirror_speed_zero_friction():
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(0.0))
    assert mirror_speed_estimate(sched, 1.0, 100.0) == 0.0


def test_mirror_speed_asymptote():
    # once l2 >> f the speed saturates at gdot * c
    gamma = 1e-8
    sched = MirrorSchedule(GEOM0, FrictionProfile.constant(gamma))
    n = 6.0 / gamma  # g = 6, l2/f ~ 200
    v = mirror_speed_estimate(sched, 1.0, n)
    assert abs(v / (gamma * SPEED_OF_LIGHT) - 1.0) < 0.1


def test_mirror_speed_validation():
    sched = make_schedule()
    with pytest.raises(ValidationError):
        mirror_speed_estimate(sched, 0.0, 1.0)
