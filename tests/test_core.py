"""Tests for the damped-oscillator core: friction profiles and u1/u2."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from kanai_cavity.core import (
    ClassicalSolution,
    FrictionProfile,
    flow_products,
    fundamental_solutions,
    magnus4_steps,
    oscillator_flow,
)
from kanai_cavity.errors import (
    DomainError,
    NumericalError,
    UnsupportedRegimeError,
    ValidationError,
)
from oracles import node_grid_solution, stepwise_products


# ---------------------------------------------------------------------------
# friction profiles


def test_constant_friction_values():
    prof = FrictionProfile.constant(1e-3)
    assert prof.evaluate(0.0) == (0.0, 1e-3)
    g, gdot = prof.evaluate(2.0)
    assert abs(g - 2e-3) < 1e-18
    assert gdot == 1e-3


def test_constant_friction_vectorized():
    prof = FrictionProfile.constant(0.25)
    n = np.array([0.0, 1.0, 4.0])
    g, gdot = prof.evaluate(n)
    assert np.allclose(g, [0.0, 0.25, 1.0], rtol=0, atol=1e-15)
    assert np.all(gdot == 0.25)


def test_zero_friction_is_allowed():
    prof = FrictionProfile.constant(0.0)
    g, gdot = prof.evaluate(123.0)
    assert g == 0.0 and gdot == 0.0


def test_constant_friction_rejects_negative_rate():
    with pytest.raises(ValidationError):
        FrictionProfile.constant(-1e-3)


def test_tabulated_linear_profile_interpolates_exactly():
    # a linear table must be reproduced exactly between nodes
    n = np.array([0.0, 250.0, 700.0, 1200.0, 1800.0, 2400.0, 3000.0])
    prof = FrictionProfile.tabulated(n, 2e-3 * n)
    g, gdot = prof.evaluate(1500.5)
    assert abs(g - 2e-3 * 1500.5) < 1e-12
    assert abs(gdot - 2e-3) < 1e-12


def test_tabulated_domain_errors():
    prof = FrictionProfile.tabulated([0.0, 10.0], [0.0, 0.1])
    with pytest.raises(DomainError):
        prof.evaluate(-0.5)
    with pytest.raises(DomainError):
        prof.evaluate(10.5)
    # the right endpoint itself is inside the domain
    g, _ = prof.evaluate(10.0)
    assert abs(g - 0.1) < 1e-15


#: Random tables compared bit for bit with scipy's PCHIP.
PCHIP_TABLES = 240


def _random_table(rng, index):
    """Seeded monotone table of 2-60 nodes; a third hold flat stretches."""
    size = int(rng.integers(2, 61))
    n = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 12.0, size - 1))))
    steps = rng.uniform(0.0, 0.02, size - 1) * rng.choice(
        [1e-3, 1.0, 10.0], size - 1)
    if index % 3 == 0:
        steps[rng.random(size - 1) < 0.4] = 0.0
        steps[rng.integers(size - 1)] = 0.0
    if index % 5 == 0:
        # dips the validation tolerates flip the sign of a secant slope
        dips = rng.random(size - 1) < 0.3
        steps[dips] = -rng.uniform(0.0, 9e-13, int(dips.sum()))
    # g(0) = -0.0 shows whether a sum starts from +0.0 as scipy's does
    start = -0.0 if index % 4 == 1 else 0.0
    return n, np.concatenate(([start], np.cumsum(steps)))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_tabulated_profile_is_bit_identical_to_scipy_pchip():
    rng = np.random.default_rng(20261018)
    flat_tables = 0
    for index in range(PCHIP_TABLES):
        n, g = _random_table(rng, index)
        flat_tables += bool(np.any(np.diff(g) == 0.0))
        prof = FrictionProfile.tabulated(n, g)
        ref = PchipInterpolator(n, g)
        dref = ref.derivative()
        n_max = n[-1]
        x = np.concatenate((n, rng.uniform(0.0, n_max, 50),
                            np.arange(0.0, n_max, 0.125), [-0.0]))
        want_g, want_gdot = _bits(ref(x)), _bits(dref(x))
        # 1-D and 2-D arrays
        g_x, gdot_x = prof.evaluate(x)
        assert np.array_equal(_bits(g_x), want_g), index
        assert np.array_equal(_bits(gdot_x), want_gdot), index
        g_x, gdot_x = prof.evaluate(np.stack((x, x[::-1])))
        assert np.array_equal(_bits(g_x), np.stack((want_g, want_g[::-1])))
        assert np.array_equal(_bits(gdot_x),
                              np.stack((want_gdot, want_gdot[::-1])))
        # one-element queries: every node, random points, grid points and -0.0
        picks = np.concatenate((np.arange(n.size),
                                rng.integers(n.size, x.size, 30), [-1]))
        for i in picks:
            value = float(x[i])
            for form in (value, np.array(value)):
                g_1, gdot_1 = prof.evaluate(form)
                assert type(g_1) is float and type(gdot_1) is float
                assert _bits(g_1) == want_g[i] and _bits(gdot_1) == want_gdot[i]
            g_1, gdot_1 = prof.evaluate(np.array([value]))
            assert g_1.shape == (1,) and gdot_1.shape == (1,)
            assert _bits(g_1)[0] == want_g[i]
            assert _bits(gdot_1)[0] == want_gdot[i]
        # just past the end is clamped onto the last node
        past = n_max * (1.0 + 5e-13)
        assert _bits(prof.evaluate(past)[0]) == _bits(ref(n_max))
        assert _bits(prof.evaluate(np.array([past, 0.0]))[1][0]) == \
            _bits(dref(n_max))
    assert flat_tables >= 0.2 * PCHIP_TABLES


_INPUT_FORMS = [
    pytest.param(lambda v: v, id="float"),
    pytest.param(lambda v: np.array(v), id="0d"),
    pytest.param(lambda v: np.array([v]), id="1-element"),
    pytest.param(lambda v: np.array([1.0, v]), id="1d"),
    pytest.param(lambda v: np.array([[1.0], [v]]), id="2d"),
]


@pytest.mark.parametrize("form", _INPUT_FORMS)
def test_friction_domain_messages_for_every_input_form(form):
    table = FrictionProfile.tabulated([0.0, 4.0, 10.0], [0.0, 0.01, 0.03])
    below = "friction profiles are defined for n >= 0"
    for prof in (table, FrictionProfile.constant(1e-3)):
        for value in (-0.5, -math.inf):
            with pytest.raises(DomainError) as err:
                prof.evaluate(form(value))
            assert str(err.value) == below
    for value, shown in ((12.5, "12.5"), (1e20, "1e+20"),
                         (10.0 + 1e-9, "10.000000001"), (math.inf, "inf")):
        with pytest.raises(DomainError) as err:
            table.evaluate(form(value))
        assert str(err.value) == (
            "n = %s outside tabulated friction range [0, 10]" % shown)
    # NaN fails the n >= 0 check of both kinds
    for prof in (table, FrictionProfile.constant(1e-3)):
        with pytest.raises(DomainError) as err:
            prof.evaluate(form(math.nan))
        assert str(err.value) == below


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        FrictionProfile.tabulated([0.0, 5.0, 5.0], [0.0, 0.1, 0.2])
    with pytest.raises(ValidationError):
        FrictionProfile.tabulated([1.0, 5.0], [0.0, 0.1])
    with pytest.raises(ValidationError):
        FrictionProfile.tabulated([0.0, 5.0], [0.3, 0.5])
    with pytest.raises(ValidationError):
        FrictionProfile.tabulated([0.0, 5.0, 10.0], [0.0, 0.2, 0.1])
    with pytest.raises(ValidationError):
        FrictionProfile.tabulated([0.0], [0.0])


def test_friction_csv_roundtrip(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("n,g\n0.0,0.0\n100.0,0.05\n300.0,0.2\n")
    prof = FrictionProfile.from_csv(path)
    g, _ = prof.evaluate(100.0)
    assert abs(g - 0.05) < 1e-15
    assert prof.n_max == 300.0


def test_friction_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,gain\n0,0\n1,0.1\n")
    with pytest.raises(ValidationError):
        FrictionProfile.from_csv(path)
    path.write_text("")
    with pytest.raises(ValidationError):
        FrictionProfile.from_csv(path)
    path.write_text("n,g\n0,zero\n")
    with pytest.raises(ValidationError):
        FrictionProfile.from_csv(path)


def test_friction_csv_with_byte_order_mark(tmp_path):
    """A UTF-8 table saved with a byte-order mark reads like one without."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "n,g\n0.0,0.0\n100.0,0.05\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want = FrictionProfile.from_csv(plain)
    got = FrictionProfile.from_csv(marked)
    assert got.nodes.tolist() == want.nodes.tolist() == [0.0, 100.0]
    assert got.evaluate(50.0) == want.evaluate(50.0)


# ---------------------------------------------------------------------------
# oscillator parameters


def test_reduced_frequency():
    sol = fundamental_solutions(1.0, FrictionProfile.constant(0.2))
    assert abs(sol._big_omega - math.sqrt(1.0 - 0.01)) < 1e-15


def test_overdamped_regime_rejected():
    with pytest.raises(UnsupportedRegimeError) as excinfo:
        fundamental_solutions(1.0, FrictionProfile.constant(2.5),
                              method="closed_form")
    assert str(excinfo.value) == (
        "gamma = 2.5 >= 2*omega = 2: not underdamped; use the numerical-ODE "
        "branch")
    # auto picks the ODE branch instead
    assert fundamental_solutions(1.0, FrictionProfile.constant(2.5),
                                 n_max=1.0).kind == "ode"


def test_invalid_omega_rejected():
    for omega in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError) as excinfo:
            fundamental_solutions(omega, FrictionProfile.constant(0.0))
        assert str(excinfo.value) == (
            "omega must be finite and > 0, got %r" % omega)


def test_friction_must_be_a_profile():
    with pytest.raises(ValidationError) as excinfo:
        fundamental_solutions(1.0, 1e-3)
    assert str(excinfo.value) == "friction must be a FrictionProfile"


# ---------------------------------------------------------------------------
# closed-form fundamental solutions


def test_initial_conditions():
    sol = fundamental_solutions(1.3, FrictionProfile.constant(5e-3))
    assert sol.u1(0.0) == 0.0
    assert sol.du1(0.0) == 1.0
    assert sol.u2(0.0) == 1.0
    assert sol.du2(0.0) == 0.0


def test_undamped_solution_is_trigonometric():
    sol = fundamental_solutions(1.0, FrictionProfile.constant(0.0))
    n = math.pi / 2.0
    assert abs(sol.u1(n) - 1.0) < 1e-15
    assert abs(sol.u2(n)) < 1e-15
    assert abs(sol.wronskian(n) - 1.0) < 1e-15
    grid = np.linspace(0.0, 20.0, 400)
    assert np.max(np.abs(sol.u1(grid) - np.sin(grid))) < 1e-12
    assert np.max(np.abs(sol.u2(grid) - np.cos(grid))) < 1e-12


def test_damped_closed_form_expressions():
    gamma, omega = 0.2, 1.0
    sol = fundamental_solutions(omega, FrictionProfile.constant(gamma))
    nu = math.sqrt(omega ** 2 - gamma ** 2 / 4.0)
    n = np.linspace(0.0, 30.0, 300)
    env = np.exp(-gamma * n / 2.0)
    assert np.max(np.abs(sol.u1(n) - env * np.sin(nu * n) / nu)) < 1e-12
    assert np.max(np.abs(
        sol.u2(n) - env * (np.cos(nu * n) + gamma / (2 * nu) * np.sin(nu * n))
    )) < 1e-12


def test_wronskian_matches_damping_exponent():
    gamma = 1e-3
    sol = fundamental_solutions(1.0, FrictionProfile.constant(gamma))
    # at n = 1/gamma the Wronskian has decayed to exactly 1/e
    assert abs(sol.wronskian(1000.0) - math.exp(-1.0)) < 1e-9
    n = np.linspace(0.0, 3000.0, 600)
    assert np.max(np.abs(sol.wronskian(n) - np.exp(-gamma * n))) < 1e-9
    assert sol.wronskian(500.0) == (sol.du1(500.0) * sol.u2(500.0)
                                    - sol.du2(500.0) * sol.u1(500.0))


def test_decay_envelope_bound():
    for gamma, omega in ((1e-3, 1.0), (1e-2, 0.7), (0.1, 1.88)):
        sol = fundamental_solutions(omega, FrictionProfile.constant(gamma))
        nu = math.sqrt(omega ** 2 - gamma ** 2 / 4.0)
        n = np.linspace(0.0, 8.0 / max(gamma, 1e-2), 4000)
        bound = (1.0 + gamma / (2.0 * nu)) * np.exp(-gamma * n / 2.0)
        assert np.all(np.abs(sol.u2(n)) <= bound * (1.0 + 1e-12))


def test_scalar_evaluation_returns_floats():
    sol = fundamental_solutions(1.0, FrictionProfile.constant(1e-3))
    assert isinstance(sol.u1(2.0), float)
    assert isinstance(sol.wronskian(2.0), float)
    arr = sol.u2(np.array([1.0, 2.0]))
    assert arr.shape == (2,)


# ---------------------------------------------------------------------------
# ODE branch against the closed form


def test_ode_matches_closed_form_moderate_damping():
    friction, omega = FrictionProfile.constant(0.2), 1.0
    closed = fundamental_solutions(omega, friction, method="closed_form")
    ode = fundamental_solutions(omega, friction, method="ode", n_max=10.0)
    for fn in ("u1", "du1", "u2", "du2"):
        dev = abs(getattr(ode, fn)(5.0) - getattr(closed, fn)(5.0))
        assert dev < 1e-9, (fn, dev)


def test_ode_matches_closed_form_long_windows():
    # long-window agreement for the slow-friction regimes of interest
    for gamma in (1e-3, 1e-2):
        for omega in (0.5, 1.88):
            friction = FrictionProfile.constant(gamma)
            closed = fundamental_solutions(omega, friction)
            ode = fundamental_solutions(omega, friction, method="ode",
                                        n_max=10.0 / gamma)
            n = np.linspace(0.0, 10.0 / gamma, 1500)
            dev = max(
                np.max(np.abs(ode.u1(n) - closed.u1(n))),
                np.max(np.abs(ode.u2(n) - closed.u2(n))),
            )
            assert dev < 1e-8, (gamma, omega, dev)


def test_ode_wronskian_for_tabulated_friction():
    # dense monotone table; the integrator restarts at table nodes, so the
    # Wronskian identity W = exp(-g) must hold to integrator accuracy
    nodes = np.linspace(0.0, 400.0, 161)
    g = 2e-3 * nodes + 5e-4 * (1.0 - np.cos(0.05 * nodes))
    friction = FrictionProfile.tabulated(nodes, g)
    sol = fundamental_solutions(1.1, friction)
    n = np.linspace(0.0, 400.0, 900)
    g_n, _ = friction.evaluate(n)
    assert np.max(np.abs(sol.wronskian(n) - np.exp(-g_n))) < 1e-9


def test_ode_requires_window_for_constant_friction():
    friction = FrictionProfile.constant(1e-3)
    with pytest.raises(ValidationError):
        fundamental_solutions(1.0, friction, method="ode")
    for n_max, message in ((0.0, "n_max must be positive"),
                           (-1.0, "n_max must be positive"),
                           (math.nan, "n_max must be finite, got nan"),
                           (math.inf, "n_max must be finite, got inf")):
        with pytest.raises(ValidationError) as excinfo:
            fundamental_solutions(1.0, friction, method="ode", n_max=n_max)
        assert str(excinfo.value) == message
    sol = fundamental_solutions(1.0, friction, method="ode", n_max=50.0)
    with pytest.raises(DomainError):
        sol.u1(51.0)


@pytest.mark.parametrize("method", ["closed_form", "ode"])
def test_solution_domain_errors_alike_for_scalars_and_arrays(method):
    sol = fundamental_solutions(1.0, FrictionProfile.constant(1e-3),
                                method=method, n_max=50.0)
    outside = [-0.5] if method == "closed_form" else [-0.5, 51.0]
    for value in outside:
        messages = set()
        for n in (value, np.float64(value), np.array(value),
                  np.array([1.0, value])):
            with pytest.raises(DomainError) as excinfo:
                sol.du2(n)
            messages.add(str(excinfo.value))
        assert len(messages) == 1
    # values inside the window, both end points included, evaluate alike
    for value in (0.0, 50.0):
        assert sol.u2(value) == sol.u2(np.array([value]))[0]


@pytest.mark.parametrize("kind", ["constant", "tabulated", "closed_form",
                                  "ode"])
def test_nan_and_inf_are_outside_every_domain(kind):
    """Friction profiles of both kinds and fundamental solutions of both
    kinds refuse NaN and +inf, as scalars and inside arrays, without a
    floating-point warning on the way."""
    friction = (FrictionProfile.tabulated([0.0, 4.0, 10.0], [0.0, 0.01, 0.03])
                if kind == "tabulated" else FrictionProfile.constant(1e-3))
    evaluate = (friction.evaluate if kind in ("constant", "tabulated") else
                fundamental_solutions(1.0, friction, method=kind,
                                      n_max=50.0).u1)
    for value in (math.nan, math.inf):
        for n in (value, np.array(value), np.array([1.0, value])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    evaluate(n)


def test_closed_form_requires_constant_friction():
    friction = FrictionProfile.tabulated([0.0, 10.0], [0.0, 0.05])
    with pytest.raises(ValidationError):
        fundamental_solutions(1.0, friction, method="closed_form")
    sol = fundamental_solutions(1.0, friction)  # auto falls back to the ODE
    assert isinstance(sol, ClassicalSolution)
    assert abs(sol.u2(0.0) - 1.0) == 0.0


def test_magnus_step_local_error_is_fifth_order():
    # a generator whose values at different times do not commute, so the
    # commutator term of the scheme matters
    def generator(t):
        return 0.3 * t, 1.0 + 0.5 * t, -(1.0 + t)

    def rhs(t, y):
        a, b, c = generator(t)
        return [a * y[0] + b * y[2], a * y[1] + b * y[3],
                c * y[0] - a * y[2], c * y[1] - a * y[3]]

    errors = []
    for h in (0.4, 0.2):
        ref = solve_ivp(rhs, (0.0, h), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-15).y[:, -1]
        step = np.array(magnus4_steps(np.array([0.0]), h, generator))[:, 0]
        errors.append(np.max(np.abs(step - ref)))
    # local error O(h^5): halving h divides it by about 32
    assert errors[0] / errors[1] > 24.0, errors


def _rough_friction(seed=3, n_max=40.0):
    """Monotone table with nodes every 0.2-0.9 trips (off the 1/8-trip
    grid) and rates up to 4e-2 per trip."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.2, 0.9, int(n_max / 0.2) + 1)
    nodes = np.concatenate(([0.0], np.cumsum(steps)))
    nodes = nodes[nodes < n_max - 0.1]
    nodes = np.append(nodes, n_max)
    rates = rng.uniform(0.0, 4e-2, nodes.size - 1)
    g = np.concatenate(([0.0], np.cumsum(rates * np.diff(nodes))))
    return FrictionProfile.tabulated(nodes, g)


def _dop853_oracle(friction, omega, n):
    """u1, u1', u2, u2' at ``n`` by DOP853, restarted at every table node."""
    def rhs(t, y):
        gdot = friction.evaluate(t)[1]
        return [y[1], -gdot * y[1] - omega ** 2 * y[0],
                y[3], -gdot * y[3] - omega ** 2 * y[2]]

    out = np.empty((4, n.size))
    y = [0.0, 1.0, 1.0, 0.0]
    nodes = friction.nodes
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        seg = solve_ivp(rhs, (lo, hi), y, method="DOP853", dense_output=True,
                        rtol=1e-12, atol=1e-14)
        inside = (n >= lo) & (n <= hi)
        out[:, inside] = seg.sol(n[inside])
        y = seg.y[:, -1]
    return out


def test_magnus_flow_matches_dop853_on_rough_table():
    friction = _rough_friction()
    omega = 1.88
    sol = fundamental_solutions(omega, friction)
    n = np.linspace(0.0, friction.n_max, 777)
    ref = _dop853_oracle(friction, omega, n)
    for row, fn in enumerate(("u1", "du1", "u2", "du2")):
        dev = np.max(np.abs(getattr(sol, fn)(n) - ref[row]))
        assert dev <= 1e-8, (fn, dev)
    g_n, _ = friction.evaluate(n)
    assert np.max(np.abs(sol.wronskian(n) - np.exp(-g_n))) < 1e-12


def test_magnus_flow_matches_closed_form_between_and_on_boundaries():
    # 12.3 trips is not a multiple of the 1/8-trip starting step
    friction = FrictionProfile.constant(0.2)
    closed = fundamental_solutions(1.3, friction, method="closed_form")
    ode = fundamental_solutions(1.3, friction, method="ode", n_max=12.3)
    bounds = ode._t
    assert bounds[-1] == 12.3
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    thirds = bounds[:-1] + (bounds[1:] - bounds[:-1]) / 3.0
    for n in (bounds, mids, thirds, np.array([0.05, 7.77, 12.3])):
        for fn in ("u1", "du1", "u2", "du2"):
            dev = np.max(np.abs(getattr(ode, fn)(n) - getattr(closed, fn)(n)))
            assert dev < 1e-11, (fn, dev)
    assert ode.u1(12.3) == pytest.approx(closed.u1(12.3), abs=1e-11)


#: A small monotone g(n) table whose nodes are off the 1/8-trip grid.
OFF_GRID_TABLE = FrictionProfile.tabulated(
    [0.0, 3.3, 7.1, 12.45, 18.0, 26.7, 33.05, 41.9, 50.0, 60.0],
    [0.0, 0.011, 0.027, 0.05, 0.081, 0.12, 0.152, 0.21, 0.26, 0.33])


def _benchmark_table():
    """A node every 10 trips to 220, rates near 1e-3 per trip."""
    rng = np.random.default_rng(5)
    n = np.arange(0.0, 230.0, 10.0)
    return FrictionProfile.tabulated(
        n, np.concatenate(([0.0], np.cumsum(rng.uniform(6e-3, 1.2e-2,
                                                        n.size - 1)))))


@pytest.mark.parametrize("case", [
    "off_grid_table", "rough_table", "benchmark_table", "overdamped",
    "non_integer_window"])
def test_ode_branch_matches_the_per_node_grid_at_integer_trips(case):
    """At the integer trips, u1, u1', u2 and u2' agree with the ODE branch
    on its earlier grid of equal steps between table nodes
    (``oracles.node_grid_solution``) to 1e-11 of their largest magnitude,
    the halving loop's convergence tolerance."""
    friction, omega, n_max = {
        "off_grid_table": (OFF_GRID_TABLE, 1.88, 60.0),
        "rough_table": (_rough_friction(), 1.88, 40.0),
        "benchmark_table": (_benchmark_table(), 1.86, 200.0),
        "overdamped": (FrictionProfile.constant(2.5), 1.0, 30.0),
        "non_integer_window": (FrictionProfile.constant(0.2), 1.3, 12.3),
    }[case]
    sol = fundamental_solutions(omega, friction, method="ode", n_max=n_max)
    ref = node_grid_solution(omega, friction, n_max)
    n = np.arange(math.floor(n_max) + 1.0)
    got, want = ([getattr(s, fn)(n) for fn in ("u1", "du1", "u2", "du2")]
                 for s in (sol, ref))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-11 * scale


#: Trips at which the fundamental solutions are pinned: 0, two trips off
#: every grid, and the midpoints of four steps of the ODE branch's
#: 1/64-trip grid on OFF_GRID_TABLE (the first, the short ones before the
#: node 3.3 and after the node 12.45, and the last).
PIN_TRIPS = (0.0, 0.37, 12.3, 0.0078125, 3.2984375, 12.4515625, 59.9921875)

#: float.hex of u1, du1, u2, du2 and the Wronskian at PIN_TRIPS.
PINNED_SOLUTION_BITS = {
    "closed_form": {
        "u1": ("0x0.0p+0", "0x1.5d21964f01560p-2", "-0x1.ddf1eeae8ff94p-2",
               "0x1.fffacc4e4b26ap-8", "-0x1.a62d7fe93d060p-5",
               "-0x1.0964bd15e7039p-1", "-0x1.23412d6684d5dp-2"),
        "du1": ("0x1.0000000000000p+0", "0x1.896eb0641c789p-1",
                "-0x1.e1af1f22da863p-2", "0x1.fff0e8051cae6p-1",
                "0x1.fcc4b0c2ecb38p-1", "-0x1.a5d5b3b409124p-3",
                "0x1.9f2491ece0264p-1"),
        "u2": ("0x1.0000000000000p+0", "0x1.899b60b8e2fffp-1",
               "-0x1.e22979be2a072p-2", "0x1.fff1ee275009ap-1",
               "0x1.fcbdef857c6cep-1", "-0x1.a6e5770504e01p-3",
               "0x1.9eff4a1837610p-1"),
        "du2": ("-0x0.0p+0", "-0x1.33046bd9017cdp+0", "0x1.a44aff3563343p+0",
                "-0x1.c238dfadb2f1dp-6", "0x1.7340a873782ccp-3",
                "0x1.d2c2c8540d26cp+0", "0x1.001f3d6fe0087p+0"),
        "wronskian": ("0x1.0000000000000p+0", "0x1.ffcf83281c066p-1",
                      "0x1.f9bdb0562bf4cp-1", "0x1.fffef9db65eccp-1",
                      "0x1.fe5061223299dp-1", "0x1.f9aa114b189cfp-1",
                      "0x1.e22fece18c891p-1"),
    },
    "ode": {
        "u1": ("0x0.0p+0", "0x1.5cdd9f337209bp-2", "-0x1.e13a614145694p-2",
               "0x1.fff9ca102fa1bp-8", "-0x1.63f39db371185p-5",
               "-0x1.068271786f219p-1", "-0x1.1c31aeac0a23ap-3"),
        "du1": ("0x1.0000000000000p+0", "0x1.889236574c96bp-1",
                "-0x1.a6c5aec1e0647p-2", "0x1.ffeeddb267886p-1",
                "0x1.fb83d00029db1p-1", "-0x1.2e69da9b617c6p-3",
                "0x1.9d56b0b1609edp-1"),
        "u2": ("0x1.0000000000000p+0", "0x1.891707f3be207p-1",
               "-0x1.a8a107a093bdbp-2", "0x1.fff1dcddf6abfp-1",
               "0x1.fb706d9092d66p-1", "-0x1.327fff880b795p-3",
               "0x1.9cf8b9dc1a04ep-1"),
        "du2": ("0x0.0p+0", "-0x1.34417e59c49dfp+0", "0x1.a949152747df3p+0",
                "-0x1.c461bb2ac3000p-6", "0x1.39b631bc774ffp-3",
                "0x1.cfea2b7916cb5p+0", "0x1.f45fb68555863p-2"),
        "wronskian": ("0x1.0000000000000p+0", "0x1.ff6fd55fb36dep-1",
                      "0x1.e761d17aefc5ep-1", "0x1.fffd00cd61286p-1",
                      "0x1.fa66dc48dc44ep-1", "0x1.e70698e607cb0p-1",
                      "0x1.701c42db478d4p-1"),
    },
}


@pytest.mark.parametrize("kind", ["closed_form", "ode"])
def test_fundamental_solutions_keep_their_bits(kind):
    """u1, u1', u2, u2' and W carry pinned bits, for scalar and array n,
    on the closed form (theta = 1.8755, gamma = 1e-3) and on the ODE
    branch over OFF_GRID_TABLE, where every pinned trip past 0 ends in a
    partial step of nonzero length."""
    sol = {"closed_form": lambda: fundamental_solutions(
               1.8755, FrictionProfile.constant(1e-3)),
           "ode": lambda: fundamental_solutions(
               1.88, OFF_GRID_TABLE, method="ode", n_max=60.0)}[kind]()
    assert sol.kind == kind
    for fn, want in PINNED_SOLUTION_BITS[kind].items():
        scalars = [getattr(sol, fn)(n).hex() for n in PIN_TRIPS]
        array = [float(v).hex() for v in getattr(sol, fn)(np.array(PIN_TRIPS))]
        assert scalars == list(want), fn
        assert array == list(want), fn


def _table(n):
    """A table through the nodes ``n`` with g rising 0.01 per trip."""
    return FrictionProfile.tabulated(n, 0.01 * np.asarray(n, dtype=float))


@pytest.mark.parametrize("case", [
    "non_integer_window", "zero_trips", "integer_nodes", "node_near_grid"])
def test_flow_grid_ends_steps_at_nodes_and_trips(case):
    """The step ends of ``oscillator_flow`` increase strictly and hold
    every grid point, every table node, every integer trip and n_max; a
    node on the grid is not repeated, one 1e-12 from a grid point ends a
    step of 1e-12, and W = exp(-g) holds at every step end."""
    friction, n_max = {
        "non_integer_window": (FrictionProfile.constant(0.2), 12.3),
        "zero_trips": (OFF_GRID_TABLE, 0),
        "integer_nodes": (_table([0.0, 1.0, 2.0, 5.0, 9.0, 12.0]), 12),
        "node_near_grid": (_table([0.0, 2.5 - 1e-12, 2.75 + 1e-12, 6.0]), 6),
    }[case]
    nodes = np.empty(0) if friction.nodes is None else friction.nodes
    for halvings in (0, 2):
        per_trip = 8 << halvings
        t, phi = oscillator_flow(friction, 1.3 ** 2, n_max, halvings)
        grid = np.arange(math.ceil(n_max * per_trip)) / per_trip
        assert t[0] == 0.0 and t[-1] == n_max
        assert np.all(np.diff(t) > 0.0)
        for must in (grid, nodes[nodes <= n_max],
                     np.arange(math.floor(n_max) + 1.0)):
            assert np.isin(must, t).all()
        assert t.size == np.union1d(grid, nodes[nodes < n_max]).size + 1
        assert phi.shape == (t.size, 4)
        assert np.array_equal(phi[0], [1.0, 0.0, 0.0, 1.0])
        wronskian = phi[:, 0] * phi[:, 3] - phi[:, 1] * phi[:, 2]
        g_t, _ = friction.evaluate(t)
        assert np.max(np.abs(wronskian - np.exp(-g_t))) < 1e-12
    if case == "node_near_grid":
        assert np.min(np.diff(t)) == pytest.approx(1e-12, rel=1e-3)


def _damped_rotations(rng, k):
    """Entries of k random steps of one stable flow: damped rotations
    e^{-d/2} [[cos p, sin p / w], [-w sin p, cos p]], with w fixed."""
    phase = rng.uniform(0.0, 3.0, k)
    w = rng.uniform(0.3, 3.0)
    decay = np.exp(-0.5 * rng.uniform(0.0, 2e-3, k))
    cos, sin = decay * np.cos(phase), decay * np.sin(phase)
    return cos, sin / w, -w * sin, cos


@pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 24001])
def test_flow_products_follow_the_stepwise_products(k):
    """The blocked scan against the products carried one step at a time:
    row 0 is the start itself, every column stays within 2e-14 of its
    largest magnitude (the worst case read 4.1e-15), and the ends-only rows
    are the full result's rows at the block ends, bit for bit; its last
    row, K, closes a padded block and is held to the same bound."""
    rng = np.random.default_rng(k)
    steps = _damped_rotations(rng, k)
    for start in ((1.0, 0.0, 0.0, 1.0), tuple(rng.normal(size=4))):
        got = flow_products(steps, start)
        ref = stepwise_products(steps, start)
        assert got.shape == (k + 1, 4)
        assert np.array_equal(got[0], start)
        scale = np.max(np.abs(ref), axis=0)
        assert (np.max(np.abs(got - ref), axis=0) <= 2e-14 * scale).all()
        ends = flow_products(steps, start, ends_only=True)
        assert ends.shape == (-(-k // 8) + 1, 4)
        assert ends[:-1].tobytes() == got[:-1:8].tobytes()
        assert (np.abs(ends[-1] - ref[-1]) <= 2e-14 * scale).all()


@pytest.mark.parametrize("case", ["constant", "on_grid", "off_grid"])
def test_trip_rows_are_the_full_flow_rows(case):
    """``oscillator_flow(trips=True)`` returns the full flow's rows at the
    whole trips, bit for bit; a table with nodes off the grid keeps every
    step end."""
    friction = {"constant": FrictionProfile.constant(1.3e-3),
                "on_grid": _table([0.0, 1.0, 2.5, 4.125, 9.0, 30.0]),
                "off_grid": OFF_GRID_TABLE}[case]
    for n_max in (0, 1, 7, 30):
        t, phi = oscillator_flow(friction, 1.3 ** 2, n_max)
        t_trips, phi_trips = oscillator_flow(friction, 1.3 ** 2, n_max,
                                             trips=True)
        if case == "off_grid" and n_max > 3:
            assert t_trips.size == t.size > 8 * n_max + 1
            assert phi_trips.tobytes() == phi.tobytes()
        else:
            assert np.array_equal(t_trips, np.arange(n_max + 1.0))
            rows = phi[np.searchsorted(t, t_trips)]
            assert np.ascontiguousarray(phi_trips).tobytes() == rows.tobytes()


def test_overdamped_ode_branch_stays_finite_over_long_window():
    # gamma = 10: g reaches 2000, far beyond where e^{g} overflows
    gamma, omega = 10.0, 1.0
    sol = fundamental_solutions(omega, FrictionProfile.constant(gamma),
                                method="ode", n_max=200.0)
    n = np.linspace(0.0, 200.0, 401)
    kappa = math.sqrt(gamma ** 2 / 4.0 - omega ** 2)
    slow = np.exp((kappa - gamma / 2.0) * n)
    fast = np.exp(-(kappa + gamma / 2.0) * n)
    u1 = (slow - fast) / (2.0 * kappa)
    u2 = 0.5 * ((1.0 + gamma / (2.0 * kappa)) * slow
                + (1.0 - gamma / (2.0 * kappa)) * fast)
    for fn in ("u1", "du1", "u2", "du2"):
        assert np.all(np.isfinite(getattr(sol, fn)(n))), fn
    assert np.max(np.abs(sol.u1(n) - u1)) < 1e-10
    assert np.max(np.abs(sol.u2(n) - u2)) < 1e-10


def test_ode_branch_raises_when_halving_does_not_converge():
    # cosh(s) of a Magnus step overflows unless the step is far below
    # 1/512 trip, so every level up to the cap is NaN
    with pytest.raises(NumericalError, match="512 Magnus steps per trip"):
        fundamental_solutions(1.0, FrictionProfile.constant(1e6), method="ode",
                              n_max=1.0)


def test_overdamped_ode_branch_still_integrates():
    # no underdamped closed form, but the equation itself is fine
    sol = fundamental_solutions(1.0, FrictionProfile.constant(2.5), method="ode",
                                n_max=5.0)
    # overdamped solutions decay without ringing
    n = np.linspace(0.0, 5.0, 50)
    u2 = sol.u2(n)
    assert np.all(u2 > 0.0)
    assert np.all(np.diff(u2) < 0.0)
