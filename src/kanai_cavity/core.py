"""Friction profiles and the classical damped transverse oscillator.

Time is measured in round trips: ``n`` counts traversals of the resonator and
is treated as a continuous variable inside this module (the per-trip maps in
the ray and wave modules sample it at integers).  Damping enters through a
dimensionless exponent ``g(n)`` with rate ``gdot = dg/dn``; for a constant
friction rate ``gamma`` the exponent is ``g(n) = gamma * n`` and ``g(0) = 0``
always.

A friction profile induces the classical damped-oscillator equation

    x''(n) + gdot(n) x'(n) + omega**2 x(n) = 0

whose fundamental solutions ``u1`` (sine-like: u1(0)=0, u1'(0)=1) and ``u2``
(cosine-like: u2(0)=1, u2'(0)=0) drive everything else in the package: ray
envelopes, spot-size collapse, and the analytic wave propagator are all
expressed through them.  Their Wronskian

    W(n) = u1'(n) u2(n) - u2'(n) u1(n)

equals ``exp(-g(n))`` identically, which doubles as the module's main
self-test.
"""

import csv
import math

import numpy as np

from .errors import (DomainError, NumericalError, UnsupportedRegimeError,
                     ValidationError)

#: Gauss-Legendre nodes of a Magnus step, as fractions of the step.
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
#: Magnus steps per round trip of :func:`oscillator_flow` before halving,
#: and the block of steps :func:`flow_products` multiplies out at once.
_START_STEPS = 8
#: Halvings after which the ODE branch gives up (512 steps per trip).
_MAX_HALVINGS = 6
#: Largest change under one halving, relative to max |Phi|, that converges.
_FLOW_TOL = 1e-11


class FrictionProfile:
    """Damping exponent ``g(n)`` and its derivative on ``n >= 0``.

    Two kinds are supported:

    * ``"constant"`` -- ``g(n) = gamma * n`` with ``gamma >= 0``, defined for
      every ``n >= 0``.
    * ``"tabulated"`` -- monotone (PCHIP) interpolation of samples
      ``(n_i, g_i)``; queries outside the tabulated range raise
      :class:`DomainError`.  The interpolant and its derivative are
      bit-identical to scipy's ``PchipInterpolator`` and its
      ``derivative()`` on the same samples (see :func:`_pchip_coefficients`).

    ``g`` must be nondecreasing with ``g(0) = 0``.  Instances are immutable
    and safe to share between threads.
    """

    def __init__(self, kind, gamma=None, n_samples=None, g_samples=None):
        if kind == "constant":
            if gamma is None:
                raise ValidationError("constant friction requires gamma")
            gamma = float(gamma)
            if not math.isfinite(gamma) or gamma < 0.0:
                raise ValidationError(
                    "friction rate gamma must be finite and >= 0, got %r" % gamma)
            self.gamma = gamma
            self.n_max = math.inf
            self.nodes = None
        elif kind == "tabulated":
            n = np.asarray(n_samples, dtype=float)
            g = np.asarray(g_samples, dtype=float)
            if n.ndim != 1 or n.shape != g.shape or n.size < 2:
                raise ValidationError(
                    "tabulated friction needs matching 1-d n and g arrays "
                    "with at least two samples")
            if not np.all(np.isfinite(n)) or not np.all(np.isfinite(g)):
                raise ValidationError("tabulated friction samples must be finite")
            if np.any(np.diff(n) <= 0.0):
                raise ValidationError("tabulated n values must be strictly increasing")
            if n[0] != 0.0:
                raise ValidationError("tabulated friction must start at n = 0")
            if abs(g[0]) > 1e-12:
                raise ValidationError("friction exponent must satisfy g(0) = 0")
            if np.any(np.diff(g) < -1e-12):
                raise ValidationError("friction exponent g must be nondecreasing")
            self.gamma = None
            self.n_max = float(n[-1])
            self.nodes = n.copy()
            self._coef = _pchip_coefficients(n, g)
        else:
            raise ValidationError("unknown friction kind %r" % (kind,))
        self.kind = kind

    @classmethod
    def constant(cls, gamma):
        """Constant friction rate: g(n) = gamma * n."""
        return cls("constant", gamma=gamma)

    @classmethod
    def tabulated(cls, n_samples, g_samples):
        """Monotone interpolation through (n, g) samples."""
        return cls("tabulated", n_samples=n_samples, g_samples=g_samples)

    @classmethod
    def from_csv(cls, path):
        """Load a tabulated profile from a two-column CSV with header ``n,g``."""
        try:
            with open(path, "r", newline="", encoding="utf-8-sig") as handle:
                header, *rows = list(csv.reader(handle)) or [None]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError("cannot parse friction CSV %s: %s" % (path, exc))
        if header is None:
            raise ValidationError("friction CSV %s is empty" % path)
        if [col.strip() for col in header] != ["n", "g"]:
            raise ValidationError(
                "friction CSV %s must have header 'n,g', got %r" % (path, header))
        rows = [row for row in rows if row]
        try:
            n = np.array([float(row[0]) for row in rows])
            g = np.array([float(row[1]) for row in rows])
        except (ValueError, IndexError) as exc:
            raise ValidationError("friction CSV %s has a malformed row: %s" % (path, exc))
        return cls.tabulated(n, g)

    def evaluate(self, n):
        """Return ``(g(n), gdot(n))``; vectorized over ``n``.

        Raises :class:`DomainError` outside 0 <= n < inf or a tabulated range.
        """
        arr = np.asarray(n, dtype=float)
        scalar = np.isscalar(n) or (isinstance(n, np.ndarray) and n.ndim == 0)
        _check_domain(arr, self.n_max, "friction profiles",
                      "tabulated friction range [0, %g]")
        if self.kind == "constant":
            g = self.gamma * arr
            gdot = np.full_like(arr, self.gamma)
        else:
            flat = np.minimum(arr, self.n_max).ravel()
            # Interval k holds the query: the number of interior nodes <= n.
            k = np.searchsorted(self.nodes[1:-1], flat, side="right")
            g, gdot = _pchip_values(*self._coef.take(k, axis=1),
                                    flat - self.nodes.take(k))
            g, gdot = g.reshape(arr.shape), gdot.reshape(arr.shape)
        if scalar:
            return float(g), float(gdot)
        return g, gdot

    def __repr__(self):
        if self.kind == "constant":
            return "FrictionProfile.constant(gamma=%g)" % self.gamma
        return "FrictionProfile.tabulated(<%d samples, n_max=%g>)" % (
            self.nodes.size, self.n_max)


def _check_domain(arr, n_max, noun, window):
    """Refuse n outside [0, n_max] (+inf too where n_max is infinite) in
    the words of ``noun`` or ``window % n_max``; NaN fails each test."""
    if not (arr >= 0.0).all():
        raise DomainError("%s are defined for n >= 0" % noun)
    if n_max == math.inf:
        if not (arr < n_max).all():
            raise DomainError("%s are defined for finite n" % noun)
    elif not (arr <= n_max * (1.0 + 1e-12)).all():
        raise DomainError("n = %s outside %s" % (np.max(arr), window % n_max))


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end derivative, kept monotone (Moler, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """Cubic coefficients of the monotone PCHIP through ``(x, y)``.

    Column k of the (4, K) result holds ``(c0, c1, c2, c3)`` of the cubic
    ``c0 s^3 + c1 s^2 + c2 s + c3`` on ``[x_k, x_{k+1}]``, ``s = x - x_k``.
    The node derivatives are the weighted harmonic means of Fritsch &
    Carlson (SIAM J. Numer. Anal. 17, 238, 1980), zero where the secant
    slopes change sign or vanish, with :func:`_pchip_end_slope` at both
    ends; two nodes give a straight line.
    Every operation, and its order, repeats scipy's ``PchipInterpolator``
    and ``CubicHermiteSpline``, so the coefficients carry the same bits.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros(x.size)
        hold = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0.0) | (m[:-1] == 0.0))
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][~hold] = 1.0 / whmean[~hold]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_values(c0, c1, c2, c3, s):
    """``(g, gdot)`` of the cubics at offsets ``s``.

    The terms are summed in the order of scipy's ``_ppoly.evaluate``,
    starting from 0.0, so the sign of a zero result matches as well.
    """
    ss = s * s
    return (0.0 + c3 + c2 * s + c1 * ss + c0 * (ss * s),
            0.0 + c2 + 2.0 * c1 * s + 3.0 * c0 * ss)


def magnus4_steps(start, h, generator):
    """Step matrices of the fourth-order Magnus scheme for a 2x2 linear flow.

    The steps run from ``start`` to ``start + h`` (arrays, one value per
    step, or scalars that broadcast).  The flow's generator at times ``t``
    is ``[[alpha, beta], [gamma, -alpha]]`` with ``(alpha, beta, gamma) =
    generator(t)``; it is sampled at the two Gauss nodes of each step.  The
    Magnus generator of a step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    2009) is traceless, so its exponential is taken in closed form and has
    unit determinant to rounding.

    Returns the step matrix entries ``(e11, e12, e21, e22)`` as arrays.
    """
    a1, b1, c1 = generator(start + _GAUSS_NODES[0] * h)
    a2, b2, c2 = generator(start + _GAUSS_NODES[1] * h)
    half = 0.5 * h
    comm = math.sqrt(3.0) * h * h / 12.0
    a = np.atleast_1d(half * (a1 + a2) + comm * (b2 * c1 - b1 * c2))
    b = half * (b1 + b2) + 2.0 * comm * (a2 * b1 - a1 * b2)
    c = half * (c1 + c2) + 2.0 * comm * (a1 * c2 - a2 * c1)
    s_sq = a * a + b * c
    s = np.sqrt(np.abs(s_sq))
    grow = s_sq >= 0.0
    ch = np.where(grow, np.cosh(s), np.cos(s))
    sh = np.where(grow, np.sinh(s), np.sin(s))
    shs = np.divide(sh, s, out=1.0 + s_sq / 6.0, where=s > 1e-8)
    return ch + a * shs, b * shs, c * shs, ch - a * shs


def _times(e, p):
    """Entries of the 2x2 product E P from those of E and of P."""
    e11, e12, e21, e22 = e
    p11, p12, p21, p22 = p
    return (e11 * p11 + e12 * p21, e11 * p12 + e12 * p22,
            e21 * p11 + e22 * p21, e21 * p12 + e22 * p22)


def flow_products(steps, start=(1.0, 0.0, 0.0, 1.0), ends_only=False):
    """Running products of 2x2 step matrices, applied in step order.

    ``steps`` holds the entries ``(e11, e12, e21, e22)`` of the step
    matrices E_0 ... E_{K-1} as arrays.  Returns a (K+1, 4) array whose row
    k holds the entries (p11, p12, p21, p22) of E_{k-1} ... E_0 S, where
    ``start`` holds the entries of S (by default the identity) and is row
    0.  Each column of S is a state vector carried through the flow, so
    ``start = (x, y, x', y')`` traces two states (x, x') and (y, y') at
    once.  The running products inside each block of 8 steps are formed
    for all blocks at once; a Hillis-Steele prefix product carries S to
    every block end in ceil(log2(blocks + 1)) array products, and one more
    product carries it into the blocks.  With ``ends_only`` only the block
    ends, rows 0, 8, 16, ... and K, are formed and returned.
    """
    k, size = len(steps[0]), _START_STEPS
    blocks = -(-k // size)
    # identity steps pad the last block; their rows are dropped
    run = np.tile([[1.0], [0.0], [0.0], [1.0]], blocks * size)
    run[:, :k] = steps
    # step-major: run[:, j] holds step j of every block
    run = run.reshape(4, blocks, size).transpose(0, 2, 1).copy()
    for j in range(1, size):
        run[:, j] = _times(run[:, j], run[:, j - 1])
    ends = np.column_stack((start, run[:, -1]))
    shift = 1
    while shift <= blocks:
        ends[:, shift:] = _times(ends[:, shift:], ends[:, :-shift])
        shift *= 2
    if ends_only:
        return ends.T
    run[:, :-1] = _times(run[:, :-1], ends[:, None, :-1])
    run[:, -1] = ends[:, 1:]
    return np.concatenate((ends.T[:1], run.transpose(2, 1, 0).reshape(-1, 4)[:k]))


def _oscillator_steps(friction, omega_sq, lo, hi):
    """Step matrices of x'' + gdot x' + omega^2 x = 0 in (x, x') from lo to hi.

    The generator [[0, 1], [-omega^2, -gdot]] splits into its trace part,
    integrated exactly as the factor exp(-(g(hi) - g(lo))/2), and the
    traceless part [[gdot/2, 1], [-omega^2, -gdot/2]], which goes through
    :func:`magnus4_steps`.  Each step's determinant is therefore
    exp(-delta g) to rounding, and gdot is needed only at the Gauss nodes.
    """
    decay = np.exp(-0.5 * (friction.evaluate(hi)[0] - friction.evaluate(lo)[0]))
    steps = magnus4_steps(
        lo, hi - lo, lambda t: (0.5 * friction.evaluate(t)[1], 1.0, -omega_sq))
    return [decay * e for e in steps]


def oscillator_flow(friction, omega_sq, n_max, halvings=0, trips=False):
    """The flow of x'' + gdot x' + omega^2 x = 0 in (x, x') on [0, n_max].

    Steps end on the grid of 1/(8 * 2**halvings) trip, at n_max and at
    every table node, where gdot has kinks that would cost a step across
    them an order.  Returns the step ends t and the (t.size, 4) array whose
    row k holds (u2, u1, u2', u1') at t[k]; with ``trips``, and no table
    node off the grid, only the rows at whole trips.  With constant
    friction each step, and the flow, is exact to rounding.
    """
    per_trip = _START_STEPS << halvings
    t = np.arange(math.ceil(n_max * per_trip)) / per_trip
    if friction.nodes is not None:
        # The union with the nodes, as np.union1d, whose np.unique would
        # import numpy.ma; a stable sort keeps the grid's copy of a repeat.
        nodes = friction.nodes[friction.nodes < n_max]
        t = np.sort(np.concatenate((t, nodes)), kind="stable")
        t = np.delete(t, np.flatnonzero(t[1:] == t[:-1]) + 1)
    t = np.append(t, n_max)
    steps = _oscillator_steps(friction, omega_sq, t[:-1], t[1:])
    if trips and t.size == _START_STEPS * n_max + 1:
        return t[::_START_STEPS], flow_products(steps, ends_only=True)
    return t, flow_products(steps)


class ClassicalSolution:
    """Fundamental solutions u1, u2 of the damped oscillator and derivatives.

    ``omega`` and ``friction`` are the oscillator's inputs.  ``kind`` is
    ``"closed_form"`` (constant underdamped friction) or ``"ode"`` (Magnus
    integration, any profile).  All evaluators are vectorized over ``n``;
    the ODE branch is restricted to the integrated window ``[0, n_max]``.
    It stores the solutions at every step boundary and reaches any other
    ``n`` by one partial step from the boundary below.
    """

    def __init__(self, omega, friction, kind, n_max=math.inf, flow=None):
        self.omega = omega
        self.friction = friction
        self.kind = kind
        self.n_max = n_max
        if kind == "closed_form":
            # the reduced frequency sqrt(omega^2 - gamma^2/4)
            self._big_omega = math.sqrt(omega ** 2 - friction.gamma ** 2 / 4.0)
        else:
            self._t, self._phi = flow

    def _eval(self, n):
        """``(u2, u1, u2', u1')`` at ``n``: the entries (p11, p12, p21, p22)
        of the flow from 0 to n, in the row layout of
        :func:`oscillator_flow`."""
        arr = np.asarray(n, dtype=float)
        _check_domain(arr, self.n_max, "fundamental solutions",
                      "integrated range [0, %g]; re-integrate with a larger "
                      "n_max")
        if self.kind == "closed_form":
            gam, big = self.friction.gamma, self._big_omega
            env = np.exp(-0.5 * gam * arr)
            s = np.sin(big * arr)
            c = np.cos(big * arr)
            out = (env * (c + (0.5 * gam / big) * s), env * s / big,
                   -(self.omega ** 2 / big) * env * s,
                   env * (c - (0.5 * gam / big) * s))
        else:
            flat = np.atleast_1d(arr)
            k = np.clip(np.searchsorted(self._t, flat, side="right") - 1,
                        0, self._t.size - 1)
            e = _oscillator_steps(self.friction, self.omega ** 2, self._t[k],
                                  flat)
            out = _times(e, self._phi.T[:, k])
            if arr.ndim == 0:
                out = tuple(v[0] for v in out)
        if np.isscalar(n) or (isinstance(n, np.ndarray) and n.ndim == 0):
            return tuple(float(v) for v in out)
        return tuple(np.asarray(v) for v in out)

    def u1(self, n):
        """Sine-like solution: u1(0) = 0, u1'(0) = 1."""
        return self._eval(n)[1]

    def du1(self, n):
        """Derivative of u1."""
        return self._eval(n)[3]

    def u2(self, n):
        """Cosine-like solution: u2(0) = 1, u2'(0) = 0."""
        return self._eval(n)[0]

    def du2(self, n):
        """Derivative of u2."""
        return self._eval(n)[2]

    def wronskian(self, n):
        """W(n) = u1' u2 - u2' u1; identically exp(-g(n))."""
        u2, u1, du2, du1 = self._eval(n)
        return du1 * u2 - du2 * u1


def fundamental_solutions(omega, friction, method="auto", n_max=None):
    """Build the fundamental solutions u1, u2 for the given oscillator.

    Parameters
    ----------
    omega : float
        Angular frequency per round trip, > 0 (theta under the mapping).
    friction : FrictionProfile
    method : {"auto", "closed_form", "ode"}
        "closed_form" requires constant friction with gamma < 2*omega and
        returns exact expressions; "ode" integrates the equation of motion
        with the fourth-order Magnus scheme, halving the step until it
        converges; "auto" picks the closed form whenever it applies.
    n_max : float, optional
        Upper end of the integration window (ODE branch only).  Defaults to
        the tabulated friction range; required for constant friction on the
        ODE branch.

    Returns
    -------
    ClassicalSolution

    Raises
    ------
    UnsupportedRegimeError
        If the closed form is asked for with gamma >= 2*omega.
    NumericalError
        If the ODE branch has not converged at 512 steps per trip.
    """
    omega = float(omega)
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValidationError("omega must be finite and > 0, got %r" % omega)
    if not isinstance(friction, FrictionProfile):
        raise ValidationError("friction must be a FrictionProfile")
    if method == "auto":
        closed = friction.kind == "constant" and friction.gamma < 2.0 * omega
        method = "closed_form" if closed else "ode"
    if method == "closed_form":
        if friction.kind != "constant":
            raise ValidationError(
                "reduced frequency is defined only for constant friction")
        if friction.gamma >= 2.0 * omega:
            raise UnsupportedRegimeError(
                "gamma = %g >= 2*omega = %g: not underdamped; use the "
                "numerical-ODE branch" % (friction.gamma, 2.0 * omega))
        return ClassicalSolution(omega, friction, "closed_form")
    if method != "ode":
        raise ValidationError("unknown method %r" % (method,))

    if n_max is None and not math.isfinite(friction.n_max):
        raise ValidationError(
            "n_max is required for the ODE branch with constant friction")
    n_max = float(friction.n_max if n_max is None else n_max)
    if not math.isfinite(n_max):
        raise ValidationError("n_max must be finite, got %r" % n_max)
    if n_max <= 0.0:
        raise ValidationError("n_max must be positive")

    # In a stiff flow a step that is too long overflows cosh; halving
    # discards such a level, so its floating-point warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = oscillator_flow(friction, omega ** 2, n_max)
        for halving in range(1, _MAX_HALVINGS + 1):
            t, phi = oscillator_flow(friction, omega ** 2, n_max, halving)
            # the coarse step ends are among the fine ones
            change = np.max(np.abs(phi[np.searchsorted(t, coarse[0])]
                                   - coarse[1]))
            if change <= _FLOW_TOL * np.max(np.abs(phi)):
                return ClassicalSolution(omega, friction, "ode", n_max=n_max,
                                         flow=(t, phi))
            coarse = t, phi
    raise NumericalError(
        "fundamental solutions did not converge at %d Magnus steps per trip "
        "(last change %.3g)" % (_START_STEPS << _MAX_HALVINGS, change))
