"""Ray-optics limit: iterate transverse rays through the moving cavity.

One round trip maps the ray state (x, x') at the left mirror by the
round-trip matrix sampled at the start of the trip.  Along a damping
schedule the displacement performs a damped oscillation,

    x_{n+1} = cos(theta) (1 + e^{-dg}) x_n - e^{-dg} x_{n-1},

with dg the friction accumulated during one trip; for constant friction the
characteristic roots of that recurrence are a complex pair of modulus
exp(-gamma/2), so envelopes contract at rate gamma/2 per trip.  Two
decoupled transverse axes iterated through the same matrices trace a
contracting pattern whose instantaneous orbit ellipse shrinks at the same
rate.
"""

import math

import numpy as np

from .core import flow_products
from .errors import ValidationError
from .schedule import MirrorSchedule

#: Local maxima of |x| below this fraction of the global peak are ignored
#: when fitting envelopes (guards the log against zero crossings).
_PEAK_FLOOR = 1e-12


class RayTrace:
    """Per-round-trip samples of one (or two) transverse ray components.

    ``n`` holds the integer trip indices; ``x``/``xp`` the first transverse
    axis and, when produced by :func:`lissajous`, ``y``/``yp`` the second.
    """

    def __init__(self, n, x, xp, y=None, yp=None):
        self.n, self.x, self.xp, self.y, self.yp = n, x, xp, y, yp


def _flow(sched, start, n_max):
    """Rows (x, y, x', y') of two ray states over ``n_max`` round trips.

    ``start`` is (x0, y0, x'0, y'0): column j of the flow's starting matrix
    is axis j's (x, x'), carried by :func:`flow_products`.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if not isinstance(sched, MirrorSchedule):
        raise ValidationError("sched must be a MirrorSchedule")
    a, b, c = sched.elements_at(np.arange(n_max, dtype=float))
    return flow_products((a, b, c, a), start=start)


def iterate_ray(sched, init, n_max):
    """Iterate a ray for ``n_max`` round trips; returns a :class:`RayTrace`.

    ``init`` is the start (x0, xp0), displacement and angle.  The matrix
    for trip k -> k+1 is frozen at the mirror positions at the start of
    that trip (time k); in the adiabatic regime gamma << 1 the intra-trip
    mirror motion is negligible.
    """
    x0, xp0 = map(float, init)
    flow = _flow(sched, (x0, 0.0, xp0, 0.0), n_max)
    return RayTrace(np.arange(flow.shape[0]), flow[:, 0], flow[:, 2])


def lissajous(sched, init2d, n_max):
    """Iterate two decoupled transverse axes through the same cavity.

    ``init2d`` is (x0, xp0, y0, yp0).  Returns a :class:`RayTrace` carrying
    both axes; the (x_n, y_n) scatter contracts toward the axis as
    exp(-g(n)/2).
    """
    x0, xp0, y0, yp0 = init2d
    flow = _flow(sched, (x0, y0, xp0, yp0), n_max)
    return RayTrace(np.arange(flow.shape[0]), flow[:, 0], flow[:, 2],
                    flow[:, 1], flow[:, 3])


def pattern_radius(sched, trace):
    """Per-trip largest orbit radius of a :func:`lissajous` trace on ``sched``.

    Under the frozen matrix of trip n the point (x, b(n) x'/sin(theta))
    moves on a circle in each transverse plane, so the 2-d spot traces the
    ellipse (Re(zx e^{-i phi}), Re(zy e^{-i phi})) with zx = x + i b x'/sin
    theta and zy likewise.  The squared semi-major axis of that ellipse is

        R^2 = (|zx|^2 + |zy|^2)/2 + |zx^2 + zy^2|/2,

    a per-trip radius measure that contracts strictly monotonically on a
    damping schedule (the raw per-sample radius does not: the s ~ 3.35
    trips/period stroboscopic sampling aliases it).
    """
    if trace.y is None:
        raise ValidationError("pattern radius needs a two-axis trace")
    sin_theta = math.sin(sched.theta)
    _, b, _ = sched.elements_at(np.asarray(trace.n, dtype=float))
    zx = trace.x + 1j * b * trace.xp / sin_theta
    zy = trace.y + 1j * b * trace.yp / sin_theta
    r_sq = 0.5 * (np.abs(zx) ** 2 + np.abs(zy) ** 2) \
        + 0.5 * np.abs(zx ** 2 + zy ** 2)
    return np.sqrt(r_sq)


def courant_snyder_invariant(m, x, xp):
    """Quadratic form c x^2 - b x'^2 conserved by a fixed canonical matrix."""
    return m.c * np.asarray(x) ** 2 - m.b * np.asarray(xp) ** 2


def fit_damped_oscillation(n, x):
    """Fit decay rate and period of a damped oscillatory sequence.

    Decay: least squares on the log of the local maxima of |x| (no spectral
    machinery).  Period: least squares of interpolated zero-crossing times
    against the crossing index; consecutive crossings are half a period
    apart.

    Returns a dict {"decay_rate", "period"}; decay_rate is per round trip
    (positive for a contracting envelope).
    """
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    if n.size != x.size or n.size < 8:
        raise ValidationError("need at least 8 samples to fit an oscillation")
    mag = np.abs(x)
    peak = mag.max()
    if peak <= 0.0:
        raise ValidationError("trace is identically zero; nothing to fit")
    inner = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:]) \
        & (mag[1:-1] > _PEAK_FLOOR * peak)
    peaks = np.flatnonzero(inner) + 1
    if peaks.size < 2:
        raise ValidationError("too few envelope maxima to fit a decay rate")
    slope = np.polyfit(n[peaks], np.log(mag[peaks]), 1)[0]

    sign_change = np.flatnonzero(x[:-1] * x[1:] < 0.0)
    if sign_change.size < 3:
        raise ValidationError("too few zero crossings to fit a period")
    i = sign_change
    t_cross = n[i] - x[i] * (n[i + 1] - n[i]) / (x[i + 1] - x[i])
    half_period = np.polyfit(np.arange(t_cross.size, dtype=float), t_cross, 1)[0]
    return {"decay_rate": -slope, "period": 2.0 * half_period}


def fit_envelope_rate(n, r):
    """Least-squares slope of log(r) versus n for a positive envelope."""
    n = np.asarray(n, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValidationError("envelope must be strictly positive")
    return np.polyfit(n, np.log(r), 1)[0]
