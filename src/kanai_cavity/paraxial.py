"""ABCD ray-matrix algebra for the lens-in-a-plane-cavity geometry.

The resonator is a thin lens of focal length ``f`` placed between two flat
mirrors, at distance ``l1`` from the left mirror and ``l2`` from the right
one.  The round-trip reference plane is the left mirror; the corresponding
ray matrix has equal diagonal elements (``a = d``), and the cavity is stable
when ``|a| <= 1``, in which case ``theta = arccos(a)`` is the rotation angle
the transverse ray state advances by per round trip.

All lengths are expressed in units of ``f``.
"""

import math

import numpy as np

from .core import _times
from .errors import ContractViolationError, ValidationError

#: |a - d| tolerance accepted when classifying a matrix as canonical.
CANONICAL_TOL = 1e-9
#: Half-width of the band around |a| = 1 classified as marginal.
MARGINAL_TOL = 1e-12


class AbcdMatrix:
    """2x2 real unimodular ray-transfer matrix [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.d = float(d)

    def __matmul__(self, other):
        """Matrix product self @ other (other acts first on the ray)."""
        return AbcdMatrix(*_times((self.a, self.b, self.c, self.d),
                                  (other.a, other.b, other.c, other.d)))

    def __repr__(self):
        return "AbcdMatrix(a=%r, b=%r, c=%r, d=%r)" % (self.a, self.b, self.c, self.d)


class ResonatorGeometry:
    """Lens-in-a-plane-cavity geometry: arm lengths l1, l2 in units of f.

    ``l1`` is measured from the left (reference) mirror to the lens and
    ``l2`` from the lens to the right mirror.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, l1, l2):
        l1, l2 = float(l1), float(l2)
        if not (math.isfinite(l1) and math.isfinite(l2)):
            raise ValidationError("geometry lengths must be finite")
        if l1 < 0.0 or l2 < 0.0:
            raise ValidationError("arm lengths must be >= 0")
        self.l1 = l1
        self.l2 = l2

    def __repr__(self):
        return "ResonatorGeometry(l1=%r, l2=%r)" % (self.l1, self.l2)


def _half_trip_elements(l1, l2):
    """Elements (a, b, c, d) of P(l2) Lens P(l1), vectorized, with the bits
    of the composed product: the products are formed in its order."""
    a = 1.0 - l2
    return a, a * l1 + l2, np.full(np.shape(a), -1.0), 1.0 - l1


def half_trip_matrix(geom):
    """One-way pass left mirror -> lens -> right mirror: P(l2) Lens P(l1)."""
    return AbcdMatrix(*_half_trip_elements(geom.l1, geom.l2))


def round_trip_matrix(geom):
    """Round-trip ray matrix referenced at the left mirror.

    The trip is P(l1) Lens P(l2) . P(l2) Lens P(l1) (rightmost factor acts
    first): the backward half trip is the forward one of the cavity with l1
    and l2 swapped.  The matrix is canonical (a = d).  The round trip at the
    right mirror is this trip of the swapped cavity.
    """
    backward = half_trip_matrix(ResonatorGeometry(geom.l2, geom.l1))
    return backward @ half_trip_matrix(geom)


def round_trip_elements(s1, s2):
    """Closed-form (a, b, c) of the left-mirror round trip, in units of f.

    With h = s1 + s2 - s1*s2 (the scaled half-trip b element):
    a = d = 1 - 2h, b = 2 (1 - s1) h, c = -2 (1 - s2).
    Vectorized over s1, s2.
    """
    h = s1 + s2 - s1 * s2
    a = 1.0 - 2.0 * h
    b = 2.0 * (1.0 - s1) * h
    c = -2.0 * (1.0 - s2)
    return a, b, c


def right_mirror_elements(s1, s2):
    """Closed-form (a, b, c) of the right-mirror round trip, in units of f:
    the left-mirror round trip of the cavity with l1 and l2 swapped."""
    return round_trip_elements(s2, s1)


class StabilityInfo:
    """Stability classification of a canonical round-trip matrix.

    ``stable`` is |a| <= 1; ``marginal`` flags the boundary |a| = 1 where
    sin(theta) = 0 and the rotation-angle formulas degenerate.  ``theta`` is
    arccos(a) in [0, pi] for stable matrices and NaN otherwise.
    """

    __slots__ = ("stable", "marginal", "theta", "a")

    def __init__(self, stable, marginal, theta, a):
        self.stable = stable
        self.marginal = marginal
        self.theta = theta
        self.a = a

    def __repr__(self):
        return "StabilityInfo(stable=%r, marginal=%r, theta=%r, a=%r)" % (
            self.stable, self.marginal, self.theta, self.a)


def stability(m):
    """Classify a canonical (a = d) ray matrix.

    Raises :class:`ContractViolationError` when |a - d| exceeds
    ``CANONICAL_TOL``.
    """
    if not abs(m.a - m.d) <= CANONICAL_TOL:
        raise ContractViolationError(
            "stability classification needs a canonical matrix (a = d); "
            "got a=%r, d=%r" % (m.a, m.d))
    a = m.a
    stable = abs(a) <= 1.0
    marginal = abs(abs(a) - 1.0) <= MARGINAL_TOL
    theta = math.acos(min(1.0, max(-1.0, a))) if stable else math.nan
    return StabilityInfo(stable, marginal, theta, a)


class StabilityMap:
    """Raster of the stability classification over the (l1/f, l2/f) plane."""

    def __init__(self, l1_values, l2_values, a_values, stable, theta):
        self.l1_values = l1_values
        self.l2_values = l2_values
        self.a_values = a_values
        self.stable = stable
        self.theta = theta


def stability_map(l1_range=(0.0, 4.0), l2_range=(0.0, 4.0), resolution=400):
    """Evaluate the stability raster on a resolution x resolution grid.

    The first index runs over l1/f, the second over l2/f.  The stable set of
    this geometry consists of exactly two connected domains.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    lo1, hi1 = map(float, l1_range)
    lo2, hi2 = map(float, l2_range)
    if not (hi1 > lo1 and hi2 > lo2) and resolution > 1:
        raise ValidationError("raster ranges must be nonempty intervals")
    l1_values = np.linspace(lo1, hi1, resolution)
    l2_values = np.linspace(lo2, hi2, resolution)
    s1 = l1_values[:, None]
    s2 = l2_values[None, :]
    a, _, _ = round_trip_elements(s1, s2)
    stable = np.abs(a) <= 1.0
    theta = np.where(stable, np.arccos(np.clip(a, -1.0, 1.0)), np.nan)
    return StabilityMap(l1_values, l2_values, a, stable, theta)
