"""Mirror-motion schedules that damp the round-trip matrix adiabatically.

Moving the two cavity planes (lengths in units of f) according to

    l2(n) = 1 + (l2(0) - 1) * exp(g(n))
    l1(n) = (2 l2(n) - (1 - cos theta)) / (2 l2(n) - 2)

keeps the diagonal element a = cos(theta) of the round-trip matrix constant
while scaling the off-diagonal elements exponentially:

    b(n) = b(0) exp(-g(n)),      c(n) = c(0) exp(+g(n)).

That exponential scaling is what turns the cavity into an analogue of the
damped oscillator: ray amplitudes and beam spot sizes on the left mirror
contract like exp(-g/2).  On the right mirror the scaling is reversed
(b2 grows, c2 shrinks), which is why the conjugate-plane spot grows while the
product of the two spots stays constant.
"""

import numpy as np

from .core import FrictionProfile
from .errors import InvalidScheduleError, ValidationError
from .paraxial import (ResonatorGeometry, _half_trip_elements,
                       half_trip_matrix, right_mirror_elements,
                       round_trip_elements, round_trip_matrix, stability)


class MirrorSchedule:
    """Time-dependent cavity: initial geometry plus a friction profile.

    The initial geometry must be strictly stable with ``l2(0) > f`` (the
    upper stability domain); otherwise the closed-form trajectories
    degenerate.  The rotation angle ``theta`` is frozen at its initial value
    by construction.
    """

    def __init__(self, geom0, friction):
        if not isinstance(geom0, ResonatorGeometry):
            raise ValidationError("geom0 must be a ResonatorGeometry")
        if not isinstance(friction, FrictionProfile):
            raise ValidationError("friction must be a FrictionProfile")
        info = stability(round_trip_matrix(geom0))
        if not info.stable or info.marginal:
            raise InvalidScheduleError(
                "initial geometry must be strictly stable (|a| < 1); "
                "got a = %r" % info.a)
        if geom0.l2 <= 1.0:
            raise InvalidScheduleError(
                "schedule requires l2(0) > f (upper stability domain); "
                "got l2(0) = %g, f = 1" % geom0.l2)
        self.geom0 = geom0
        self.friction = friction
        self.theta = info.theta
        self.a0 = info.a
        _, self.b0, self.c0 = round_trip_elements(geom0.l1, geom0.l2)
        _, self.right_b0, self.right_c0 = right_mirror_elements(geom0.l1,
                                                                geom0.l2)

    def positions_at(self, n):
        """Closed-form mirror positions (l1(n), l2(n)); vectorized over n."""
        return self._positions(self.friction.evaluate(n)[0])

    def _positions(self, g):
        """Mirror positions (l1, l2) where the friction exponent is ``g``."""
        l2 = 1.0 + (self.geom0.l2 - 1.0) * np.exp(g)
        l1 = (2.0 * l2 - (1.0 - self.a0)) / (2.0 * l2 - 2.0)
        return l1, l2

    def geometry_at(self, n):
        """Geometry snapshot at a single time n."""
        return ResonatorGeometry(*self.positions_at(float(n)))

    def _frozen_a_and_scale(self, g):
        """The constant element a (shaped like ``g``) and e^{g}."""
        a = self.a0 if np.isscalar(g) else np.full(np.shape(g), self.a0)
        return a, np.exp(g)

    def elements_at(self, n):
        """Round-trip elements (a, b, c) at the left mirror; vectorized.

        Uses the exact exponential scaling b(0) e^{-g}, c(0) e^{+g}; this is
        algebraically identical to rebuilding the matrix at positions_at(n).
        """
        return self._elements(self.friction.evaluate(n)[0])

    def _elements(self, g):
        """Left-mirror elements (a, b, c) where the friction exponent is g."""
        a, eg = self._frozen_a_and_scale(g)
        return a, self.b0 / eg, self.c0 * eg

    def right_elements_at(self, n):
        """Round-trip elements (a, b2, c2) at the right mirror; vectorized."""
        a, eg = self._frozen_a_and_scale(self.friction.evaluate(n)[0])
        return a, self.right_b0 * eg, self.right_c0 / eg

    def half_matrix_at(self, n):
        """Half-trip matrix (left mirror to right mirror) at time n."""
        return half_trip_matrix(self.geometry_at(n))

    def half_elements_at(self, n):
        """Half-trip elements (a, b, c, d); vectorized over n, with the bits
        of ``half_matrix_at``."""
        return _half_trip_elements(*self.positions_at(n))
