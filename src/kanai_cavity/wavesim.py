"""Wave-optics regime: diffraction round trips, beam parameters, collapse.

Three engines propagate the transverse field at the left mirror:

* ``fresnel`` -- the generalized diffraction integral of one round trip,
  evaluated by a chirp / discrete-transform / chirp decomposition.  The
  output grid spacing is ``lambda |b| / (N dx_in)``; since ``b`` shrinks
  along a damping schedule, the grid co-collapses with the field and the
  relative resolution stays constant.
* ``split_step`` -- the same round-trip matrix applied exactly on a fixed
  grid, as a chirp kick, a free-propagation drift and a second kick.
* ``gaussian_q`` -- the complex beam parameter carried by the continuum
  limit of the round-trip map, read on each mirror off the damped-oscillator
  flow :func:`kanai_cavity.core.oscillator_flow`; it resolves the adiabatic
  spot-size law far below the per-trip discretization floor.

Spot sizes are reported as twice the intensity standard deviation, which for
a fundamental Gaussian equals the 1/e^2 intensity radius.
"""

import cmath
import functools
import itertools
import math

import numpy as np

from .core import oscillator_flow
from .errors import (BeamParameterError, NearFocalPlaneError,
                     NearInstabilityError, NumericalError, ResolutionError,
                     SamplingError, ValidationError)
from .paraxial import AbcdMatrix, stability
from .raysim import iterate_ray

#: Fraction of f below which |b| counts as "at a focal plane" for the kernel.
EPSILON_B = 1e-9
#: Default wavelength in units of f.
DEFAULT_WAVELENGTH = 1e-4
#: Default grid size (power of two).
DEFAULT_GRID_N = 4096
#: Default grid window in units of the initial spot size.
DEFAULT_WINDOW_FACTOR = 16.0


def _is_power_of_two(n):
    return n >= 2 and (n & (n - 1)) == 0


@functools.lru_cache(maxsize=8)
def _tables(n):
    """Read-only tables of an n-point grid, once per size: the index j and
    the rows [1, s, s^2] of the centred index s = j - n//2."""
    j = np.arange(n, dtype=float)
    tables = (j, np.stack((np.ones(n), j - n // 2, (j - n // 2) ** 2)))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=16)
def _digits(m, first):
    """Read-only digit tables of s = first + j over j = 0..m-1, m = 2^p.

    j = q B + u C + v with digits v < C, u < B/C and q < m/B of about
    m^(1/3) values each.  With t = first + q B + u C,

        a s^2 + b s = (a t^2 + b t) + (a (2 (t - u C) + v) v + b v)
                      + a (2 u C v),

    a function of (q, u), of (q, v) and of (u, v).  Returns the shape
    (m/B, B/C, C) and, over the three blocks concatenated, the integer
    coefficients of a and of b and the signs (-1)^t and (-1)^v, whose
    product is (-1)^s.
    """
    p = m.bit_length() - 1
    width = -(-p // 3)
    c = 1 << width
    r = 1 << -(-(p - width) // 2)
    q = np.arange(m // (r * c))[:, None] * (r * c) + first
    u = np.arange(r)[:, None] * c
    v = np.arange(c)
    t = (q + u.T).ravel()
    cross = (2 * q + v) * v
    blocks = np.concatenate((t * t, cross.ravel(), (2 * u * v).ravel()))
    linear = np.concatenate((t, np.broadcast_to(v, cross.shape).ravel(),
                             np.zeros(r * c, dtype=int)))
    parity = np.concatenate((t, linear[t.size:])) % 2
    tables = ((q.size, r, c), blocks.astype(float), linear.astype(float),
              1.0 - 2.0 * parity)
    for table in tables[1:]:
        table.flags.writeable = False
    return tables


def _quadratic_phase(n, a, b=0.0, scale=1.0, signed=False, half=False):
    """scale [(-1)^s] exp(i (a s^2 + b s)) on the centred index
    s = j - n//2, j = 0..n-1; with ``half``, on s = k = 0..n/2.

    cos and sin are evaluated on the phases of the digit pairs of
    :func:`_digits`, about 3 n^(2/3) of them, and their three factors
    multiply to the table in two full-size complex products.  The digits
    count from s = 0, the grid centre, where the fields live: counted from
    j = 0 the factors would carry phases near a n^2 there, and their
    rounding with them.  (-1)^s is an exact sign.
    """
    m = n // 2 if half else n
    (nq, nr, nc), blocks, linear, parity = _digits(m, 0 if half else -(m // 2))
    phase = a * blocks
    if b:
        phase += b * linear
    factors = np.empty(phase.size, dtype=complex)
    np.cos(phase, out=factors.real)
    np.sin(phase, out=factors.imag)
    if signed:
        factors *= parity
    qu = factors[:nq * nr].reshape(nq, nr, 1)
    if scale != 1.0:
        qu *= scale
    out = np.empty(m + half, dtype=complex)
    body = out[:m].reshape(nq, nr, nc)
    np.multiply(qu, factors[nq * nr:nq * (nr + nc)].reshape(nq, 1, nc),
                out=body)
    body *= factors[nq * (nr + nc):].reshape(nr, nc)
    if half:
        last = a * (m * m) + b * m
        sign = 1 - 2 * (m % 2) if signed else 1
        out[m] = sign * scale * complex(math.cos(last), math.sin(last))
    return out


class ComplexField:
    """1-d complex field samples on a uniform transverse grid.

    ``x0`` is the coordinate of sample 0 (grids used by the engines are
    centered: x0 = -(N//2) dx).

    A field is immutable: the caller must not write to the array passed in
    afterwards.  With ``pending_chirp = (beta, scale)`` the samples are
    scale (-1)^s exp(i beta s^2) times that array, s = j - N//2, and are
    materialised, read-only, only when ``samples`` is read; |psi|^2 is read
    off the array itself.  The profile, the grid and the sampling
    statistics are each computed at most once per field.
    """

    __slots__ = ("dx", "x0", "wavelength", "_raw", "_rate", "_scale",
                 "_samples", "_power", "_profile", "_grid", "_moments",
                 "_chirp_stats")

    def __init__(self, samples, dx, x0, wavelength, pending_chirp=None):
        raw = np.asarray(samples, dtype=complex)
        if raw.ndim != 1 or not _is_power_of_two(raw.size):
            raise ValidationError(
                "field needs a 1-d sample array with power-of-two length; "
                "got shape %r" % (raw.shape,))
        dx, wavelength = float(dx), float(wavelength)
        if dx <= 0.0 or wavelength <= 0.0:
            raise ValidationError("dx and wavelength must be > 0")
        rate, scale = pending_chirp or (None, 1.0)
        # the norm is the field's inner product with itself, so that
        # inner_product(f, f) and norm_sq() share one reduction
        power = (float(np.vdot(raw, raw).real)
                 * (scale.conjugate() * scale).real)
        if not (power * dx > 0.0 and math.isfinite(power * dx)):
            # A NaN or infinite sample makes the norm non-finite, so only
            # this path needs the scan that tells the two causes apart.
            if not np.all(np.isfinite(raw)):
                raise ValidationError("field samples must be finite")
            raise ValidationError("field norm must be positive and finite")
        raw = raw.view()
        raw.flags.writeable = False
        self.dx = dx
        self.x0 = float(x0)
        self.wavelength = wavelength
        self._raw, self._rate, self._scale = raw, rate, scale
        self._samples = raw if rate is None else None
        self._power = power
        self._profile = self._grid = self._moments = self._chirp_stats = None

    @property
    def samples(self):
        if self._samples is None:
            samples = _chirped(self._raw, self._rate, self._scale)
            samples.flags.writeable = False
            self._samples = samples
        return self._samples

    @property
    def n_samples(self):
        return self._raw.size

    @property
    def grid(self):
        if self._grid is None:
            grid = self.x0 + _tables(self._raw.size)[0] * self.dx
            grid.flags.writeable = False
            self._grid = grid
        return self._grid

    def _intensity_profile(self):
        """Centroid and variance of |psi|^2, from one product with the rows
        [1, s, s^2], and the first and last index of its support, where
        |psi|^2 reaches 1e-12 of its peak."""
        if self._profile is None:
            n, dx = self._raw.size, self.dx
            intens = np.abs(self._raw) ** 2
            total, first, second = _tables(n)[1] @ intens
            mean = first / total
            support = intens >= 1e-12 * intens.max()
            self._profile = (float(self.x0 + (n // 2) * dx + mean * dx),
                             float((second / total - mean * mean) * dx * dx),
                             int(support.argmax()),
                             n - 1 - int(support[::-1].argmax()))
        return self._profile

    def norm_sq(self):
        """Integral of |psi|^2 dx."""
        return self._power * self.dx

    def centroid(self):
        """Intensity-weighted mean position."""
        return self._intensity_profile()[0]

    def with_samples(self, samples):
        return ComplexField(samples, self.dx, self.x0, self.wavelength)

    def is_centered(self):
        return abs(self.x0 + (self.n_samples // 2) * self.dx) <= 1e-9 * self.dx


class GaussianBeam:
    """Fundamental Gaussian beam: complex parameter q plus displacements.

    ``q`` must have positive imaginary part (confined beam); ``center`` and
    ``tilt`` displace the beam in position and angle.  Its norm is 1.
    """

    __slots__ = ("q", "center", "tilt")

    def __init__(self, q, center=0.0, tilt=0.0):
        q = complex(q)
        if not (q.imag > 0.0):
            raise ValidationError(
                "beam parameter must have Im(q) > 0, got %r" % (q,))
        if not cmath.isfinite(q):
            raise NumericalError("beam parameter %r is not finite" % (q,))
        self.q = q
        self.center = float(center)
        self.tilt = float(tilt)

    def spot_size(self, wavelength):
        """1/e^2 intensity radius w with w^2 = lambda |q|^2 / (pi Im q)."""
        return math.sqrt(wavelength * abs(self.q) ** 2 / (math.pi * self.q.imag))

    def __repr__(self):
        return "GaussianBeam(q=%r, center=%r, tilt=%r)" % (
            self.q, self.center, self.tilt)


def eigenmode_beam(m):
    """Self-reproducing Gaussian of a stable canonical matrix: q = i sqrt(-b/c)."""
    info = stability(m)
    if not info.stable or info.marginal:
        raise ValidationError("eigenmode requires a strictly stable matrix")
    ratio = -m.b / m.c
    if ratio <= 0.0:
        raise ValidationError("eigenmode requires b/c < 0")
    return GaussianBeam(1j * math.sqrt(ratio))


def sample_beam(beam, wavelength, n_samples=DEFAULT_GRID_N, dx=None,
                window_factor=DEFAULT_WINDOW_FACTOR):
    """Sample a Gaussian beam on a centered grid.

    When ``dx`` is omitted the grid window is ``window_factor`` times the
    beam spot size.  The samples are normalized to a field norm of 1.  A
    beam whose samples carry no finite power (centred outside the window)
    raises :class:`ValidationError`.
    """
    n_samples = int(n_samples)
    if not _is_power_of_two(n_samples):
        raise ValidationError("n_samples must be a power of two >= 2")
    w = beam.spot_size(wavelength)
    if dx is None:
        dx = window_factor * w / n_samples
    # -i pi (x - center)^2 / (lambda q) - i k tilt x
    alpha = -1j * math.pi / (wavelength * beam.q)
    psi = _gaussian(n_samples, 0.0, dx, alpha,
                    -2.0 * alpha * beam.center
                    - 2j * math.pi / wavelength * beam.tilt,
                    alpha * beam.center ** 2)
    norm_sq = float(np.sum(np.abs(psi) ** 2)) * dx
    if not 0.0 < norm_sq < math.inf:
        raise ValidationError(
            "sampled beam has squared norm %r on the %d-point window; the "
            "beam must lie inside the window" % (norm_sq, n_samples))
    psi *= 1.0 / math.sqrt(norm_sq)
    return ComplexField(psi, dx, -(n_samples // 2) * dx, wavelength)


def _gaussian(n, x_mid, dx, alpha, beta, c=0j, frame=None):
    """exp((alpha x + beta) x + c) on x = x_mid + s dx, s = j - n//2.

    The real part of the exponent is written as a completed square, so
    the envelope is one real ``exp`` about its own centre; the imaginary
    part is the phase of :func:`_quadratic_phase`.  With ``frame`` the
    samples are those of a field whose pending chirp has that rate: they
    are divided by (-1)^s exp(i frame s^2).  An envelope that does not
    decay (Re alpha >= 0) raises :class:`NumericalError`.
    """
    if not alpha.real < 0.0:
        raise NumericalError("the Gaussian envelope does not decay: "
                             "Re(alpha) = %r" % alpha.real)
    centre = -beta.real / (2.0 * alpha.real)
    envelope = _tables(n)[1][1] * dx
    envelope += x_mid - centre
    envelope *= envelope
    envelope *= alpha.real
    envelope += c.real + 0.5 * beta.real * centre
    np.exp(envelope, out=envelope)
    rate = alpha.imag * dx * dx
    if frame is not None:
        rate -= frame
    samples = _quadratic_phase(
        n, rate, (2.0 * alpha.imag * x_mid + beta.imag) * dx,
        cmath.exp(1j * ((alpha.imag * x_mid + beta.imag) * x_mid + c.imag)),
        signed=frame is not None)
    samples *= envelope
    return samples


def spot_size(field):
    """Spot size w = 2 sqrt(<x^2> - <x>^2) from the intensity profile."""
    _, var, first, last = field._intensity_profile()
    if first == last:
        raise ResolutionError(
            "field support has degenerated to a single grid pixel")
    return 2.0 * math.sqrt(max(var, 0.0))


def inner_product(f1, f2):
    """<f1, f2> = integral conj(f1) f2 dx; the grids must coincide.

    Fields with the same pending chirp rate (or none) meet without it: the
    chirp cancels and only the two scales remain."""
    if f1.n_samples != f2.n_samples:
        raise ValidationError("fields have different sample counts")
    if abs(f1.dx - f2.dx) > 1e-12 * f1.dx or abs(f1.x0 - f2.x0) > 1e-9 * f1.dx:
        raise ValidationError("fields live on different grids")
    if f1._rate == f2._rate:
        return (f1._scale.conjugate() * f2._scale
                * complex(np.vdot(f1._raw, f2._raw)) * f1.dx)
    return complex(np.vdot(f1.samples, f2.samples)) * f1.dx


def phase_aligned_l2(f1, f2):
    """Relative L2 distance after optimizing a single global phase.

    Returns min over phi of ||f1 - e^{i phi} f2|| / ||f1||.
    """
    n1 = f1.norm_sq()
    n2 = f2.norm_sq()
    ip = abs(inner_product(f1, f2))
    return math.sqrt(max(n1 + n2 - 2.0 * ip, 0.0) / n1)


def _measured_moments(field):
    """(<x>, <nu>, Var x, Cov(x, nu), Var nu): one FFT, and one inverse FFT
    for Re <x nu>, where nu acts as -i/(2 pi) d/dx."""
    x_mean, x_var, _, _ = field._intensity_profile()
    psi = field.samples
    spectrum = np.fft.fft(psi)  # |fft|^2 needs no shift: it flips signs
    power = np.abs(spectrum) ** 2
    power /= power.sum()
    nu = np.fft.fftfreq(field.n_samples, field.dx)
    nu_mean = float(np.sum(power * nu))
    x_nu = (np.vdot(psi, field.grid * np.fft.ifft(spectrum * nu)).real
            / np.vdot(psi, psi).real)
    return (x_mean, nu_mean, x_var, float(x_nu) - x_mean * nu_mean,
            float(np.sum(power * (nu - nu_mean) ** 2)))


def _carry(field, m, out):
    """Give a trip's output the moments of its input, if it has them: a
    first-order system maps x -> a x - lambda b nu, nu -> -c x / lambda +
    d nu, so means go through M and V -> M V M^T (Bastiaans 1979)."""
    if field._moments is None:
        return out
    x_mean, nu_mean, xx, xn, nn = field._moments
    lam = field.wavelength
    p, q, r, t = m.a, -lam * m.b, -m.c / lam, m.d
    out._moments = (
        p * x_mean + q * nu_mean, r * x_mean + t * nu_mean,
        p * p * xx + 2.0 * p * q * xn + q * q * nn,
        p * r * xx + (p * t + q * r) * xn + q * t * nn,
        r * r * xx + 2.0 * r * t * xn + t * t * nn)
    return out


def _check_chirp_sampling(field, a_elem, b_elem):
    """Detect chirp aliasing before a diffraction step.

    Estimates the highest instantaneous spatial frequency the pre-chirped
    field reaches -- kernel chirp rate |a| x / (lambda |b|) at the edge of
    the energy-carrying support, plus the field's own spectral extent -- and
    raises :class:`SamplingError` with a suggested grid size when it exceeds
    95% of the grid Nyquist frequency.  Only the kernel term depends on
    (a, b); the support edge is measured once per field, the spectral mean
    and spread once per run: a trip's output carries them from its input.
    """
    lam, dx, n = field.wavelength, field.dx, field.n_samples
    if field._chirp_stats is None:
        x_mean, _, first, last = field._intensity_profile()
        # The grid increases, so |x - x_mean| over the support peaks at its
        # first or last point.
        x_edge = max(abs(field.x0 + first * dx - x_mean),
                     abs(field.x0 + last * dx - x_mean)) + abs(x_mean)
        if field._moments is None:
            field._moments = _measured_moments(field)
        nu_mean, nu_var = field._moments[1], field._moments[4]
        field._chirp_stats = (x_edge, nu_mean, math.sqrt(max(nu_var, 0.0)))
    x_edge, nu_mean, nu_std = field._chirp_stats

    nu_kernel = abs(a_elem) * x_edge / (lam * abs(b_elem))
    nu_needed = nu_kernel + abs(nu_mean) + 5.0 * nu_std
    nu_nyquist = 0.5 / dx
    if nu_needed > 0.95 * nu_nyquist:
        factor = nu_needed / (0.95 * nu_nyquist)
        suggested = 1 << int(math.ceil(math.log2(n * factor)))
        raise SamplingError(
            "chirped field reaches %.3g cycles per unit length but the grid "
            "resolves only %.3g; resample with at least N = %d"
            % (nu_needed, nu_nyquist, suggested), suggested_n=suggested)


def _chirped(raw, beta, scale=1.0, signed=True):
    """``raw`` times scale (-1)^s exp(i beta s^2) on the centred index
    s = j - n//2, or without (-1)^s when not ``signed``.

    The half table of :func:`_quadratic_phase` for |s| = 0..n/2 is
    mirrored onto the samples.  The exact factor (-1)^s stands in for the
    shifts of a centred grid: for even n, fftshift(fft(ifftshift(y))) =
    (-1)^(n/2) (-1)^s fft((-1)^s y), and likewise with ifft.
    """
    half = _quadratic_phase(raw.size, beta, scale=scale, signed=signed,
                            half=True)
    out = np.empty(raw.size, dtype=complex)
    np.multiply(half[::-1], raw[:half.size], out=out[:half.size])
    np.multiply(half[1:-1], raw[half.size:], out=out[half.size:])
    return out


def _diffract(field, m):
    """Pre-chirped transform of the diffraction integral of ``m`` and the
    output spacing; without the post-chirp (modulus one) and the amplitude
    (a constant), it carries the output intensity up to a constant factor.
    A pending chirp on the field folds into the pre-chirp: their two
    factors (-1)^s cancel."""
    if not field.is_centered():
        raise ValidationError("engine requires a centered grid (x0 = -(N//2) dx)")
    a_el, b_el = m.a, m.b
    if abs(b_el) <= EPSILON_B:
        raise NearFocalPlaneError(
            "|b| = %g <= %g: reference plane too close to a focal plane "
            "for the diffraction kernel" % (abs(b_el), EPSILON_B))
    _check_chirp_sampling(field, a_el, b_el)
    lam, n, dx_in = field.wavelength, field.n_samples, field.dx
    beta = -math.pi * a_el * dx_in * dx_in / (lam * b_el)
    if field._rate is None:
        pre = _chirped(field._raw, beta)
    else:
        pre = _chirped(field._raw, beta + field._rate, field._scale,
                       signed=False)
    if b_el < 0.0:
        spectrum = np.fft.fft(pre)
    else:
        spectrum = np.fft.ifft(pre, norm="forward")
    return spectrum, lam * abs(b_el) / (n * dx_in)


def fresnel_round_trip(field, m):
    """Apply the generalized diffraction integral of a ray matrix.

    Implements

        psi_out(x) = sqrt(i/(lambda b)) *
            integral exp[-i pi (a xi^2 + d x^2 - 2 x xi)/(lambda b)] psi(xi) dxi

    by pre-chirp, discrete Fourier transform, and post-chirp; the shifts of
    the centred grids are folded into the chirps.  The post-chirp is left
    pending on the output field, for the next trip's pre-chirp to absorb.
    The output is returned on the natural grid of the transform, spacing
    ``lambda |b| / (N dx_in)`` -- it is not resampled, so along a damping
    schedule the grid contracts together with the field.

    Raises :class:`NearFocalPlaneError` for |b| <= EPSILON_B (the kernel is
    singular at b = 0) and :class:`SamplingError` when the chirp would alias
    or is not finite.
    """
    spectrum, dx_out = _diffract(field, m)
    lam, n = field.wavelength, field.n_samples
    scale = (-1.0) ** (n // 2) * cmath.sqrt(1j / (lam * m.b)) * field.dx
    beta = -math.pi * m.d * dx_out * dx_out / (lam * m.b)
    if not math.isfinite(beta):
        raise SamplingError("the post-chirp from grid spacing %.3g to %.3g "
                            "is not finite" % (field.dx, dx_out))
    return _carry(field, m, ComplexField(
        spectrum, dx_out, -(n // 2) * dx_out, lam, (beta, scale)))


def split_step_round_trip(field, m):
    """Apply the ray matrix ``m`` exactly on the field's own uniform grid.

    m = K_d D_b K_a: the kick K_a multiplies the samples by
    exp(-i pi (a - 1) x^2 / (lambda b)), K_d likewise with d, and the drift
    D_b multiplies the spectrum by exp(i pi lambda b nu^2).  While a kick
    would alias, the trip runs as two trips of its half,
    m^(1/2) = (m + I) / sqrt(2 + a + d), at most six halvings deep; each
    half trip checks its own kicks and reach on the field it is given.
    Raises :class:`NearFocalPlaneError` for |b| <= EPSILON_B,
    :class:`NearInstabilityError` when a trip with a + d <= -2 needs halving,
    and :class:`SamplingError` when the kicks alias at 64 pieces or a drift
    carries the field out of the window.
    """
    if abs(m.b) <= EPSILON_B:
        raise NearFocalPlaneError(
            "|b| = %g <= %g: reference plane too close to a focal plane "
            "for the drift" % (abs(m.b), EPSILON_B))
    return _split_step(field, m, 6)


def _split_step(field, m, halvings):
    """One kick-drift-kick trip of ``m``, or two trips of its half while
    the kick aliases and ``halvings`` remain."""
    a_el, b_el, d_el = m.a, m.b, m.d
    try:
        _check_chirp_sampling(field, max(abs(a_el - 1.0), abs(d_el - 1.0)),
                              b_el)
    except SamplingError:
        if not halvings:
            raise
        if a_el + d_el <= -2.0:
            raise NearInstabilityError("a + d = %g <= -2: the trip has no "
                                       "real half to split" % (a_el + d_el))
        root = math.sqrt(2.0 + a_el + d_el)
        halved = AbcdMatrix((a_el + 1.0) / root, b_el / root, m.c / root,
                            (d_el + 1.0) / root)
        return _split_step(_split_step(field, halved, halvings - 1), halved,
                           halvings - 1)
    lam, n = field.wavelength, field.n_samples
    # the drift sends x to a x - lambda b nu: x must stay in the window
    x_edge, nu_mean, nu_std = field._chirp_stats
    reach = abs(a_el) * x_edge + lam * abs(b_el) * (abs(nu_mean)
                                                    + 5.0 * nu_std)
    edge = min(-field.x0, field.x0 + n * field.dx)
    if reach > edge:
        raise SamplingError("a drift carries the field to %.3g, past the "
                            "window edge at %.3g" % (reach, edge))
    # The kicks are expanded about the grid midpoint x_mid, x = x_mid + s dx.
    # No FFT shifts: the phase exp(-2 pi i nu x0) of the grid's offset
    # cancels between fft and ifft around the pointwise drift.
    dx = field.dx
    x_mid = field.x0 + (n // 2) * dx

    def kick(e):
        rate = -math.pi * e / (lam * b_el)
        return _quadratic_phase(n, rate * dx * dx, 2.0 * rate * x_mid * dx,
                                cmath.exp(1j * rate * x_mid * x_mid))

    first = kick(a_el - 1.0)
    last = first if d_el == a_el else kick(d_el - 1.0)
    # exp(i pi lambda b nu^2) with nu = k / (n dx), mirrored into FFT order
    half = _quadratic_phase(n, math.pi * lam * b_el / (n * dx) ** 2,
                            half=True)
    drift = np.concatenate((half, half[-2:0:-1]))
    spectrum = np.fft.fft(first * field.samples)
    spectrum *= drift
    out = np.fft.ifft(spectrum)
    out *= last
    return _carry(field, m, field.with_samples(out))


def beam_round_trip(q, m):
    """Per-trip bilinear beam-parameter map q -> (a q + b)/(c q + d)."""
    denom = m.c * q + m.d
    if abs(denom) < 1e-12:
        raise BeamParameterError(
            "beam-parameter map singular: c q + d = %r" % (denom,))
    return (m.a * q + m.b) / denom


def _mobius(p11, p12, p21, p22, q0):
    """q = (p11 q0 + p12) / (p21 q0 + p22) per trip; a singular map raises."""
    denom = p21 * q0 + p22
    # a NaN denominator is not singular: the caller's finite check refuses it
    singular = np.flatnonzero(np.abs(denom[1:]) < 1e-12)
    if singular.size:
        raise BeamParameterError(
            "beam-parameter flow singular at trip %d" % (singular[0] + 1))
    return (p11 * q0 + p12) / denom


def gaussian_q_trace(sched, q0, n_max):
    """Track the complex beam parameter on both mirrors along a schedule.

    Returns the arrays ``(q_left, q_right)``, one entry per trip 0 ...
    ``n_max``.  The left-mirror q starts at ``q0``, the right-mirror q at
    its half-trip image.  Each follows its mirror's continuum flow
    kk [[0, b], [c, 0]], kk = theta / sin(theta); as kk^2 b c = -theta^2 on both mirrors, both
    are read off the damped-oscillator flow :func:`oscillator_flow`, with
    e^g at trip n, b0 = ``sched.b0`` and c0' = ``sched.right_c0``:

        left  (p11, p12, p21, p22) = (u2, kk b0 u1, e^g u2'/(kk b0), e^g u1')
        right (p11, p12, p21, p22) = (e^g u1', e^g u2'/(kk c0'), kk c0' u1, u2)
    """
    q0 = complex(q0)
    if not (q0.imag > 0.0):
        raise ValidationError("q0 must have positive imaginary part")
    n_max = int(n_max)
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    q_right0 = beam_round_trip(q0, sched.half_matrix_at(0.0))
    t, phi = oscillator_flow(sched.friction, sched.theta ** 2, n_max,
                             trips=True)
    u2, u1, du2, du1 = phi[np.searchsorted(t, np.arange(n_max + 1))].T
    eg = np.exp(sched.friction.evaluate(np.arange(n_max + 1.0))[0])
    kk = sched.theta / math.sin(sched.theta)
    kb, kc = kk * sched.b0, kk * sched.right_c0
    q_left = _mobius(u2, kb * u1, eg * du2 / kb, eg * du1, q0)
    q_right = _mobius(eg * du1, eg * du2 / kc, kc * u1, u2, q_right0)
    if (q_left.imag <= 0.0).any() or (q_right.imag <= 0.0).any():
        raise BeamParameterError("beam parameter left the upper half plane")
    return q_left, q_right


def grid_trips(sched, field, n_max, trip):
    """``field`` before each of ``n_max`` trips ``trip(field, m)`` along
    ``sched`` and after the last.  The trip matrices are fetched on the
    call; each trip runs when its output is read."""
    a, b, c = sched.elements_at(np.arange(n_max, dtype=float))
    return itertools.accumulate(map(AbcdMatrix, a, b, c, a), trip,
                                initial=field)


class CollapseTrace:
    """Per-round-trip collapse diagnostics.

    ``diagnostic`` is None for a complete run; a truncated run keeps the
    samples collected so far and carries the reason here.
    """

    def __init__(self, n, w1, w2, norm, centroid, engine, diagnostic=None):
        self.n = np.asarray(n)
        self.w1 = np.asarray(w1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.norm = np.asarray(norm, dtype=float)
        self.centroid = np.asarray(centroid, dtype=float)
        self.engine = engine
        self.diagnostic = diagnostic

    @property
    def truncated(self):
        return self.diagnostic is not None


def _centroid_ray(sched, beam, n_max):
    if beam.center == 0.0 and beam.tilt == 0.0:
        return np.zeros(n_max + 1)
    if n_max == 0:
        return np.array([beam.center])
    return iterate_ray(sched, (beam.center, beam.tilt), n_max).x


def run_collapse(sched, initial, n_max, engine="fresnel", *,
                 wavelength, grid_n=DEFAULT_GRID_N,
                 window_factor=DEFAULT_WINDOW_FACTOR):
    """Propagate an initial beam along a schedule and log collapse.

    Parameters
    ----------
    sched : MirrorSchedule
    initial : GaussianBeam
        The grid engines sample it on a centered grid of ``grid_n`` points
        spanning ``window_factor`` spot sizes.
    n_max : int
    engine : {"fresnel", "split_step", "gaussian_q"}
    wavelength : float

    Returns
    -------
    CollapseTrace
        Truncated early (with ``diagnostic`` set) if the grid can no longer
        resolve a trip or the split-step spot falls below eight grid pixels.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if not isinstance(initial, GaussianBeam):
        raise ValidationError("the initial state must be a GaussianBeam")
    if engine == "gaussian_q":
        w1, w2 = (np.sqrt(wavelength * np.abs(q) ** 2 / (math.pi * q.imag))
                  for q in gaussian_q_trace(sched, initial.q, n_max))
        centroid = _centroid_ray(sched, initial, n_max)
        return CollapseTrace(np.arange(n_max + 1), w1, w2,
                             np.ones(n_max + 1), centroid, engine)
    if engine not in ("fresnel", "split_step"):
        raise ValidationError("unknown engine %r" % (engine,))

    field = sample_beam(initial, wavelength, grid_n,
                        window_factor=window_factor)
    fields = grid_trips(sched, field, n_max, fresnel_round_trip
                        if engine == "fresnel" else split_step_round_trip)
    halves = np.transpose(sched.half_elements_at(np.arange(n_max + 1.0)))
    w1s, w2s, norms, centroids = [], [], [], []
    diagnostic = None
    try:
        for n, field in enumerate(fields):
            w1 = spot_size(field)
            # spot_size reads only the intensity: skip the post-chirp
            spectrum, dx_out = _diffract(field, AbcdMatrix(*halves[n]))
            w2 = spot_size(ComplexField(
                spectrum, dx_out, -(field.n_samples // 2) * dx_out,
                field.wavelength))
            w1s.append(w1)
            w2s.append(w2)
            norms.append(field.norm_sq())
            centroids.append(field.centroid())
            if engine == "split_step" and w1 < 8.0 * field.dx:
                diagnostic = ("run truncated at trip %d: spot size %g below "
                              "eight grid pixels (%g)"
                              % (n, w1, 8.0 * field.dx))
                break
    except (SamplingError, ResolutionError) as exc:
        diagnostic = "run truncated at trip %d: %s" % (len(w1s), exc)
    return CollapseTrace(np.arange(len(w1s)), w1s, w2s, norms, centroids,
                         engine, diagnostic)
