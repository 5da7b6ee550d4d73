"""The grid engines as they stood before their trips carried the spectral
moments and the Fresnel post-chirp, and before their quadratic phases came
from one angle-addition kernel.

Every field's spectral mean and spread are measured by a fresh FFT, every
Fresnel output gets its explicit post-chirp, and |psi|^2, its centroid and
its variance are pairwise sums over the materialised samples.  Every phase
is one cos/sin or complex exp per sample: the chirps of a mirrored half
table, the split-step kicks and drift and the sampled beam.  The package
now carries the moments through each trip's matrix, leaves the post-chirp
pending and forms its phases from digit tables; the tests hold it to these
kernels.
"""

import cmath
import math

import numpy as np

from kanai_cavity.errors import (NearFocalPlaneError, NearInstabilityError,
                                 ResolutionError, SamplingError)
from kanai_cavity.paraxial import AbcdMatrix
from kanai_cavity.wavesim import ComplexField
from oracles import centered_grid


def sample_beam(beam, wavelength, n_samples, dx=None, window_factor=16.0):
    """The beam on a centred grid, one complex exp per sample."""
    if dx is None:
        dx = window_factor * beam.spot_size(wavelength) / n_samples
    x = centered_grid(n_samples, dx)
    k = 2.0 * math.pi / wavelength
    psi = np.exp(-1j * math.pi * (x - beam.center) ** 2 / (wavelength * beam.q)
                 - 1j * k * beam.tilt * x)
    psi *= 1.0 / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)
    return ComplexField(psi, dx, x[0], wavelength)


def intensity(field):
    return np.abs(field.samples) ** 2


def centroid(field):
    intens = intensity(field)
    return float(np.sum(intens * field.grid) / np.sum(intens))


def spot_size(field):
    intens = intensity(field)
    if int(np.count_nonzero(intens > 1e-12 * intens.max())) < 2:
        raise ResolutionError(
            "field support has degenerated to a single grid pixel")
    mean = centroid(field)
    var = float(np.sum(intens * (field.grid - mean) ** 2) / np.sum(intens))
    return 2.0 * math.sqrt(max(var, 0.0))


def norm_sq(field):
    return float(np.sum(intensity(field))) * field.dx


def aligned_l2(f1, f2):
    """min over phi of ||f1 - e^{i phi} f2|| / ||f1||, summed directly: free
    of the sqrt(eps) floor that n1 + n2 - 2 |<f1, f2>| cancels down to."""
    ip = complex(np.vdot(f1.samples, f2.samples))
    diff = f1.samples - ip.conjugate() / abs(ip) * f2.samples
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * f1.dx / norm_sq(f1))


def spectral_stats(field):
    """(nu_mean, nu_std) of |fft|^2: the formula the sampling check used on
    every field."""
    power = np.abs(np.fft.fft(field.samples)) ** 2
    power /= power.sum()
    nu = np.fft.fftfreq(field.n_samples, field.dx)
    nu_mean = float(np.sum(power * nu))
    return nu_mean, math.sqrt(
        max(float(np.sum(power * (nu - nu_mean) ** 2)), 0.0))


def check_sampling(field, a_elem, b_elem):
    intens = intensity(field)
    x_mean = centroid(field)
    support = field.grid[intens >= 1e-12 * intens.max()]
    x_edge = float(np.max(np.abs(support - x_mean))) + abs(x_mean)
    nu_mean, nu_std = spectral_stats(field)
    dx, n = field.dx, field.n_samples
    nu_needed = (abs(a_elem) * x_edge / (field.wavelength * abs(b_elem))
                 + abs(nu_mean) + 5.0 * nu_std)
    nu_nyquist = 0.5 / dx
    if nu_needed > 0.95 * nu_nyquist:
        factor = nu_needed / (0.95 * nu_nyquist)
        suggested = 1 << int(math.ceil(math.log2(n * factor)))
        raise SamplingError(
            "chirped field reaches %.3g cycles per unit length but the grid "
            "resolves only %.3g; resample with at least N = %d"
            % (nu_needed, nu_nyquist, suggested), suggested_n=suggested)
    return x_edge, nu_mean, nu_std


def chirp(n, beta, scale=1.0):
    """scale (-1)^s exp(i beta s^2) on s = j - n//2, from the half table."""
    k = np.arange(n // 2 + 1)
    half = np.empty(k.size, dtype=complex)
    phase = beta * (k * k).astype(float)
    np.cos(phase, out=half.real)
    np.sin(phase, out=half.imag)
    half *= scale * (1.0 - 2.0 * (k % 2))
    return np.concatenate((half[::-1], half[1:-1]))


def diffract(field, m):
    if abs(m.b) <= 1e-9:
        raise NearFocalPlaneError("|b| too small")
    check_sampling(field, m.a, m.b)
    lam, n, dx_in = field.wavelength, field.n_samples, field.dx
    pre = chirp(n, -math.pi * m.a * dx_in ** 2 / (lam * m.b)) * field.samples
    if m.b < 0.0:
        spectrum = np.fft.fft(pre)
    else:
        spectrum = np.fft.ifft(pre, norm="forward")
    return spectrum, lam * abs(m.b) / (n * dx_in)


def fresnel_round_trip(field, m):
    spectrum, dx_out = diffract(field, m)
    lam, n = field.wavelength, field.n_samples
    scale = (-1.0) ** (n // 2) * cmath.sqrt(1j / (lam * m.b)) * field.dx
    out = chirp(n, -math.pi * m.d * dx_out ** 2 / (lam * m.b), scale)
    return ComplexField(out * spectrum, dx_out, -(n // 2) * dx_out, lam)


def split_step_round_trip(field, m):
    a_el, b_el, d_el = m.a, m.b, m.d
    if abs(b_el) <= 1e-9:
        raise NearFocalPlaneError("|b| too small")
    pieces = 1
    while True:
        kick = max(abs(a_el - 1.0), abs(d_el - 1.0)) * min(pieces, 2)
        try:
            x_edge, nu_mean, nu_std = check_sampling(field, kick, b_el)
            break
        except SamplingError:
            if pieces == 64:
                raise
        if a_el + d_el <= -2.0:
            raise NearInstabilityError("a + d <= -2")
        root = math.sqrt(2.0 + a_el + d_el)
        a_el, b_el, d_el = (a_el + 1.0) / root, b_el / root, (d_el + 1.0) / root
        pieces *= 2
    lam, n = field.wavelength, field.n_samples
    reach = abs(a_el) * x_edge + lam * abs(b_el) * (abs(nu_mean) + 5.0 * nu_std)
    edge = min(-field.x0, field.x0 + n * field.dx)
    if reach > edge:
        raise SamplingError("a drift carries the field to %.3g, past the "
                            "window edge at %.3g" % (reach, edge))
    chirp_x = -1j * math.pi / (lam * b_el) * field.grid ** 2
    first = np.exp((a_el - 1.0) * chirp_x)
    last = first if d_el == a_el else np.exp((d_el - 1.0) * chirp_x)
    drift = np.exp(1j * math.pi * lam * b_el * np.fft.fftfreq(n, field.dx) ** 2)
    out = first * field.samples
    for piece in range(pieces, 0, -1):
        out = np.fft.ifft(np.fft.fft(out) * drift)
        out *= last * first if piece > 1 else last
    return field.with_samples(out)


def run_collapse(sched, beam, n_max, engine, wavelength, grid_n,
                 window_factor=16.0):
    """(n, w1, w2, norm, centroid, diagnostic) of a grid-engine collapse."""
    field = sample_beam(beam, wavelength, grid_n, window_factor=window_factor)
    a_arr, b_arr, c_arr = sched.elements_at(
        np.arange(max(n_max, 1), dtype=float))
    trip = (fresnel_round_trip if engine == "fresnel"
            else split_step_round_trip)
    rows = []
    diagnostic = None
    for n in range(n_max + 1):
        try:
            w1 = spot_size(field)
            spectrum, dx_out = diffract(field, sched.half_matrix_at(float(n)))
            w2 = spot_size(ComplexField(
                spectrum, dx_out, -(field.n_samples // 2) * dx_out,
                field.wavelength))
        except (SamplingError, ResolutionError) as exc:
            diagnostic = "run truncated at trip %d: %s" % (n, exc)
            break
        rows.append((n, w1, w2, norm_sq(field), centroid(field)))
        if engine == "split_step" and w1 < 8.0 * field.dx:
            diagnostic = ("run truncated at trip %d: spot size %g below "
                          "eight grid pixels (%g)" % (n, w1, 8.0 * field.dx))
            break
        if n == n_max:
            break
        try:
            field = trip(field,
                         AbcdMatrix(a_arr[n], b_arr[n], c_arr[n], a_arr[n]))
        except SamplingError as exc:
            diagnostic = "run truncated at trip %d: %s" % (n + 1, exc)
            break
    columns = [np.array(col) for col in zip(*rows)] if rows else [
        np.array([])] * 5
    return tuple(columns) + (diagnostic,)
