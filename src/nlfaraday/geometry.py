"""Pulse envelopes, Gaussian beam optics, and cloud quadrature.

The probe envelope T(t) is normalized so that the integral of T^2 over
the pulse equals one; the photon flux is then N * T(t)^2.  The beam mode
M(r, z) satisfies integral |M|^2 dx dy = 1 at every z, so |M|^2 is the
photon flux density per unit power.  The cloud quadrature maps the
normalized density integral onto weights that sum to exactly one, which
keeps the cloud-norm invariant at machine precision for any node count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .config import MAX_COUNT, check_fields, ranged
from .exceptions import InvalidConfig

_LN2 = float(np.log(2.0))
# admissible lengths in metres: the density normalization multiplies three
_LENGTHS = (1e-100, 1e100, "a length's cube must be a finite normal float")
# half-width of a Gaussian pulse's integration window, in units of sigma_time
_WINDOW_SIGMAS = 4.0


@dataclass(frozen=True)
class PulseSpec:
    """Probe pulse: envelope shape, duration, photon number, detuning.

    shape "gaussian": T(t) = pi^(-1/4) tau_s^(-1/2) exp(-t^2 / 2 tau_s^2)
    with intensity FWHM = 2 tau_s sqrt(ln 2) = fwhm.  shape "flat-train":
    train_count rectangular pulses of width fwhm spaced by train_period,
    each carrying n_photons / train_count.
    """

    shape: str = "gaussian"
    # the bounds keep the Gaussian's sigma^2 normal and every propagator
    # finite: a flat segment's or gap's turns NaN by 1e30 s, and the flat
    # train's overflows by 1e40 photons.  Below 1 photon a Gaussian's
    # coherences (~sqrt(N)) near the solver's fixed absolute tolerance
    fwhm: float = ranged(1e-150, 1e25, "sigma^2 and the propagators must stay finite", 54e-9)
    n_photons: float = ranged(1.0, 1e30, "fewer photons near the solver's absolute tolerance; the propagators must stay finite", 1e7)
    detuning: float = ranged(-1e20, 1e20, "the detuning rate and the solver's error norms must stay finite", 2 * np.pi * 462e6)
    train_count: int = ranged(1, MAX_COUNT, f"a train holds at least one pulse, and a count at most {MAX_COUNT}", 1)
    train_period: float = ranged(0.0, 1e25, "the gaps' propagators must stay finite", 0.0)

    def __post_init__(self):
        if self.shape not in ("gaussian", "flat-train"):
            raise InvalidConfig(f"unknown pulse shape {self.shape!r}")
        check_fields(self)
        if self.shape == "flat-train" and self.train_count > 1 and self.train_period < self.fwhm:
            raise InvalidConfig("train_period shorter than pulse width")

    @property
    def sigma_time(self) -> float:
        return self.fwhm / (2.0 * np.sqrt(_LN2))

    def window(self):
        """Integration window covering the envelope support."""
        if self.shape == "gaussian":
            half = _WINDOW_SIGMAS * self.sigma_time
            return (-half, half)
        span = (self.train_count - 1) * self.train_period + self.fwhm
        return (0.0, span)

    def envelope(self, t):
        """T(t) with integral T^2 dt = 1 over the whole pulse (or train)."""
        t = np.asarray(t, dtype=float)
        if self.shape == "gaussian":
            s = self.sigma_time
            return np.pi**-0.25 * s**-0.5 * np.exp(-(t**2) / (2.0 * s**2))
        height = 1.0 / np.sqrt(self.train_count * self.fwhm)
        out = np.zeros_like(t)
        for k in range(self.train_count):
            start = k * self.train_period
            out = np.where((t >= start) & (t < start + self.fwhm), height, out)
        return out

    def segment_windows(self):
        """Per-segment integration windows (one per train member)."""
        if self.shape == "gaussian" or self.train_count == 1:
            return [self.window()]
        return [
            (k * self.train_period, k * self.train_period + self.fwhm)
            for k in range(self.train_count)
        ]


@dataclass(frozen=True)
class BeamGeometry:
    """Focused Gaussian probe beam at the line data's ``wavelength``."""

    wavelength: float = ranged(*_LENGTHS)
    waist: float = ranged(1.2e-154, 7e153, "the mode area pi w^2 / 2 must be a finite normal float", 20e-6)

    def __post_init__(self):
        check_fields(self)

    @property
    def rayleigh_range(self) -> float:
        return np.pi * self.waist**2 / self.wavelength

    @property
    def effective_area(self) -> float:
        return np.pi * self.waist**2 / 2.0

    def width(self, z):
        zr = self.rayleigh_range
        return self.waist * np.sqrt(1.0 + (np.asarray(z, dtype=float) / zr) ** 2)

    def mode_amplitude(self, r, z):
        """Real envelope |M(r, z)| of the fundamental mode; integral |M|^2 dx dy = 1.

        The Gouy and wave-front curvature phases are left out: a phase on
        the local drive is removed by a gauge transformation of the excited
        states, so the detected signal depends on |M| alone (see
        ``dynamics``).
        """
        r = np.asarray(r, dtype=float)
        # (z / zr)^2 in the width and r^2 / w^2 may overflow to inf, where the amplitude is 0
        with np.errstate(over="ignore"):
            w = self.width(z)
            return np.sqrt(2.0 / np.pi) / w * np.exp(-(r**2) / w**2)

    def local_intensity_scale(self, r, z):
        """A0 |M|^2, dimensionless in (0, 1]; 1 on axis at the focus."""
        return self.effective_area * self.mode_amplitude(r, z) ** 2


@dataclass(frozen=True)
class CloudGeometry:
    """Gaussian atom cloud, cylindrically symmetric about the beam axis."""

    n_atoms: float = ranged(0.0, 1e150, "the rotation, linear in the atom number, must stay finite", 2.5e5)
    sigma_trans: float = ranged(*_LENGTHS, 20e-6)
    sigma_long: float = ranged(*_LENGTHS, 300e-6)

    def __post_init__(self):
        check_fields(self)

    def density(self, r, z):
        """Atoms per unit volume at radius r, axial position z."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        norm = np.pi**1.5 * self.sigma_long * self.sigma_trans**2
        return (
            self.n_atoms
            / norm
            * np.exp(-(r**2) / self.sigma_trans**2 - z**2 / self.sigma_long**2)
        )


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for the normalized cloud average.

    For any node function f, sum(weight * f) approximates
    integral n(x) f(x) d^3x / N_A.  Weights sum to 1 exactly.
    """

    r: np.ndarray
    z: np.ndarray
    weight: np.ndarray


def cloud_quadrature(cloud: CloudGeometry, n_radial: int, n_long: int) -> QuadratureGrid:
    """Build the radial x longitudinal product rule for the cloud average.

    Longitudinal: Gauss-Hermite in z/sigma_L (the density weight is exactly
    the Hermite weight).  Radial: Gauss-Legendre after substituting
    u = exp(-r^2/sigma_T^2), which maps the radial density integral to a
    unit-weight integral over (0, 1).  Both rules absorb the Gaussian
    density exactly, so the cloud norm carries no truncation error.
    """
    if n_radial < 1 or n_long < 1:
        raise InvalidConfig("node counts must be positive")
    t, wt = hermgauss(n_long)
    z = cloud.sigma_long * t
    wz = wt / np.sqrt(np.pi)

    x, wx = leggauss(n_radial)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wx
    r = cloud.sigma_trans * np.sqrt(-np.log(u))

    rr = np.repeat(r, n_long)
    zz = np.tile(z, n_radial)
    ww = np.repeat(wu, n_long) * np.tile(wz, n_radial)
    return QuadratureGrid(r=rr, z=zz, weight=ww)


def peak_intensity(pulse: PulseSpec, beam: BeamGeometry) -> float:
    """Peak optical intensity in W/m^2 for the given pulse and beam."""
    hbar = 1.0545718176461565e-34
    omega = 2.0 * np.pi * 299792458.0 / beam.wavelength
    t_peak = 0.0 if pulse.shape == "gaussian" else pulse.fwhm / 2.0
    flux_density = (
        pulse.n_photons
        * float(pulse.envelope(t_peak)) ** 2
        * float(beam.mode_amplitude(0.0, 0.0)) ** 2
    )
    return hbar * omega * flux_density
