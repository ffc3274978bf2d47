"""Pulse envelope, beam mode, and cloud quadrature checks."""
import numpy as np
import pytest

from nlfaraday.exceptions import InvalidConfig
from nlfaraday.geometry import (
    BeamGeometry,
    CloudGeometry,
    PulseSpec,
    cloud_quadrature,
    peak_intensity,
)


def test_gaussian_envelope_normalization():
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6)
    lo, hi = pulse.window()
    t = np.linspace(lo, hi, 20001)
    assert np.trapezoid(pulse.envelope(t) ** 2, t) == pytest.approx(1.0, abs=1e-6)
    # intensity falls to half at +- fwhm/2
    ratio = pulse.envelope(pulse.fwhm / 2) ** 2 / pulse.envelope(0.0) ** 2
    assert ratio == pytest.approx(0.5, rel=1e-12)
    assert pulse.sigma_time == pytest.approx(54e-9 / (2 * np.sqrt(np.log(2))))


def test_flat_train_envelope():
    pulse = PulseSpec(shape="flat-train", fwhm=1e-6, n_photons=4e6,
                      train_count=3, train_period=5e-6)
    height = pulse.envelope(0.5e-6)
    assert height**2 * pulse.fwhm * pulse.train_count == pytest.approx(1.0, rel=1e-12)
    assert pulse.envelope(2e-6) == 0.0
    assert pulse.envelope(5.5e-6) == pytest.approx(height)
    lo, hi = pulse.window()
    assert lo == 0.0
    assert hi == pytest.approx(11e-6, rel=1e-12)
    segs = pulse.segment_windows()
    assert len(segs) == 3
    flat = [edge for seg in segs for edge in seg]
    assert flat == pytest.approx(
        [0.0, 1e-6, 5e-6, 6e-6, 10e-6, 11e-6], rel=1e-12, abs=1e-18
    )
    single = PulseSpec(shape="flat-train", fwhm=1e-6, n_photons=4e6)
    assert single.segment_windows() == [single.window()]


def test_pulse_validation():
    with pytest.raises(InvalidConfig):
        PulseSpec(shape="square")
    with pytest.raises(InvalidConfig):
        PulseSpec(fwhm=0.0)
    with pytest.raises(InvalidConfig):
        PulseSpec(n_photons=-1.0)
    with pytest.raises(InvalidConfig):
        PulseSpec(shape="flat-train", train_count=0)
    with pytest.raises(InvalidConfig):
        PulseSpec(shape="flat-train", train_count=2, train_period=10e-9, fwhm=54e-9)
    for field in ("fwhm", "n_photons", "detuning", "train_period"):
        for value in (np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="finite"):
                PulseSpec(**{field: value})



@pytest.mark.parametrize("waist", [1e300, 1e155, 1e-300])
def test_beam_rejects_a_waist_without_a_finite_mode_area(waist):
    # pi w^2 / 2 overflows (w**2 raises OverflowError) or underflows to 0
    with pytest.raises(InvalidConfig, match="mode area"):
        BeamGeometry(wavelength=780e-9, waist=waist)
    assert np.isfinite(BeamGeometry(wavelength=780e-9, waist=1e150).effective_area)

def test_beam_mode_normalization(beam):
    # integral |M|^2 dA = 1 at the focus and away from it
    for z in (0.0, beam.rayleigh_range, 3 * beam.rayleigh_range):
        r = np.linspace(0.0, 12 * beam.width(z), 40001)
        m2 = np.abs(beam.mode_amplitude(r, z)) ** 2
        assert np.trapezoid(m2 * 2 * np.pi * r, r) == pytest.approx(1.0, rel=1e-6)


def test_beam_geometry_identities(beam):
    assert beam.rayleigh_range == pytest.approx(np.pi * beam.waist**2 / beam.wavelength)
    assert beam.effective_area == pytest.approx(np.pi * beam.waist**2 / 2)
    assert beam.width(beam.rayleigh_range) == pytest.approx(np.sqrt(2) * beam.waist)
    assert beam.local_intensity_scale(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(1)
    r = np.abs(rng.normal(0, 50e-6, 100))
    z = rng.normal(0, 1e-3, 100)
    s = beam.local_intensity_scale(r, z)
    assert np.all((s > 0) & (s <= 1.0))
    with pytest.raises(InvalidConfig):
        BeamGeometry(780.241209686e-9, waist=0.0)


def test_mode_phase_structure(beam):
    # the mode carries no phase: it is the real, positive Gaussian envelope
    zr = beam.rayleigh_range
    amp = beam.mode_amplitude(15e-6, zr)
    assert np.isrealobj(amp) and amp > 0
    w = np.sqrt(2) * beam.waist
    assert amp == pytest.approx(np.sqrt(2 / np.pi) / w * np.exp(-((15e-6 / w) ** 2)), rel=1e-14)


def test_cloud_density_and_validation():
    cloud = CloudGeometry(n_atoms=2.5e5, sigma_trans=20e-6, sigma_long=300e-6)
    peak = 2.5e5 / (np.pi**1.5 * 300e-6 * (20e-6) ** 2)
    assert cloud.density(0.0, 0.0) == pytest.approx(peak, rel=1e-12)
    assert CloudGeometry(n_atoms=0.0).n_atoms == 0.0
    with pytest.raises(InvalidConfig):
        CloudGeometry(sigma_trans=0.0)
    with pytest.raises(InvalidConfig):
        CloudGeometry(n_atoms=-1.0)


def test_quadrature_norm_and_moments(cloud):
    grid = cloud_quadrature(cloud, n_radial=9, n_long=9)
    assert grid.weight.sum() == pytest.approx(1.0, abs=1e-14)
    assert grid.r.shape == grid.z.shape == grid.weight.shape == (81,)
    # Gauss-Hermite integrates z^2 against the density exactly
    z2 = np.sum(grid.weight * grid.z**2)
    assert z2 == pytest.approx(cloud.sigma_long**2 / 2, rel=1e-13)
    with pytest.raises(InvalidConfig):
        cloud_quadrature(cloud, n_radial=0, n_long=9)


def test_radial_rule_exact_for_matched_beam(cloud, beam):
    # with sigma_T = waist the density-averaged intensity at z=0 reduces
    # to integral u^2 du, which an n-point Legendre rule resolves exactly
    assert cloud.sigma_trans == beam.waist
    grid = cloud_quadrature(cloud, n_radial=9, n_long=1)
    assert np.all(grid.z == 0.0)
    u_sq = np.exp(-2 * grid.r**2 / cloud.sigma_trans**2)
    assert np.sum(grid.weight * u_sq) == pytest.approx(1 / 3, rel=1e-14)


def test_quadrature_convergence(cloud, beam):
    def averaged_intensity(n_r, n_z):
        grid = cloud_quadrature(cloud, n_radial=n_r, n_long=n_z)
        return np.sum(grid.weight * beam.local_intensity_scale(grid.r, grid.z))

    coarse = averaged_intensity(9, 9)
    fine = averaged_intensity(40, 40)
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_peak_intensity_matches_published_level(beam):
    # default pulse: 54 ns, 1e7 photons in a 20 um waist
    assert peak_intensity(PulseSpec(), beam) == pytest.approx(7.05e4, rel=2e-3)
    weak = PulseSpec(n_photons=5.7e6)
    i_pk = peak_intensity(weak, beam)
    assert i_pk == pytest.approx(4.018e4, rel=2e-3)
    # the calibrated operating point quotes 4 W/cm^2
    assert i_pk == pytest.approx(4.0e4, rel=0.05)
