"""Synthetic polarimetry: noise model, campaigns, CSV IO."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfaraday import experiment as expmt
from nlfaraday import analysis as ana
from nlfaraday.analysis import linear_regression
from nlfaraday.exceptions import InvalidConfig

PUBLISHED = expmt.ResponseModel()
A_PUB = PUBLISHED.linear_coefficient
B_PUB = PUBLISHED.nonlinear_coefficient


def test_phi_variance_shot_limit():
    noise = expmt.PolarimeterModel(v_linear=0.0, v_nonlinear=0.0)
    # 4e6-photon probe: delta phi = 1/(2 sqrt(N)) = 2.5e-4 rad
    assert np.sqrt(noise.phi_variance(4e6, "L1")) == pytest.approx(2.5e-4, rel=1e-12)
    full = expmt.PolarimeterModel(v_linear=3e5, v_nonlinear=4e5)
    assert full.phi_variance(1e6, "L1") == pytest.approx(0.25 / 1e6 + 3e5 / 1e12, rel=1e-12)
    assert full.phi_variance(1e6, "NL") == pytest.approx(0.25 / 1e6 + 4e5 / 1e12, rel=1e-12)
    assert full.electronic_variance("L2") == 3e5
    quiet = full.noiseless()
    assert quiet.phi_variance(1e6, "NL") == 0.0
    assert quiet.counts_variance(1e6) == 0.0


def test_counts_variance_components():
    noise = expmt.PolarimeterModel(v_nonlinear=4e5, technical_coefficient=1e-9)
    n = 2e6
    assert noise.counts_variance(n) == pytest.approx(4e5 + n + 1e-9 * n**2, rel=1e-12)
    # electronic floor and shot noise balance at N = V_el
    assert noise.counts_variance(4e5) == pytest.approx(2 * 4e5 + 1e-9 * (4e5) ** 2, rel=1e-12)


def test_polarimeter_validation():
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(v_linear=-1.0)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(technical_coefficient=-1e-9)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(transmission_h=0.0)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(transmission_v=1.2)


def test_response_model_values():
    # one response model: the campaigns use the class the analysis fits
    assert expmt.ResponseModel is ana.ResponseModel
    resp = expmt.ResponseModel()
    assert resp.linear_rotation(2e5) == pytest.approx(0.5 * A_PUB * 2e5, rel=1e-12)
    assert resp.effective_nonlinear(6e7) == pytest.approx(B_PUB / 2, rel=1e-12)
    assert resp.calibration_slope(1e7) == pytest.approx(0.0987013, rel=1e-5)
    assert resp.damage(6e7) == pytest.approx(0.08, rel=1e-12)
    assert resp.damage(1e10) == 1.0
    with pytest.raises(InvalidConfig):
        expmt.ResponseModel(nonlinear_coefficient=-1.0)
    with pytest.raises(InvalidConfig):
        expmt.ResponseModel(damage_slope=-0.1)


def test_stokes_record_validation():
    with pytest.raises(InvalidConfig):
        expmt.StokesRecord("X1", 1e6, 1e6, 0.0, 0.0, 0.0, 0)
    with pytest.raises(InvalidConfig):
        expmt.StokesRecord("L1", 0.0, 1e6, 0.0, 0.0, 0.0, 0)
    with pytest.raises(InvalidConfig):
        expmt.StokesRecord("L1", 1e6, 1e6, 2e6, 0.0, 0.0, 0)
    for field in ("transmission_h", "transmission_v"):
        for value in (0.0, -1.0):
            with pytest.raises(InvalidConfig, match="transmissions"):
                expmt.StokesRecord("L1", 1e6, 1e6, 0.0, 0.0, 0.0, 0, **{field: value})


def test_campaign_noiseless_correlation():
    quiet = expmt.PolarimeterModel().noiseless()
    camp = expmt.generate_correlation_campaign(1e7, samples=20, noise=quiet, seed=42)
    fit = linear_regression(camp.pairs())
    assert fit.slope == pytest.approx(expmt.ResponseModel().calibration_slope(1e7), rel=1e-9)
    assert abs(fit.intercept) < 1e-15
    assert fit.residual_std < 1e-15


def test_campaign_structure_and_determinism():
    camp1 = expmt.generate_correlation_campaign(1e7, samples=15, controls=4, seed=7)
    camp2 = expmt.generate_correlation_campaign(1e7, samples=15, controls=4, seed=7)
    assert np.array_equal(camp1.phi_nonlinear, camp2.phi_nonlinear)
    assert np.array_equal(camp1.n_atoms, camp2.n_atoms)
    assert camp1.seed == 7
    for column in (camp1.n_atoms, camp1.phi_linear, camp1.phi_nonlinear, camp1.phi_linear_after):
        assert column.shape == (19,)
    assert np.all(camp1.is_control[-4:]) and not np.any(camp1.is_control[:15])
    assert np.all(camp1.n_atoms[camp1.is_control] == 0.0)
    live = camp1.n_atoms[~camp1.is_control]
    assert np.all((live >= 1.5e5) & (live <= 3.5e5))
    assert camp1.pairs().shape == (15, 2)
    assert camp1.pairs(include_controls=True).shape == (19, 2)
    # controls carry no signal, only noise
    ctl = camp1.phi_linear[camp1.is_control]
    assert np.all(np.abs(ctl) < 5e-3)
    assert np.mean(np.abs(ctl)) < 1e-3


def test_campaign_validation():
    with pytest.raises(InvalidConfig):
        expmt.generate_correlation_campaign(1e7, samples=5)
    with pytest.raises(InvalidConfig):
        expmt.generate_correlation_campaign(1e7, atom_range=(3e5, 1e5))
    for n_linear, n_nonlinear in ((0.0, 1e7), (-4e6, 1e7), (4e6, 0.0), (4e6, -1e7)):
        with pytest.raises(InvalidConfig, match="photon numbers must be positive"):
            expmt.generate_correlation_campaign(n_nonlinear, n_linear=n_linear)
    # a rotation above one radian would put |S_y| above S_x
    with pytest.raises(InvalidConfig, match="exceeds S_x"):
        expmt.generate_correlation_campaign(
            1e7, response=expmt.ResponseModel(linear_coefficient=1e-4)
        )


_TRANSMISSION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=10, max_value=40),
    n_nonlinear=st.sampled_from([1e6, 1e7, 6e7, 1e8]),
    t_h=_TRANSMISSION,
    t_v=_TRANSMISSION,
    quiet=st.booleans(),
)
def test_campaign_draws_follow_the_per_sample_streams(seed, samples, n_nonlinear, t_h, t_v, quiet):
    # sample i: atom number (live samples only), then one normal per
    # probe, all from default_rng([seed, i]); angle = model mean + sd * normal
    noise = expmt.PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    noise = noise.noiseless() if quiet else noise
    camp = expmt.generate_correlation_campaign(
        n_nonlinear, samples=samples, seed=seed, noise=noise, controls=3
    )
    resp = expmt.ResponseModel()
    eta = resp.damage(n_nonlinear)
    for i in range(samples + 3):
        rng = np.random.default_rng([seed, i])
        n_atoms = rng.uniform(1.5e5, 3.5e5) if i < samples else 0.0
        assert camp.n_atoms[i] == n_atoms
        assert camp.is_control[i] == (i >= samples)
        probes = (
            ("L1", 4e6, resp.linear_rotation(n_atoms), camp.phi_linear[i]),
            ("NL", n_nonlinear, resp.nonlinear_rotation(n_atoms, n_nonlinear),
             camp.phi_nonlinear[i]),
            ("L2", 4e6, resp.linear_rotation(n_atoms * (1.0 - eta)), camp.phi_linear_after[i]),
        )
        for tag, n, mean, phi in probes:
            assert phi == mean + math.sqrt(noise.phi_variance(n, tag)) * rng.standard_normal()


def test_polarimeter_noise_scan_matches_model():
    noise = expmt.PolarimeterModel(v_nonlinear=4e5, technical_coefficient=0.0)
    n, variances = expmt.polarimeter_noise_scan(
        np.logspace(4, 7, 6), noise=noise, samples=2000, seed=11
    )
    model = np.array([noise.counts_variance(x) for x in n])
    assert variances == pytest.approx(model, rel=0.15)
    with pytest.raises(InvalidConfig):
        expmt.polarimeter_noise_scan([1e5], samples=1)
    with pytest.raises(InvalidConfig):
        expmt.polarimeter_noise_scan([-1e5, 1e6])


def test_waveplate_control_run_basics():
    quiet = expmt.PolarimeterModel().noiseless()
    curve = expmt.waveplate_control_run(rotation=4e-3, noise=quiet, seed=0)
    assert curve.meta["mean_angle"] == pytest.approx(np.full(13, 4e-3), rel=1e-12)
    assert len(curve.n_photons) == 13
    assert curve.n_photons[0] == pytest.approx(1e6) and curve.n_photons[-1] == pytest.approx(1e8)
    with pytest.raises(InvalidConfig):
        expmt.waveplate_control_run(rotation=0.5)
    with pytest.raises(InvalidConfig):
        expmt.waveplate_control_run(rotation=0.0)


def _assert_records_match(records, camp):
    """Three records per sample, in L1/NL/L2 order, carrying the campaign's arrays."""
    t_h, t_v = camp.noise.transmission_h, camp.noise.transmission_v
    assert len(records) == 3 * camp.n_atoms.size
    for k, (tag, n, phi, s_y) in enumerate(camp.probes()):
        for i, rec in enumerate(records[k::3]):
            assert (rec.probe_tag, rec.n_photons, rec.s_x) == (tag, n, n)
            assert rec.phi == phi[i]              # %.17g round-trips doubles
            assert rec.s_y == s_y[i] == phi[i] * n * math.sqrt(t_h * t_v)
            assert (rec.n_atoms, rec.sample_index) == (camp.n_atoms[i], i)
            assert (rec.transmission_h, rec.transmission_v) == (t_h, t_v)


def test_campaign_csv_round_trip(tmp_path):
    noise = expmt.PolarimeterModel()
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    records, meta = expmt.read_campaign_csv(path)
    _assert_records_match(records, camp)
    assert meta["seed"] == "5"
    assert float(meta["n_nonlinear"]) == 1e7
    assert float(meta["v_nonlinear"]) == noise.v_nonlinear


def test_campaign_csv_keeps_detector_transmissions(tmp_path):
    noise = expmt.PolarimeterModel(transmission_h=0.81, transmission_v=0.9)
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    records, meta = expmt.read_campaign_csv(path)
    assert float(meta["transmission_h"]) == 0.81 and float(meta["transmission_v"]) == 0.9
    _assert_records_match(records, camp)
    for rec in records:
        assert rec.phi_from_stokes() == pytest.approx(rec.phi, rel=1e-12)
    # a file without the lines reads as full transmission
    text = path.read_text()
    bare = "".join(ln for ln in text.splitlines(True) if "transmission" not in ln)
    path.write_text(bare)
    records, _ = expmt.read_campaign_csv(path)
    assert all(r.transmission_h == r.transmission_v == 1.0 for r in records)
    for value in ("0", "1.2", "-0.5", "nan", "high"):
        path.write_text(re.sub(r"transmission_v = .*", f"transmission_v = {value}", text))
        with pytest.raises(InvalidConfig, match="transmission_v"):
            expmt.read_campaign_csv(path)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=10, max_value=40),
    t_h=_TRANSMISSION,
    t_v=_TRANSMISSION,
)
def test_campaign_csv_round_trip_property(tmp_path_factory, seed, samples, t_h, t_v):
    noise = expmt.PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    camp = expmt.generate_correlation_campaign(1e7, samples=samples, seed=seed, noise=noise)
    path = tmp_path_factory.mktemp("csv") / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    records, meta = expmt.read_campaign_csv(path)
    _assert_records_match(records, camp)
    assert int(meta["seed"]) == seed


def test_campaign_csv_errors(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read"):
        expmt.read_campaign_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("# seed = 1\nwrong,header,line\n")
    with pytest.raises(InvalidConfig, match="columns"):
        expmt.read_campaign_csv(bad)
