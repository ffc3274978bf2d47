"""Synthetic polarimetry: noise model, probe sequences, campaigns, CSV IO."""
import re
from dataclasses import replace

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


def test_run_sequence_noiseless_identities():
    quiet = expmt.PolarimeterModel().noiseless()
    res = expmt.run_sequence(2e5, 4e6, 1e7, noise=quiet)
    resp = expmt.ResponseModel()
    assert res.phi_linear == resp.linear_rotation(2e5)
    assert res.phi_nonlinear == resp.nonlinear_rotation(2e5, 1e7)
    assert res.phi_linear == res.phi_linear_true
    assert res.damage_estimate == pytest.approx(res.damage_true, rel=1e-12)
    assert res.damage_true == pytest.approx(resp.damage(1e7), rel=1e-12)
    tags = [r.probe_tag for r in res.records]
    assert tags == ["L1", "NL", "L2"]


def test_run_sequence_records_and_transmissions():
    noise = expmt.PolarimeterModel(transmission_h=0.9, transmission_v=0.8).noiseless()
    res = expmt.run_sequence(2e5, 4e6, 1e7, noise=noise, n_atoms=2.5e5, sample_index=3)
    for rec in res.records:
        assert rec.n_atoms == 2.5e5
        assert rec.sample_index == 3
        assert rec.s_y == pytest.approx(rec.phi * rec.n_photons * np.sqrt(0.9 * 0.8), rel=1e-12)
        assert rec.phi_from_stokes() == pytest.approx(rec.phi, rel=1e-12)
    # without explicit n_atoms the spin itself is stored
    bare = expmt.run_sequence(2e5, 4e6, 1e7, noise=noise)
    assert bare.records[0].n_atoms == 2e5


def test_run_sequence_determinism_and_validation():
    a = expmt.run_sequence(2e5, 4e6, 1e7, seed=123)
    b = expmt.run_sequence(2e5, 4e6, 1e7, seed=123)
    assert a.phi_linear == b.phi_linear
    assert a.phi_nonlinear == b.phi_nonlinear
    assert a.phi_linear_after == b.phi_linear_after
    c = expmt.run_sequence(2e5, 4e6, 1e7, seed=124)
    assert c.phi_linear != a.phi_linear
    with pytest.raises(InvalidConfig):
        expmt.run_sequence(2e5, 0.0, 1e7)
    with pytest.raises(InvalidConfig):
        expmt.run_sequence(3e5, 4e6, 1e7, n_atoms=2e5)


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
    assert len(camp1.records) == 3 * 19
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


def test_campaign_polarization_and_reload():
    quiet = expmt.PolarimeterModel().noiseless()
    camp = expmt.generate_correlation_campaign(
        1e7, samples=12, controls=0, seed=1, polarization=0.8, noise=quiet
    )
    assert np.allclose(camp.f_z, 0.8 * camp.n_atoms)

    reload_camp = expmt.generate_correlation_campaign(
        1e7, samples=12, controls=0, seed=1, repreparation_loss=0.1, noise=quiet
    )
    na = reload_camp.n_atoms
    assert na[0] == 3.5e5
    assert na[1] == pytest.approx(3.5e5 * 0.9, rel=1e-12)
    assert np.all((na >= 1.5e5) & (na <= 3.5e5))
    # the reload sequence must reset to the top of the range at least once
    assert np.any(np.diff(na) > 0)


def test_campaign_validation():
    with pytest.raises(InvalidConfig):
        expmt.generate_correlation_campaign(1e7, samples=5)
    with pytest.raises(InvalidConfig):
        expmt.generate_correlation_campaign(1e7, atom_range=(3e5, 1e5))
    with pytest.raises(InvalidConfig):
        expmt.generate_correlation_campaign(1e7, repreparation_loss=1.0)


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


def test_campaign_csv_round_trip(tmp_path):
    noise = expmt.PolarimeterModel()
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp, noise=noise)
    records, meta = expmt.read_campaign_csv(path)
    assert len(records) == len(camp.records)
    for got, want in zip(records, camp.records):
        assert got.probe_tag == want.probe_tag
        assert got.phi == want.phi            # %.17g round-trips doubles
        assert got.s_y == want.s_y
        assert got.n_atoms == want.n_atoms
        assert got.sample_index == want.sample_index
    assert meta["seed"] == "5"
    assert float(meta["n_nonlinear"]) == 1e7
    assert float(meta["v_nonlinear"]) == noise.v_nonlinear


def test_campaign_csv_keeps_detector_transmissions(tmp_path):
    noise = expmt.PolarimeterModel(transmission_h=0.81, transmission_v=0.9)
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp, noise=noise)
    records, meta = expmt.read_campaign_csv(path)
    assert float(meta["transmission_h"]) == 0.81 and float(meta["transmission_v"]) == 0.9
    for got, want in zip(records, camp.records):
        assert (got.transmission_h, got.transmission_v) == (0.81, 0.9)
        assert got.phi_from_stokes() == want.phi_from_stokes()
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
    # one header pair cannot hold records with different transmissions
    mixed = replace(camp, records=(replace(camp.records[0], transmission_h=0.5),) + camp.records[1:])
    with pytest.raises(InvalidConfig, match="different detector transmissions"):
        expmt.write_campaign_csv(path, mixed)


_TRANSMISSION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


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
    expmt.write_campaign_csv(path, camp, noise=noise)
    records, meta = expmt.read_campaign_csv(path)
    assert records == list(camp.records)
    assert int(meta["seed"]) == seed


def test_campaign_csv_errors(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read"):
        expmt.read_campaign_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("# seed = 1\nwrong,header,line\n")
    with pytest.raises(InvalidConfig, match="columns"):
        expmt.read_campaign_csv(bad)
