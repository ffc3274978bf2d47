"""Synthetic polarimetry: noise model, campaigns, CSV IO."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from nlfaraday import experiment as expmt
from nlfaraday import analysis as ana
from nlfaraday.analysis import linear_regression
from nlfaraday.exceptions import InvalidConfig
from nlfaraday.geometry import BeamGeometry, CloudGeometry

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


def test_phi_variance_is_finite_or_rejected():
    # N^2 overflows above hi and is subnormal below lo; near lo the
    # electronic term V_el / N^2 overflows to inf
    lo, hi = expmt._SQUARABLE_PHOTONS
    noise = expmt.PolarimeterModel()
    assert noise.phi_variance(hi, "NL") == 0.25 / hi + 4e5 / hi**2
    assert noise.phi_variance(1e-150, "L1") == 0.25 / 1e-150 + 3e5 / 1e-150**2
    for n in (math.nextafter(hi, math.inf), 1e300, math.inf, lo, 1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(InvalidConfig, match="photons is not a finite number"):
            noise.phi_variance(n, "NL")


def test_counts_variance_components():
    noise = expmt.PolarimeterModel(v_nonlinear=4e5, technical_coefficient=1e-9)
    n = 2e6
    assert noise.counts_variance(n) == pytest.approx(4e5 + n + 1e-9 * n**2, rel=1e-12)
    # electronic floor and shot noise balance at N = V_el
    assert noise.counts_variance(4e5) == pytest.approx(2 * 4e5 + 1e-9 * (4e5) ** 2, rel=1e-12)


def test_counts_variance_is_finite_or_rejected():
    # the technical term c N^2: N^2 overflows above hi, to inf for a numpy
    # float (and 0 * inf = nan without a technical term) and to an
    # OverflowError for a Python float; below it c N^2 may underflow harmlessly
    lo, hi = expmt._SQUARABLE_PHOTONS
    noise = expmt.PolarimeterModel(v_nonlinear=4e5, technical_coefficient=1e-9)
    assert noise.counts_variance(hi) == 4e5 + hi + 1e-9 * hi**2
    for n in (0.0, 1e-200, lo / 2):
        assert noise.counts_variance(n) == 4e5 + n
        assert noise.noiseless().counts_variance(n) == 1e-9 * n**2
    for model in (noise, noise.noiseless(), dataclasses.replace(noise, technical_coefficient=0.0)):
        for n in (math.nextafter(hi, math.inf), 1e200, np.float64(1e200), math.inf):
            with pytest.raises(InvalidConfig, match="photons is not a finite number"):
                model.counts_variance(n)
        for n in (-1.0, -1e-300, math.nan):
            with pytest.raises(InvalidConfig, match="photon number >= 0"):
                model.counts_variance(n)
    with pytest.raises(InvalidConfig):
        expmt.polarimeter_noise_scan([1e6, 1e200], samples=3, seed=1)


def test_polarimeter_validation():
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(v_linear=-1.0)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(technical_coefficient=-1e-9)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(transmission_h=0.0)
    with pytest.raises(InvalidConfig):
        expmt.PolarimeterModel(transmission_v=1.2)


_NON_FINITE_FIELDS = [
    (make, field, value)
    for value in (math.inf, math.nan)
    for make, field in [
        (BeamGeometry, "waist"),
        (BeamGeometry, "wavelength"),
        (CloudGeometry, "n_atoms"),
        (CloudGeometry, "sigma_trans"),
        (CloudGeometry, "sigma_long"),
        (expmt.ResponseModel, "linear_coefficient"),
        (expmt.ResponseModel, "nonlinear_coefficient"),
        (expmt.ResponseModel, "saturation_photons"),
        (expmt.ResponseModel, "damage_offset"),
        (expmt.ResponseModel, "damage_slope"),
        (expmt.PolarimeterModel, "v_linear"),
        (expmt.PolarimeterModel, "v_nonlinear"),
        (expmt.PolarimeterModel, "technical_coefficient"),
    ]
    # saturation_photons = inf is the unsaturated response
    if (field, value) != ("saturation_photons", math.inf)
]


@pytest.mark.parametrize(
    "make, field, value", _NON_FINITE_FIELDS,
    ids=[f"{value}-{make.__name__}-{field}" for make, field, value in _NON_FINITE_FIELDS],
)
def test_configuration_rejects_non_finite_field(make, field, value):
    # nan <= 0 is False, so an order check alone lets a NaN through;
    # a field without a default (the beam's wavelength) gets a valid 1.0
    required = {f.name: 1.0 for f in dataclasses.fields(make) if f.default is dataclasses.MISSING}
    with pytest.raises(InvalidConfig, match=field):
        make(**{**required, field: value})


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
def test_campaign_draws_follow_the_campaign_stream(seed, samples, n_nonlinear, t_h, t_v, quiet):
    assume(math.sqrt(t_h * t_v) > 0.0)  # an underflowing pair is rejected, see below
    # one stream per campaign: the live atom numbers, then one normal per
    # sample and probe; angle = model mean + sd * normal
    noise = expmt.PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    noise = noise.noiseless() if quiet else noise
    camp = expmt.generate_correlation_campaign(
        n_nonlinear, samples=samples, seed=seed, noise=noise, controls=3
    )
    rng = np.random.default_rng(seed)
    live = rng.uniform(1.5e5, 3.5e5, samples)
    draws = rng.standard_normal((samples + 3, 3))
    resp = expmt.ResponseModel()
    eta = resp.damage(n_nonlinear)
    for i in range(samples + 3):
        n_atoms = live[i] if i < samples else 0.0
        assert camp.n_atoms[i] == n_atoms
        assert camp.is_control[i] == (i >= samples)
        probes = (
            ("L1", 4e6, resp.linear_rotation(n_atoms), camp.phi_linear[i]),
            ("NL", n_nonlinear, resp.nonlinear_rotation(n_atoms, n_nonlinear),
             camp.phi_nonlinear[i]),
            ("L2", 4e6, resp.linear_rotation(n_atoms * (1.0 - eta)), camp.phi_linear_after[i]),
        )
        for k, (tag, n, mean, phi) in enumerate(probes):
            assert phi == mean + math.sqrt(noise.phi_variance(n, tag)) * draws[i, k]


def test_campaign_draws_are_distributed_as_the_model():
    # pooled over 200 seeds: standardized angle residuals are N(0, 1) and
    # live atom numbers uniform on atom_range
    noise = expmt.PolarimeterModel()
    resp = expmt.ResponseModel()
    n_nl, lo, hi = 1e7, 1.5e5, 3.5e5
    eta = resp.damage(n_nl)
    z = {"L1": [], "NL": [], "L2": []}
    live = []
    for seed in range(200):
        camp = expmt.generate_correlation_campaign(n_nl, samples=20, seed=seed, noise=noise)
        na = camp.n_atoms
        live.append(na[~camp.is_control])
        for tag, n, mean, phi in (
            ("L1", 4e6, resp.linear_rotation(na), camp.phi_linear),
            ("NL", n_nl, resp.nonlinear_rotation(na, n_nl), camp.phi_nonlinear),
            ("L2", 4e6, resp.linear_rotation(na * (1.0 - eta)), camp.phi_linear_after),
        ):
            z[tag].append((phi - mean) / math.sqrt(noise.phi_variance(n, tag)))
    for tag, parts in z.items():
        r = np.concatenate(parts)
        m = r.size
        assert abs(np.mean(r)) <= 4.0 / math.sqrt(m), tag
        assert abs(np.var(r, ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (m - 1)), tag
    live = np.concatenate(live)
    assert live.size == 200 * 20
    assert kstest(live, "uniform", args=(lo, hi - lo)).pvalue > 1e-3


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


def _assert_rows_match(rows, meta, camp):
    """Three rows per sample, in L1/NL/L2 order, carrying the campaign's arrays."""
    t_h, t_v = (float(meta.get(f"transmission_{s}", 1.0)) for s in "hv")
    assert (t_h, t_v) == (camp.noise.transmission_h, camp.noise.transmission_v)
    root_t = math.sqrt(t_h * t_v)
    assert len(rows) == 3 * camp.n_atoms.size
    for k, (tag, n, phi, s_y) in enumerate(camp.probes()):
        probe = rows[k::3]
        assert np.all(probe["probe_tag"] == tag)
        assert np.all(probe["n_photons"] == n) and np.all(probe["s_x"] == n)
        assert np.array_equal(probe["phi"], phi)      # %.17g round-trips doubles
        assert np.array_equal(probe["s_y"], s_y)
        assert np.array_equal(s_y, phi * n * root_t)
        assert np.array_equal(probe["n_atoms"], camp.n_atoms)
        assert np.array_equal(probe["sample_index"], np.arange(camp.n_atoms.size))


def test_campaign_csv_round_trip(tmp_path):
    noise = expmt.PolarimeterModel()
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    rows, meta = expmt.read_campaign_csv(path)
    _assert_rows_match(rows, meta, camp)
    assert meta["seed"] == "5"
    assert float(meta["n_nonlinear"]) == 1e7
    assert float(meta["v_nonlinear"]) == noise.v_nonlinear


def test_campaign_csv_keeps_detector_transmissions(tmp_path):
    noise = expmt.PolarimeterModel(transmission_h=0.81, transmission_v=0.9)
    camp = expmt.generate_correlation_campaign(1e7, samples=10, controls=2, seed=5, noise=noise)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    rows, meta = expmt.read_campaign_csv(path)
    assert float(meta["transmission_h"]) == 0.81 and float(meta["transmission_v"]) == 0.9
    _assert_rows_match(rows, meta, camp)
    root_t = math.sqrt(0.81 * 0.9)
    assert rows["s_y"] / (rows["s_x"] * root_t) == pytest.approx(rows["phi"], rel=1e-12)
    # a file without the lines is read (as full transmission)
    text = path.read_text()
    bare = "".join(ln for ln in text.splitlines(True) if "transmission" not in ln)
    path.write_text(bare)
    rows, meta = expmt.read_campaign_csv(path)
    assert "transmission_h" not in meta and len(rows) == 3 * 12
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
    assume(math.sqrt(t_h * t_v) > 0.0)  # rejected: test_underflowing_transmissions_rejected
    noise = expmt.PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    camp = expmt.generate_correlation_campaign(1e7, samples=samples, seed=seed, noise=noise)
    path = tmp_path_factory.mktemp("csv") / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    rows, meta = expmt.read_campaign_csv(path)
    _assert_rows_match(rows, meta, camp)
    assert int(meta["seed"]) == seed


def _per_row_campaign_text(campaign):
    """Campaign CSV text of the former per-row writer: the column writer's oracle."""
    noise = campaign.noise
    lines = [
        f"# schema_version = {expmt.CSV_SCHEMA_VERSION}\n",
        f"# n_nonlinear = {campaign.n_nonlinear:.17g}\n",
        f"# n_linear = {campaign.n_linear:.17g}\n",
        f"# seed = {campaign.seed}\n",
        f"# transmission_h = {noise.transmission_h:.17g}\n",
        f"# transmission_v = {noise.transmission_v:.17g}\n",
        f"# v_linear = {noise.v_linear:.17g}\n",
        f"# v_nonlinear = {noise.v_nonlinear:.17g}\n",
        "probe_tag,n_photons,s_x,s_y,phi,n_atoms,sample_index\n",
    ]
    columns = [(tag, n, phi.tolist(), s_y.tolist()) for tag, n, phi, s_y in campaign.probes()]
    for i, na in enumerate(campaign.n_atoms.tolist()):
        for tag, n, phi, s_y in columns:
            lines.append(f"{tag},{n:.17g},{n:.17g},{s_y[i]:.17g},{phi[i]:.17g},{na:.17g},{i}\n")
    return "".join(lines)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=10, max_value=40),
    controls=st.integers(min_value=0, max_value=6),
    n_nonlinear=st.sampled_from([1e6, 1e7, 6e7, 1e8]),
    t_h=_TRANSMISSION,
    t_v=_TRANSMISSION,
    quiet=st.booleans(),
)
def test_campaign_csv_matches_per_row_oracle(
    tmp_path_factory, seed, samples, controls, n_nonlinear, t_h, t_v, quiet
):
    assume(math.sqrt(t_h * t_v) > 0.0)  # rejected: test_underflowing_transmissions_rejected
    noise = expmt.PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    noise = noise.noiseless() if quiet else noise
    camp = expmt.generate_correlation_campaign(
        n_nonlinear, samples=samples, controls=controls, seed=seed, noise=noise
    )
    path = tmp_path_factory.mktemp("oracle") / "campaign.csv"
    text = expmt.write_campaign_csv(path, camp)
    # line lists: a failing comparison then names the first differing line
    # without a character diff of the whole file
    assert text.splitlines(True) == _per_row_campaign_text(camp).splitlines(True)
    assert path.read_bytes() == text.encode()


def test_underflowing_transmissions_rejected(tmp_path):
    # each transmission lies in (0, 1], but sqrt(t_h * t_v) is 0, so every
    # S_y would be written as 0 and no angle could be read back
    pair = {"transmission_h": 0.5, "transmission_v": 5e-324}
    with pytest.raises(InvalidConfig, match="underflows"):
        expmt.PolarimeterModel(**pair)
    camp = expmt.generate_correlation_campaign(1e7, samples=10, seed=5)
    path = tmp_path / "campaign.csv"
    expmt.write_campaign_csv(path, camp)
    text = path.read_text().replace("transmission_v = 1\n", "transmission_v = 5e-324\n")
    path.write_text(text.replace("transmission_h = 1\n", "transmission_h = 0.5\n"))
    with pytest.raises(InvalidConfig, match=f"{re.escape(str(path))}: .*underflows"):
        expmt.read_campaign_csv(path)


def test_campaign_csv_errors(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read"):
        expmt.read_campaign_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("# seed = 1\nwrong,header,line\n")
    with pytest.raises(InvalidConfig, match="columns"):
        expmt.read_campaign_csv(bad)

    camp = expmt.generate_correlation_campaign(1e7, samples=10, seed=1)
    expmt.write_campaign_csv(bad, camp)
    lines = bad.read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith("L1,"))
    for column, text, match in [
        (4, "nan", f"line {row + 1}: phi is not finite"),
        (1, "inf", f"line {row + 1}: n_photons is not finite"),
    ]:
        cells = lines[row].split(",")
        cells[column] = text
        bad.write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
        with pytest.raises(InvalidConfig, match=match):
            expmt.read_campaign_csv(bad)
    for text in ("nan", "inf", "0"):
        header = [re.sub("n_linear = .*", f"n_linear = {text}", line) for line in lines]
        bad.write_text("\n".join(header) + "\n")
        with pytest.raises(InvalidConfig, match=f"n_linear {text}.* is not a finite positive"):
            expmt.read_campaign_csv(bad)
