"""Regression, saturation-fit, noise-budget, and crossover checks.

Closed-form oracles: the symmetric-perturbation regression dataset has
exactly computable errors, the saturation model is self-inverted on
noiseless data, and both crossover modes have one-line algebra solutions
that the numeric root finder must reproduce.
"""
import numpy as np
import pytest

from nlfaraday import analysis as ana
from nlfaraday.exceptions import (
    DegenerateDesign,
    IllConditioned,
    InsufficientPoints,
    InvalidConfig,
    NegativeVariance,
    NoCrossover,
)

PUBLISHED = ana.ResponseModel()
A_PUB = PUBLISHED.linear_coefficient
B_PUB = PUBLISHED.nonlinear_coefficient
NSAT_PUB = PUBLISHED.saturation_photons


def test_regression_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = ana.linear_regression(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-14)
    assert fit.intercept == pytest.approx(1.0, abs=1e-14)
    assert fit.residual_std == pytest.approx(0.0, abs=1e-13)
    assert fit.n_points == 4


def test_regression_symmetric_perturbation_oracle():
    # residuals sit only on the two x=0 points: rss = 2 e^2, so with
    # n-2 = 2 the residual std equals e exactly, slope_se = e/sqrt(2)
    e = 0.01
    pairs = np.array([[-1.0, -1.0], [0.0, 1.0 + e], [0.0, 1.0 - e], [1.0, 3.0]])
    fit = ana.linear_regression(pairs)
    assert fit.slope == pytest.approx(2.0, abs=1e-14)
    assert fit.intercept == pytest.approx(1.0, abs=1e-14)
    assert fit.residual_std == pytest.approx(e, rel=1e-12)
    assert fit.slope_stderr == pytest.approx(e / np.sqrt(2.0), rel=1e-12)
    assert fit.intercept_stderr == pytest.approx(e / 2.0, rel=1e-12)


def test_regression_stderr_coverage():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 20)
    hits = 0
    for _ in range(500):
        y = 3.0 * x - 1.0 + 0.1 * rng.standard_normal(x.size)
        fit = ana.linear_regression(x, y)
        if abs(fit.slope - 3.0) <= 2.0 * fit.slope_stderr:
            hits += 1
    assert hits / 500 >= 0.90


def test_regression_validation():
    with pytest.raises(InsufficientPoints):
        ana.linear_regression([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateDesign):
        ana.linear_regression([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidConfig):
        ana.linear_regression(np.ones((3, 3)))
    with pytest.raises(InvalidConfig):
        ana.linear_regression([1.0, 2.0, 3.0], [1.0, 2.0])


def test_sensitivity_model_basics():
    model = ana.ResponseModel(A_PUB, B_PUB, NSAT_PUB)
    assert model.effective_nonlinear(NSAT_PUB) == pytest.approx(B_PUB / 2, rel=1e-12)
    assert model.calibration_slope(1e7) == pytest.approx(0.0987013, rel=1e-5)
    n = np.logspace(5, 8, 7)
    expect = 1.0 / (A_PUB * np.sqrt(n) + model.effective_nonlinear(n) * n**1.5)
    assert model.sensitivity_spins(n) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(InvalidConfig):
        ana.ResponseModel(-1.0, B_PUB, None)
    with pytest.raises(InvalidConfig):
        ana.ResponseModel(A_PUB, B_PUB, 0.0)
    with pytest.raises(InvalidConfig):
        ana.ResponseModel(0.0, B_PUB, None).calibration_slope(1e6)


@pytest.mark.parametrize("offset", [0.0, 0.03])
def test_unsaturated_response_model(offset):
    model = ana.ResponseModel(saturation_photons=None, damage_offset=offset)
    n = np.logspace(0.0, 12.0, 25)
    for nn in n:
        assert model.effective_nonlinear(nn) == model.nonlinear_coefficient
        assert model.damage(nn) == offset
    assert np.array_equal(model.effective_nonlinear(n), [model.effective_nonlinear(x) for x in n])
    assert np.array_equal(model.damage(n), [model.damage(x) for x in n])


def test_sensitivity_reference_points():
    linear_only = ana.ResponseModel(A_PUB, 0.0, None)
    assert linear_only.sensitivity_spins(1e6) == pytest.approx(30303.03, rel=1e-5)
    nonlinear_only = ana.ResponseModel(0.0, B_PUB, None)
    assert nonlinear_only.sensitivity_spins(1e7) == pytest.approx(83218.0, rel=1e-4)


def test_sensitivity_curve_and_exponents():
    linear_only = ana.ResponseModel(A_PUB, 0.0, None)
    curve = ana.sensitivity_curve(linear_only, np.logspace(5, 8, 16))
    fit = curve.global_exponent()
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(curve.local_exponents(), -0.5, atol=1e-12)
    assert curve.meta["collective_spin"] == 7e5
    assert curve.sensitivity[0] == pytest.approx(
        linear_only.sensitivity_spins(1e5) / 7e5, rel=1e-12
    )
    with pytest.raises(InvalidConfig):
        ana.sensitivity_curve(linear_only, [1e5, 1e6], collective_spin=0.0)


def test_scaling_exponent_pure_power_laws():
    rng = np.random.default_rng(8)
    n = np.logspace(5.0, 8.0, 11)
    for _ in range(20):
        p = rng.uniform(-2.0, 0.5)
        fit = ana.scaling_exponent(ana.ScalingCurve(n, 7.3 * n**p))
        assert fit.exponent == pytest.approx(p, abs=1e-10)
        assert fit.stderr < 1e-10
        assert fit.n_points == 11


def test_scaling_exponent_window():
    n = np.logspace(5.0, 8.0, 13)
    s = 2.0 * n**-1.5
    s_outside = s.copy()
    s_outside[n < 1e6] *= 5.0
    s_outside[n > 1e7] *= 3.0
    fit = ana.scaling_exponent(ana.ScalingCurve(n, s_outside), window=(1e6, 1e7))
    assert fit.exponent == pytest.approx(-1.5, abs=1e-10)
    assert fit.window == (1e6, 1e7)
    with pytest.raises(InsufficientPoints):
        ana.scaling_exponent(ana.ScalingCurve(n, s), window=(1e6, 2e6))


def test_scaling_curve_validation():
    with pytest.raises(InvalidConfig):
        ana.ScalingCurve(np.array([1e5, 1e5]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidConfig):
        ana.ScalingCurve(np.array([1e5, 1e6]), np.array([1.0, -2.0]))
    with pytest.raises(InvalidConfig):
        ana.ScalingCurve(np.array([1e5, 1e6]), np.array([1.0]))


def test_fit_saturation_recovers_noiseless_model():
    model = ana.ResponseModel(A_PUB, B_PUB, NSAT_PUB)
    n = np.logspace(6, 8, 10)
    points = np.column_stack([n, model.calibration_slope(n)])
    fit = ana.fit_saturation(points, A_PUB)
    assert fit.nonlinear_coefficient == pytest.approx(B_PUB, rel=1e-6)
    assert fit.saturation_photons == pytest.approx(NSAT_PUB, rel=1e-6)
    # half-slope identity at the saturation point
    half = fit.calibration_slope(NSAT_PUB) / (B_PUB * NSAT_PUB / A_PUB)
    assert half == pytest.approx(0.5, rel=1e-5)


def test_fit_saturation_fallback_when_unsaturated():
    n = np.logspace(4, 6, 8)
    b = (B_PUB / A_PUB) * n
    fit = ana.fit_saturation(np.column_stack([n, b]), A_PUB)
    assert fit.saturation_photons is None
    assert fit.nonlinear_coefficient == pytest.approx(B_PUB, rel=1e-12)
    assert np.all(fit.effective_nonlinear(n) == fit.nonlinear_coefficient)
    with pytest.raises(IllConditioned):
        ana.fit_saturation(np.column_stack([n, b]), A_PUB, allow_fallback=False)


def test_fit_saturation_validation():
    n = np.logspace(6, 8, 5)
    b = (B_PUB / A_PUB) * n
    with pytest.raises(InsufficientPoints):
        ana.fit_saturation(np.column_stack([n[:2], b[:2]]), A_PUB)
    with pytest.raises(InvalidConfig):
        ana.fit_saturation(np.column_stack([n, b]), 0.0)
    narrow = np.array([[1e6, 1.0], [2e6, 2.0], [3e6, 3.0]])
    with pytest.raises(InvalidConfig):
        ana.fit_saturation(narrow, A_PUB)
    with pytest.raises(InvalidConfig):
        ana.fit_saturation(np.array([[-1e6, 1.0], [1e6, 1.0], [2e7, 2.0]]), A_PUB)


def test_variance_fit_exact_recovery():
    n = np.logspace(3, 8, 12)
    v = 4e5 + 1.0 * n + 1e-9 * n**2
    fit = ana.fit_variance_model(np.column_stack([n, v]))
    assert fit.v_electronic == pytest.approx(4e5, rel=1e-6)
    assert fit.shot_coefficient == pytest.approx(1.0, rel=1e-6)
    assert fit.technical_coefficient == pytest.approx(1e-9, rel=1e-6)
    assert fit.crossing_photon_number() == pytest.approx(4e5, rel=1e-6)
    assert fit.variance(2e6) == pytest.approx(4e5 + 2e6 + 4e3, rel=1e-6)


def test_variance_fit_pure_shot_noise():
    n = np.logspace(3, 8, 12)
    fit = ana.fit_variance_model(np.column_stack([n, n.copy()]))
    assert fit.shot_coefficient == pytest.approx(1.0, rel=1e-9)
    assert fit.v_electronic < 1.0
    assert fit.technical_coefficient < 1e-12


def test_variance_fit_validation():
    n = np.logspace(3, 8, 12)
    bad = 4e5 + n
    bad[3] = -1.0
    with pytest.raises(NegativeVariance):
        ana.fit_variance_model(np.column_stack([n, bad]))
    with pytest.raises(InsufficientPoints):
        ana.fit_variance_model(np.array([[1e3, 1e3], [1e5, 1e5], [1e8, 1e8]]))
    narrow = np.linspace(1e6, 2e6, 8)
    with pytest.raises(InvalidConfig):
        ana.fit_variance_model(np.column_stack([narrow, narrow]))
    with pytest.raises(NoCrossover):
        ana.VarianceDecomposition(4e5, 0.0, 1e-9).crossing_photon_number()


def test_subtract_electronic_noise_identity(caplog):
    n = np.logspace(6, 8, 5)
    intrinsic = 0.5 / np.sqrt(n)
    measured = np.sqrt(intrinsic**2 + 4e5 / n**2)
    recovered = ana.subtract_electronic_noise(measured, n, 4e5)
    assert recovered == pytest.approx(intrinsic, rel=1e-9)
    with caplog.at_level("WARNING", logger="nlfaraday.analysis"):
        clipped = ana.subtract_electronic_noise(np.array([1e-4]), np.array([1e6]), 4e5)
    assert clipped[0] == 0.0
    assert any("clipping" in rec.message for rec in caplog.records)


def test_time_normalized_prefactors_match_published_values():
    linear = ana.time_normalized_prefactor(A_PUB, 40e-6)
    nonlinear = ana.time_normalized_prefactor(B_PUB, 54e-9)
    assert linear == pytest.approx(191653.19, rel=1e-6)
    assert nonlinear == pytest.approx(6.115236e11, rel=1e-4)
    assert linear == pytest.approx(1.9e5, rel=0.03)
    assert nonlinear == pytest.approx(6.1e11, rel=0.03)
    with pytest.raises(InvalidConfig):
        ana.time_normalized_prefactor(0.0, 40e-6)


def test_crossover_closed_form_and_numeric_agree():
    linear = (A_PUB, 40e-6)
    nonlinear = (B_PUB, 54e-9)
    for mode in ("time-limited", "number-limited"):
        closed = ana.crossover(linear, nonlinear, mode=mode)
        numeric = ana.crossover_numeric(linear, nonlinear, mode=mode)
        assert closed.n_star == pytest.approx(numeric, rel=1e-12)
        assert closed.mode == mode
    with pytest.raises(NoCrossover):
        ana.crossover(linear, (0.0, 54e-9))
    with pytest.raises(InvalidConfig):
        ana.crossover(linear, nonlinear, mode="budget")
    with pytest.raises(InvalidConfig):
        ana.crossover((A_PUB, -1.0), nonlinear, mode="time-limited")


def test_report_and_csv_writers(tmp_path):
    from conftest import read_csv_columns, read_report

    report = tmp_path / "fit.txt"
    ana.write_fit_report(
        report,
        {"slope": (2.0, 0.1), "offset": 1.5, "count": 7},
        header="demo fit",
    )
    parsed = read_report(report)
    assert parsed["slope"] == (2.0, 0.1)
    assert parsed["offset"] == (1.5, None)
    assert parsed["count"] == (7.0, None)

    curve = ana.ScalingCurve(np.logspace(5, 7, 5), 2.0 * np.logspace(5, 7, 5) ** -1.5)
    path = tmp_path / "curve.csv"
    ana.write_curve_csv(path, curve, extra_columns={"flag": np.arange(5.0)})
    cols = read_csv_columns(path)
    assert cols["n_photons"] == pytest.approx(curve.n_photons, rel=1e-15)
    assert cols["sensitivity"] == pytest.approx(curve.sensitivity, rel=1e-15)
    assert cols["flag"] == pytest.approx(np.arange(5.0))
    with pytest.raises(InvalidConfig):
        ana.write_curve_csv(path, curve, extra_columns={"bad": np.arange(3.0)})
