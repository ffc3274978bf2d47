"""Regression, saturation-fit, noise-budget, and crossover checks.

Closed-form oracles: the symmetric-perturbation regression dataset has
exactly computable errors, the saturation model is self-inverted on
noiseless data, and both crossover modes have one-line algebra solutions
that the numeric root finder must reproduce.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, nnls

from nlfaraday import analysis as ana
from nlfaraday import experiment as expmt
from nlfaraday.config import write_table
from nlfaraday.exceptions import (
    DegenerateDesign,
    InsufficientPoints,
    InvalidConfig,
    NegativeVariance,
    NlfaradayError,
    NoCrossover,
    NonConvergence,
)
from oracles import crossover_numeric

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
        ana.ResponseModel(-1.0, B_PUB, math.inf)
    with pytest.raises(InvalidConfig):
        ana.ResponseModel(A_PUB, B_PUB, 0.0)
    with pytest.raises(InvalidConfig):
        ana.ResponseModel(0.0, B_PUB, math.inf).calibration_slope(1e6)


@pytest.mark.parametrize("offset", [0.0, 0.03])
def test_unsaturated_response_model(offset):
    model = ana.ResponseModel(saturation_photons=math.inf, damage_offset=offset)
    n = np.logspace(0.0, 12.0, 25)
    for nn in n:
        assert model.effective_nonlinear(nn) == model.nonlinear_coefficient
        assert model.damage(nn) == offset
    assert np.array_equal(model.effective_nonlinear(n), [model.effective_nonlinear(x) for x in n])
    assert np.array_equal(model.damage(n), [model.damage(x) for x in n])


def test_sensitivity_reference_points():
    linear_only = ana.ResponseModel(A_PUB, 0.0, math.inf)
    assert linear_only.sensitivity_spins(1e6) == pytest.approx(30303.03, rel=1e-5)
    nonlinear_only = ana.ResponseModel(0.0, B_PUB, math.inf)
    assert nonlinear_only.sensitivity_spins(1e7) == pytest.approx(83218.0, rel=1e-4)


def test_sensitivity_curve_and_exponents():
    linear_only = ana.ResponseModel(A_PUB, 0.0, math.inf)
    curve = ana.sensitivity_curve(linear_only, np.logspace(5, 8, 16))
    fit = ana.scaling_exponent(curve)
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
    assert fit.saturation_photons == math.inf
    assert fit.nonlinear_coefficient == pytest.approx(B_PUB, rel=1e-12)
    assert np.all(fit.effective_nonlinear(n) == fit.nonlinear_coefficient)


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


def _regression(points):
    return ana.linear_regression(points)


def _saturation(points):
    return ana.fit_saturation(points, A_PUB)


@pytest.mark.parametrize("fit", [_regression, _saturation, ana.fit_variance_model])
@pytest.mark.parametrize("column, bad", [(0, np.nan), (1, np.nan), (1, np.inf), (1, -np.inf)])
def test_fits_reject_non_finite_point(fit, column, bad):
    n = np.logspace(6, 8, 6)
    points = np.column_stack([n, PUBLISHED.calibration_slope(n)])
    fit(points)  # the clean points fit
    points[2, column] = bad
    with pytest.raises(InvalidConfig, match="point 2 .* is not finite"):
        fit(points)


def _least_squares_saturation_fit(n, b, a):
    """Oracle: the two-parameter least_squares fit that the separable fit replaced."""
    order = np.argsort(n)
    n, b = n[order], b[order]
    b_init = b[0] * a / n[0]
    if b_init <= 0:
        b_init = max(float(np.median(b * a / n)), 1e-30)
    # half-slope point: b*A/(B N) drops to 1/2 at N = N_sat
    ratio = b * a / (b_init * n)
    if np.min(ratio) < 0.75:
        ns_init = float(np.interp(0.5, ratio[::-1], n[::-1]))
        ns_init = min(max(ns_init, np.min(n)), 100.0 * np.max(n))
    else:
        ns_init = 10.0 * float(np.max(n))

    def residual(p):
        bb, ns = p
        return bb / a * n / (1.0 + n / ns) - b

    sol = least_squares(
        residual,
        x0=[b_init, ns_init],
        bounds=([0.0, 0.0], [np.inf, np.inf]),
        x_scale=[max(b_init, 1e-30), max(ns_init, 1.0)],
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=2000,
    )
    assert sol.success
    b_hat, ns_hat = sol.x
    if ns_hat > 50.0 * np.max(n):
        return ana.ResponseModel(a, float(np.sum(b * n) / np.sum(n * n / a)), math.inf)
    return ana.ResponseModel(a, float(b_hat), float(ns_hat))


def _slope_sets():
    """Criterion-4 campaign slopes, noisy exact curves, an unsaturated and a low-N_sat set."""
    grid = np.logspace(6.0, 8.0, 10)
    for rep in range(20):
        slopes = [
            ana.linear_regression(expmt.generate_correlation_campaign(
                float(n), samples=50, seed=1_000_000 + 100 * rep + j
            ).pairs()).slope
            for j, n in enumerate(grid)
        ]
        yield grid, np.array(slopes)
    rng = np.random.default_rng(42)
    exact = PUBLISHED.calibration_slope(grid)
    for _ in range(30):
        yield grid, exact * (1.0 + 0.05 * rng.standard_normal(grid.size))
    low = np.logspace(4, 6, 8)
    yield low, (B_PUB / A_PUB) * low
    below = ana.ResponseModel(saturation_photons=3e5).calibration_slope(grid)
    yield grid, below * (1.0 + 0.05 * rng.standard_normal(grid.size))


def test_fit_saturation_matches_least_squares_oracle():
    def cost(model, n, b):
        return float(np.sum((model.calibration_slope(n) - b) ** 2))

    identified = 0
    for count, (n, b) in enumerate(_slope_sets(), start=1):
        points = np.column_stack([n, b])
        fit, oracle = ana.fit_saturation(points, A_PUB), _least_squares_saturation_fit(n, b, A_PUB)
        assert cost(fit, n, b) <= cost(oracle, n, b) * (1.0 + 1e-12)
        assert (fit.saturation_photons == math.inf) == (oracle.saturation_photons == math.inf)
        if fit.saturation_photons == math.inf:
            continue
        identified += 1
        assert fit.nonlinear_coefficient == pytest.approx(oracle.nonlinear_coefficient, rel=1e-6)
        assert fit.saturation_photons == pytest.approx(oracle.saturation_photons, rel=1e-6)
    assert count >= 50 and identified >= 40


def test_fit_saturation_rejects_falling_slopes():
    # b(N) rises with N for every B >= 0 and N_sat > 0: falling slopes put
    # the best N_sat at the bottom of the searched range
    n = np.logspace(6, 8, 5)
    with pytest.raises(NonConvergence, match="below 1e-4 min N"):
        ana.fit_saturation(np.column_stack([n, 1e6 / n]), A_PUB)


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


def test_variance_fit_matches_scipy_nnls():
    """Criterion 5's inputs: the exact NNLS equals scipy.optimize.nnls."""
    grid = np.logspace(3.0, 8.0, 12)
    n, v = expmt.polarimeter_noise_scan(grid, samples=2000, seed=11)
    fit = ana.fit_variance_model(np.column_stack([n, v]))
    # the weighting and column scaling of fit_variance_model
    w = np.maximum(v, np.min(v[v > 0]))
    design = np.column_stack([np.ones_like(n), n, n**2]) / w[:, None]
    scale = np.max(design, axis=0)
    expected = nnls(design / scale, v / w)[0] / scale
    got = [fit.v_electronic, fit.shot_coefficient, fit.technical_coefficient]
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@st.composite
def _nnls_problems(draw):
    """Weighted 3-column designs, some with a zero or a dependent column."""
    rows = draw(st.integers(3, 8))
    ints = st.lists(st.integers(-5, 5), min_size=rows, max_size=rows)
    a = np.array([draw(ints) for _ in range(3)], dtype=float).T
    kind = draw(st.sampled_from(["plain", "zero", "dependent"]))
    j = draw(st.integers(0, 2))
    if kind == "zero":
        a[:, j] = 0.0
    elif kind == "dependent":
        a[:, j] = draw(st.sampled_from([-2.0, 0.5, 3.0])) * a[:, (j + 1) % 3]
    weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=rows, max_size=rows)))
    b = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=rows, max_size=rows)))
    return a * weights[:, None], b * weights


@settings(max_examples=300, deadline=None)
@given(_nnls_problems())
@example((np.zeros((3, 3)), np.array([1.0, -2.0, 3.0])))
@example((np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([1.0, 1.0, -1.0])))
def test_nnls_is_feasible_and_meets_kkt(problem):
    """x >= 0; the gradient is >= 0 where x = 0 and 0 where x > 0."""
    a, b = problem
    x = ana._nnls(a, b)
    assert np.all(x >= 0)
    grad = a.T @ (a @ x - b)
    tol = 1e-9 * (1.0 + np.linalg.norm(a) * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)))
    assert np.all(grad[x == 0] >= -tol)
    assert np.all(np.abs(grad[x > 0]) <= tol)
    # no worse a fit than SciPy's active-set solver
    rss, ref_rss = np.sum((a @ x - b) ** 2), np.sum((a @ nnls(a, b)[0] - b) ** 2)
    assert rss <= ref_rss + tol


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
        numeric = crossover_numeric(linear, nonlinear, mode=mode)
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

    # a non-finite number is written only in a field listed as admitting one
    with pytest.raises(NlfaradayError, match="slope"):
        ana.write_fit_report(tmp_path / "refused.txt", {"slope": (2.0, math.nan)})
    assert not (tmp_path / "refused.txt").exists()

    n = np.logspace(5, 7, 5)
    columns = {
        "n_photons": n,
        "sensitivity": 2.0 * n**-1.5,
        "damage_detected": np.array([-0.0, 0.0, -0.5, np.nan, -np.inf]),
        "count": np.array([3, 1, 3, 0, 1]),
        "tag": ["L1", "NL", "L2", "NL", "L1"],
    }
    path = tmp_path / "table.csv"
    text = write_table(path, columns, metadata={"seed": 7, "b_first": 0.1, "a_second": "x"})
    assert path.read_text() == text
    # metadata lines in the order given, values by the manifest formatter
    assert text.startswith("# seed = 7\n# b_first = 0.10000000000000001\n# a_second = x\n")
    cols = read_csv_columns(path)
    assert list(cols) == list(columns)
    for name in ("n_photons", "sensitivity", "count"):
        assert np.array_equal(cols[name], columns[name])
    assert np.array_equal(cols["damage_detected"], columns["damage_detected"], equal_nan=True)
    assert np.array_equal(np.signbit(cols["damage_detected"]), np.signbit(columns["damage_detected"]))
    assert cols["tag"] == columns["tag"]
    # ints are written exactly, and -0.0 keeps its sign beside 0.0
    rows = [row.split(",") for row in text.splitlines()[4:]]
    assert [row[2] for row in rows] == ["-0", "0", "-0.5", "nan", "-inf"]
    assert [row[3] for row in rows] == ["3", "1", "3", "0", "1"]
    with pytest.raises(NlfaradayError, match="signed"):
        write_table(tmp_path / "refused.csv", {"signed": columns["damage_detected"]})
    assert not (tmp_path / "refused.csv").exists()
    with pytest.raises(ValueError):
        write_table(tmp_path / "bad.csv", {"a": np.arange(5.0), "b": np.arange(3.0)})
    assert not (tmp_path / "bad.csv").exists()
