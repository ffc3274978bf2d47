"""Estimation chain: calibration regression, saturation and variance fits,
sensitivity curves, scaling exponents, and probe-crossover arithmetic.

Conventions used throughout:

- The linear rotation coefficient A converts collective spin to rotation
  via phi_L = (A / 2) * F_z; the nonlinear coefficient B enters as
  phi_NL = (B_eff(N) * N / 2) * F_z with B_eff(N) = B / (1 + N / N_sat).
- The calibration slope b = dphi_NL / dphi_L is therefore
  b(N) = B_eff(N) * N / A, dimensionless.
- Spin sensitivity of a single probe of N photons at shot noise
  delta_phi = 1 / (2 sqrt(N)) is
  delta_F_z = 1 / (A sqrt(N) + B_eff(N) N^(3/2)).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, least_squares, nnls

from .exceptions import (
    DegenerateDesign,
    IllConditioned,
    InsufficientPoints,
    InvalidConfig,
    NegativeVariance,
    NonConvergence,
    NoCrossover,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float
    residual_std: float      # rms scatter about the fit, n-2 denominator
    n_points: int


def _as_xy(pairs, y=None):
    if y is not None:
        x = np.asarray(pairs, dtype=float)
        y = np.asarray(y, dtype=float)
    else:
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidConfig("pairs must be an (n, 2) array or two 1-d arrays")
        x, y = arr[:, 0], arr[:, 1]
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidConfig("x and y must be 1-d arrays of equal length")
    return x, y


def linear_regression(pairs, y=None) -> RegressionResult:
    """Ordinary least squares y = b*x + a with standard errors.

    Accepts either an (n, 2) array of pairs or two separate arrays.
    Residual standard deviation uses the n-2 denominator.
    """
    x, y = _as_xy(pairs, y)
    n = len(x)
    if n < 3:
        raise InsufficientPoints(f"need at least 3 points, got {n}")
    sxx = float(np.var(x))
    if sxx == 0.0:
        raise DegenerateDesign("predictor has zero variance")
    xm, ym = float(np.mean(x)), float(np.mean(y))
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid**2))
    residual_std = math.sqrt(rss / (n - 2))
    sxx_sum = float(np.sum((x - xm) ** 2))
    slope_se = residual_std / math.sqrt(sxx_sum)
    intercept_se = residual_std * math.sqrt(1.0 / n + xm**2 / sxx_sum)
    return RegressionResult(slope, intercept, slope_se, intercept_se, residual_std, n)


@dataclass(frozen=True)
class SensitivityModel:
    """Effective response parameters of one probing configuration."""

    linear_coefficient: float                 # A, rad per unit collective spin (x2)
    nonlinear_coefficient: float              # B, rad per spin per photon (x2)
    saturation_photons: float | None = None   # absent = unsaturated

    def __post_init__(self):
        if self.linear_coefficient < 0 or self.nonlinear_coefficient < 0:
            raise InvalidConfig("coefficients must be non-negative")
        if self.saturation_photons is not None and self.saturation_photons <= 0:
            raise InvalidConfig("saturation photon number must be positive")

    def effective_nonlinear(self, n_photons):
        """B_eff(N): saturable nonlinear coefficient."""
        b = self.nonlinear_coefficient
        if self.saturation_photons is None:
            return b * np.ones_like(np.asarray(n_photons, dtype=float))
        return b / (1.0 + np.asarray(n_photons, dtype=float) / self.saturation_photons)

    def calibration_slope(self, n_photons):
        """b(N) = dphi_NL/dphi_L = B_eff(N) N / A."""
        if self.linear_coefficient == 0:
            raise InvalidConfig("calibration slope undefined for A = 0")
        return self.effective_nonlinear(n_photons) * np.asarray(n_photons, dtype=float) / self.linear_coefficient

    def sensitivity_spins(self, n_photons):
        """Shot-noise-limited spin uncertainty of an N-photon probe."""
        n = np.asarray(n_photons, dtype=float)
        denom = self.linear_coefficient * np.sqrt(n) + self.effective_nonlinear(n) * n**1.5
        return 1.0 / denom


@dataclass(frozen=True)
class ScalingCurve:
    """Sensitivity versus photon number with local and global slopes."""

    n_photons: np.ndarray
    sensitivity: np.ndarray     # fractional: delta F_z / <F_z> (or delta phi / phi)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = np.asarray(self.n_photons, dtype=float)
        s = np.asarray(self.sensitivity, dtype=float)
        if n.ndim != 1 or n.shape != s.shape:
            raise InvalidConfig("curve needs matching 1-d arrays")
        if not np.all(np.diff(n) > 0):
            raise InvalidConfig("photon numbers must be strictly increasing")
        if not np.all(s > 0):
            raise InvalidConfig("sensitivities must be positive")
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "sensitivity", s)

    def local_exponents(self) -> np.ndarray:
        """Log-log slope between adjacent points."""
        return np.diff(np.log(self.sensitivity)) / np.diff(np.log(self.n_photons))

    def global_exponent(self, window=None):
        return scaling_exponent(self, window)


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    stderr: float
    n_points: int
    window: tuple


def scaling_exponent(curve, window=None) -> ExponentFit:
    """Least-squares log-log slope of a sensitivity curve over a window."""
    if isinstance(curve, ScalingCurve):
        n, s = curve.n_photons, curve.sensitivity
    else:
        n, s = (np.asarray(a, dtype=float) for a in curve)
    if window is not None:
        lo, hi = window
        keep = (n >= lo) & (n <= hi)
        n, s = n[keep], s[keep]
    else:
        lo, hi = (float(n[0]), float(n[-1])) if len(n) else (0.0, 0.0)
    if len(n) < 3:
        raise InsufficientPoints(f"need >=3 points in window, got {len(n)}")
    fit = linear_regression(np.log(n), np.log(s))
    return ExponentFit(fit.slope, fit.slope_stderr, len(n), (float(lo), float(hi)))


def fit_saturation(
    slope_points, linear_coefficient: float, allow_fallback: bool = True
) -> SensitivityModel:
    """Fit b(N) = (B/A) N / (1 + N/N_sat) to calibration slopes.

    ``slope_points``: sequence of (N, b) pairs.  B is initialized from the
    smallest-N slope, N_sat from the half-slope point.  When the data only
    sample N << N_sat the saturation scale is unidentifiable; by default
    the fit falls back to the B-only model (saturation_photons = None);
    with ``allow_fallback=False`` that condition raises IllConditioned.
    """
    n, b = _as_xy(slope_points)
    if len(n) < 3:
        raise InsufficientPoints("saturation fit needs >=3 slope points")
    if np.min(n) <= 0:
        raise InvalidConfig("photon numbers must be positive")
    if len(np.unique(n)) < 3 or np.max(n) / np.min(n) < 10.0:
        raise InvalidConfig("slope points must span >=1 decade with >=3 distinct N")
    a = float(linear_coefficient)
    if a <= 0:
        raise InvalidConfig("linear coefficient must be positive")
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

    # the two parameters differ by >20 orders of magnitude; the solver
    # needs per-parameter scales or xtol can never resolve the small one
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
    if not sol.success:
        raise NonConvergence(f"saturation fit failed: {sol.message}")
    b_hat, ns_hat = sol.x

    if ns_hat > 50.0 * np.max(n):
        # saturation invisible over the sampled range: refit pure slope
        if not allow_fallback:
            raise IllConditioned("all N << N_sat; saturation scale unidentifiable")
        log.info("saturation scale unidentifiable (N_sat >> max N); B-only fallback")
        b_only = float(np.sum(b * n) / np.sum(n * n / a))
        return SensitivityModel(a, b_only, None)
    return SensitivityModel(a, float(b_hat), float(ns_hat))


@dataclass(frozen=True)
class VarianceDecomposition:
    """Polarimeter noise budget: var(S_y) = v_electronic + shot*N + technical*N^2."""

    v_electronic: float
    shot_coefficient: float
    technical_coefficient: float

    def crossing_photon_number(self) -> float:
        """N where electronic and shot contributions are equal."""
        if self.shot_coefficient <= 0:
            raise NoCrossover("no shot-noise component")
        return self.v_electronic / self.shot_coefficient

    def variance(self, n_photons):
        n = np.asarray(n_photons, dtype=float)
        return self.v_electronic + self.shot_coefficient * n + self.technical_coefficient * n**2


def fit_variance_model(points) -> VarianceDecomposition:
    """Non-negative least squares on var(S_y) = V_el + s*N + c*N^2.

    Rows are weighted by 1/var: the sampling error of a variance estimate
    scales with the variance itself, so relative residuals put the
    electronic-floor points (small var) and the shot-dominated points
    (orders of magnitude larger) on equal footing.
    """
    n, v = _as_xy(points)
    if np.any(v < 0):
        raise NegativeVariance("variance inputs must be non-negative")
    if len(n) < 4:
        raise InsufficientPoints("variance fit needs >=4 points")
    if np.min(n) <= 0 or np.log10(np.max(n) / np.min(n)) < 1.5:
        raise InvalidConfig("variance fit needs >=1.5 decades of photon numbers")
    design = np.column_stack([np.ones_like(n), n, n**2])
    positive = v[v > 0]
    floor = float(np.min(positive)) if positive.size else 1.0
    w = np.maximum(v, floor)
    design = design / w[:, None]
    target = v / w
    # column scaling keeps nnls well conditioned across ~10 decades
    scale = np.max(design, axis=0)
    coef, _ = nnls(design / scale, target)
    coef = coef / scale
    return VarianceDecomposition(float(coef[0]), float(coef[1]), float(coef[2]))


def sensitivity_curve(model: SensitivityModel, n_photons, collective_spin: float = 7e5) -> ScalingCurve:
    """Fractional spin sensitivity delta F_z / <F_z> over a photon grid."""
    if collective_spin <= 0:
        raise InvalidConfig("collective spin must be positive")
    n = np.asarray(sorted(np.atleast_1d(n_photons)), dtype=float)
    spins = model.sensitivity_spins(n)
    return ScalingCurve(
        n, spins / collective_spin,
        meta={"collective_spin": collective_spin, "model": model},
    )


def subtract_electronic_noise(measured_std, n_photons, v_electronic):
    """Remove the electronic-noise contribution from measured angle scatter.

    Identity: intrinsic^2 = measured^2 - v_electronic / N^2 (rad^2).
    Negative differences are clipped to zero with a warning.
    """
    m = np.asarray(measured_std, dtype=float)
    n = np.asarray(n_photons, dtype=float)
    diff = m**2 - v_electronic / n**2
    if np.any(diff < 0):
        log.warning(
            "electronic correction exceeds measured variance at %d point(s); clipping",
            int(np.sum(diff < 0)),
        )
    return np.sqrt(np.clip(diff, 0.0, None))


def time_normalized_prefactor(coefficient: float, duration: float) -> float:
    """sqrt(tau)/coef: per-root-hertz prefactor of a 1/(coef N^p) probe."""
    if coefficient <= 0 or duration <= 0:
        raise InvalidConfig("coefficient and duration must be positive")
    return math.sqrt(duration) / coefficient


@dataclass(frozen=True)
class CrossoverResult:
    n_star: float
    sensitivity: float   # spins (number-limited) or spins/sqrt(Hz) (time-limited)
    mode: str


def crossover(model_linear, model_nonlinear, mode: str = "time-limited") -> CrossoverResult:
    """Photon number where the nonlinear probe overtakes the linear one.

    ``model_linear``: (A, tau_linear); ``model_nonlinear``: (B, tau_nonlinear).
    Number-limited compares spins per probe photon budget:
    1/(A sqrt(N)) = 1/(B N^(3/2)); time-limited compares per root hertz:
    sqrt(tau_L)/(A sqrt(N)) = sqrt(tau_NL)/(B N^(3/2)).  Closed form both ways.
    """
    a, tau_l = (float(v) for v in model_linear)
    b, tau_nl = (float(v) for v in model_nonlinear)
    if b == 0:
        raise NoCrossover("nonlinear coefficient is zero: curves never cross")
    if a <= 0 or b < 0:
        raise InvalidConfig("coefficients must be positive")
    if mode == "number-limited":
        n_star = a / b
        sens = 1.0 / (a * math.sqrt(n_star))
    elif mode == "time-limited":
        if tau_l <= 0 or tau_nl <= 0:
            raise InvalidConfig("durations must be positive")
        n_star = (a / b) * math.sqrt(tau_nl / tau_l)
        sens = math.sqrt(tau_l) / (a * math.sqrt(n_star))
    else:
        raise InvalidConfig(f"unknown crossover mode {mode!r}")
    return CrossoverResult(float(n_star), float(sens), mode)


def crossover_numeric(model_linear, model_nonlinear, mode: str = "time-limited") -> float:
    """Root-finding cross-check of the closed-form crossover point."""
    a, tau_l = (float(v) for v in model_linear)
    b, tau_nl = (float(v) for v in model_nonlinear)
    if b == 0:
        raise NoCrossover("nonlinear coefficient is zero: curves never cross")
    wl = math.sqrt(tau_l) if mode == "time-limited" else 1.0
    wnl = math.sqrt(tau_nl) if mode == "time-limited" else 1.0

    def gap(log_n):
        n = math.exp(log_n)
        return math.log(wl / (a * math.sqrt(n))) - math.log(wnl / (b * n**1.5))

    root = brentq(gap, math.log(1e-2), math.log(1e18), xtol=1e-14, rtol=8.9e-16)
    return float(math.exp(root))


def write_fit_report(path, parameters: dict, header: str = ""):
    """Structured text report: one 'name = value +- stderr' line per entry."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for name, val in parameters.items():
        if isinstance(val, tuple):
            value, err = val
            err_s = "nan" if err is None else f"{err:.10g}"
            lines.append(f"{name} = {value:.10g} +- {err_s}")
        else:
            lines.append(f"{name} = {val:.10g}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_curve_csv(path, curve: ScalingCurve, extra_columns: dict = None):
    """Curve table as CSV; extra columns must match the curve length."""
    cols = {"n_photons": curve.n_photons, "sensitivity": curve.sensitivity}
    if extra_columns:
        for name, arr in extra_columns.items():
            arr = np.asarray(arr)
            if arr.shape != curve.n_photons.shape:
                raise InvalidConfig(f"extra column {name!r} has wrong length")
            cols[name] = arr
    names = list(cols)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(len(curve.n_photons)):
            fh.write(",".join(f"{cols[c][i]:.17g}" for c in names) + "\n")
