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
from scipy.optimize import brentq, nnls

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

MIN_FIT_POINTS = 3  # points a saturation fit or an exponent window needs


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
class ResponseModel:
    """Saturable rotation response of the cloud, with probe damage.

    phi_L = (A/2) F_z;  phi_NL = (B_eff(N) N / 2) F_z with
    B_eff = B / (1 + N/N_sat); the nonlinear pulse destroys a fraction
    eta(N) = eta_offset + eta_slope * N / N_sat of the polarization.
    ``saturation_photons=None`` is the unsaturated response: B_eff = B
    and eta = eta_offset at every N.  Defaults reproduce the published
    calibration of this experiment.  The methods take scalars or arrays;
    a float in gives plain float arithmetic, which keeps the per-sample
    path of a campaign cheap.
    """

    linear_coefficient: float = 3.3e-8            # A, rad per unit collective spin (x2)
    nonlinear_coefficient: float = 3.8e-16        # B, rad per spin per photon (x2)
    saturation_photons: float | None = 6.0e7      # N_sat; None = unsaturated
    damage_offset: float = 0.0
    damage_slope: float = 0.08

    def __post_init__(self):
        if self.linear_coefficient < 0 or self.nonlinear_coefficient < 0:
            raise InvalidConfig("response coefficients must be non-negative")
        if self.saturation_photons is not None and self.saturation_photons <= 0:
            raise InvalidConfig("saturation photon number must be positive")
        if self.damage_offset < 0 or self.damage_slope < 0:
            raise InvalidConfig("damage parameters must be non-negative")

    def effective_nonlinear(self, n_photons):
        """B_eff(N): saturable nonlinear coefficient."""
        if self.saturation_photons is None:
            return self.nonlinear_coefficient + 0.0 * n_photons  # B in the shape of N
        return self.nonlinear_coefficient / (1.0 + n_photons / self.saturation_photons)

    def calibration_slope(self, n_photons):
        """b(N) = dphi_NL/dphi_L = B_eff(N) N / A."""
        if self.linear_coefficient == 0:
            raise InvalidConfig("calibration slope undefined for A = 0")
        return self.effective_nonlinear(n_photons) * n_photons / self.linear_coefficient

    def sensitivity_spins(self, n_photons):
        """Shot-noise-limited spin uncertainty of an N-photon probe."""
        n = np.asarray(n_photons, dtype=float)
        denom = self.linear_coefficient * np.sqrt(n) + self.effective_nonlinear(n) * n**1.5
        return 1.0 / denom

    def linear_rotation(self, f_z):
        return 0.5 * self.linear_coefficient * f_z

    def nonlinear_rotation(self, f_z, n_photons):
        return 0.5 * self.effective_nonlinear(n_photons) * n_photons * f_z

    def damage(self, n_photons):
        """eta(N), capped at 1."""
        if self.saturation_photons is None:
            eta = self.damage_offset + 0.0 * n_photons
        else:
            eta = self.damage_offset + self.damage_slope * n_photons / self.saturation_photons
        return np.minimum(eta, 1.0) if isinstance(eta, np.ndarray) else min(eta, 1.0)


@dataclass(frozen=True)
class ScalingCurve:
    """Sensitivity versus photon number with its local log-log slopes."""

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


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    stderr: float
    n_points: int
    window: tuple


def scaling_exponent(curve: ScalingCurve, window=None) -> ExponentFit:
    """Least-squares log-log slope of a sensitivity curve over a window."""
    n, s = curve.n_photons, curve.sensitivity
    if window is not None:
        lo, hi = window
        keep = (n >= lo) & (n <= hi)
        n, s = n[keep], s[keep]
    else:
        lo, hi = (float(n[0]), float(n[-1])) if len(n) else (0.0, 0.0)
    if len(n) < MIN_FIT_POINTS:
        raise InsufficientPoints(f"need >={MIN_FIT_POINTS} points in window, got {len(n)}")
    fit = linear_regression(np.log(n), np.log(s))
    return ExponentFit(fit.slope, fit.slope_stderr, len(n), (float(lo), float(hi)))


def fit_saturation(
    slope_points, linear_coefficient: float, allow_fallback: bool = True
) -> ResponseModel:
    """Fit b(N) = (B/A) N / (1 + N/N_sat) to calibration slopes.

    ``slope_points``: sequence of (N, b) pairs.  The fit is separable
    (variable projection, Golub & Pereyra 1973): for a fixed N_sat the
    least-squares B >= 0 is A (g.b)/(g.g) with g = N / (1 + N/N_sat), so
    only ln N_sat is searched.  A grid over ln N_sat from 10^-4 min N to
    10^4 max N brackets the smallest residual, and the root of its
    derivative there is the estimate.  When the data only sample
    N << N_sat (best N_sat above 50 max N) the saturation scale is
    unidentifiable; by default the fit falls back to the B-only model
    (saturation_photons = None); with ``allow_fallback=False`` that
    condition raises IllConditioned.  The damage law is not fitted: the
    returned model carries the default ``damage_offset`` and
    ``damage_slope``.
    """
    n, b = _as_xy(slope_points)
    if len(n) < MIN_FIT_POINTS:
        raise InsufficientPoints(f"saturation fit needs >={MIN_FIT_POINTS} slope points")
    if np.min(n) <= 0:
        raise InvalidConfig("photon numbers must be positive")
    if len(np.unique(n)) < 3 or np.max(n) / np.min(n) < 10.0:
        raise InvalidConfig("slope points must span >=1 decade with >=3 distinct N")
    a = float(linear_coefficient)
    if a <= 0:
        raise InvalidConfig("linear coefficient must be positive")

    # x = ln(N_sat / n_ref) and u = N / n_ref keep both near 1; by the
    # envelope theorem d(rss)/dx = 2 c e^-x (c g - b).g^2 at the best c
    n_ref = math.sqrt(np.min(n) * np.max(n))
    u = n / n_ref

    def profile(x):
        x = np.asarray(x, dtype=float)
        g = u / (1.0 + u * np.exp(-x)[..., None])
        c = np.maximum(g @ b, 0.0) / np.sum(g * g, axis=-1)
        r = c[..., None] * g - b
        return c, np.sum(r * r, axis=-1), c * np.exp(-x) * np.sum(r * g * g, axis=-1)

    decades = 4.0 * math.log(10.0)
    grid = np.linspace(np.log(np.min(u)) - decades, np.log(np.max(u)) + decades, 81)
    k = int(np.argmin(profile(grid)[1]))
    if k == 0:
        raise NonConvergence(
            "saturation fit failed: best N_sat below 1e-4 min N (slopes do not rise with N)"
        )
    if k == grid.size - 1:
        ns_hat = math.inf
    else:
        x = brentq(lambda x: float(profile(x)[2]), grid[k - 1], grid[k + 1], xtol=1e-14)
        ns_hat = n_ref * math.exp(x)

    if ns_hat > 50.0 * np.max(n):
        # saturation invisible over the sampled range: refit pure slope
        if not allow_fallback:
            raise IllConditioned("all N << N_sat; saturation scale unidentifiable")
        log.info("saturation scale unidentifiable (N_sat >> max N); B-only fallback")
        b_only = float(np.sum(b * n) / np.sum(n * n / a))
        return ResponseModel(a, b_only, None)
    return ResponseModel(a, a * float(profile(x)[0]) / n_ref, ns_hat)


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


def sensitivity_curve(model: ResponseModel, n_photons, collective_spin: float = 7e5) -> ScalingCurve:
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

