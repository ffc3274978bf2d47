"""Sensitivity scaling from synthetic correlation campaigns.

Generates shot-noise-limited measurement campaigns over a grid of probe
photon numbers, extracts the calibration slope at each point, fits the
saturating nonlinear response, and converts the residual scatter into a
fractional spin sensitivity.  The ideal (unsaturated) curve falls as
N^(-3/2), steeper than both the N^(-1/2) standard quantum limit and the
N^(-1) Heisenberg line for phase estimation.

Run:  python demos/scaling_campaign.py
"""
from dataclasses import replace

import numpy as np

from nlfaraday import (
    ResponseModel,
    fit_saturation,
    generate_correlation_campaign,
    linear_regression,
    scaling_exponent,
    sensitivity_curve,
)

# the published calibration: linear coefficient A (rad per spin), nonlinear
# coefficient B (rad per spin per photon), saturation photon number N_sat
response = ResponseModel()
A = response.linear_coefficient
B = response.nonlinear_coefficient
N_SAT = response.saturation_photons
F_Z = 7e5           # collective spin of the prepared sample

grid = np.logspace(6.0, 8.0, 10)

print("running 10 campaigns of 50 samples each...")
slopes = []
for j, n_nl in enumerate(grid):
    camp = generate_correlation_campaign(float(n_nl), samples=50, seed=500 + j)
    fit = linear_regression(camp.pairs())
    slopes.append((float(n_nl), fit.slope))
    true = response.calibration_slope(float(n_nl))
    print(f"  N = {n_nl:9.3g}: slope {fit.slope:8.5f} +- {fit.slope_stderr:.5f} "
          f"(true {true:.5f})")

model = fit_saturation(slopes, A)
print(f"\nrecovered nonlinear coefficient: {model.nonlinear_coefficient:.3g} "
      f"(injected {B:.3g})")
if model.saturation_photons is not None:
    print(f"recovered saturation photon number: {model.saturation_photons:.3g} "
          f"(injected {N_SAT:.3g})")

# ideal scaling: no saturation, pure nonlinear response at the crossing
at_crossing = replace(response, linear_coefficient=0.0)
ideal = sensitivity_curve(replace(at_crossing, saturation_photons=None), grid, F_Z)
exp_fit = scaling_exponent(ideal, (1e6, 1e7))
print(f"\nideal fractional-sensitivity exponent over [1e6, 1e7]: "
      f"{exp_fit.exponent:+.3f} +- {exp_fit.stderr:.3f}  (super-Heisenberg: -1.5)")

sat_curve = sensitivity_curve(at_crossing, grid, F_Z)
exp_sat = scaling_exponent(sat_curve, (1e6, 1e7))
print(f"with saturation at N_sat = {N_SAT:.1g}:                 "
      f"{exp_sat.exponent:+.3f} +- {exp_sat.stderr:.3f}")

print(f"\n{'N photons':>12} {'ideal dFz/Fz':>14} {'saturated':>12}")
for n, si, ss in zip(grid, ideal.sensitivity, sat_curve.sensitivity):
    print(f"{n:12.3g} {si:14.3e} {ss:12.3e}")
