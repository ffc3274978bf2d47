"""Acceptance suite: one test per headline capability, at stated tolerance.

Each test prints a single summary line; together they cover the crossover
arithmetic, the published prefactors, the sensitivity-scaling exponents,
Monte-Carlo recovery of the injected calibration, the detector noise
budget, the instrumental control, the solver invariants and response
linearity, the coefficient-spectrum crossing, and the captioned-pulse
population dynamics.
"""
import math
import time

import numpy as np
import pytest

from conftest import read_csv_columns, read_report
from nlfaraday import analysis as ana
from nlfaraday import cli
from nlfaraday import dynamics as dyn
from nlfaraday import experiment as expmt
from nlfaraday.atom import initial_state
from nlfaraday.geometry import CloudGeometry, PulseSpec
from oracles import damped_rabi_reference, integrate_two_level

A_PUB = 3.3e-8
B_PUB = 3.8e-16
TAU_L = 40e-6
TAU_NL = 54e-9
NSAT_PUB = 6.0e7


def test_criterion_1_crossover_points():
    linear, nonlinear = (A_PUB, TAU_L), (B_PUB, TAU_NL)
    t0 = time.perf_counter()
    for _ in range(100):
        tl = ana.crossover(linear, nonlinear, mode="time-limited")
        nl = ana.crossover(linear, nonlinear, mode="number-limited")
    elapsed = time.perf_counter() - t0
    assert tl.n_star == pytest.approx(3.2e6, rel=0.05)
    assert tl.sensitivity == pytest.approx(1.1e2, rel=0.05)
    assert nl.n_star == pytest.approx(8.7e7, rel=0.05)
    assert nl.sensitivity == pytest.approx(3.2e3, rel=0.05)
    assert elapsed < 0.5  # millisecond-scale arithmetic, 100 repeats
    print(
        f"criterion 1 PASS: N*={tl.n_star:.3g} @ {tl.sensitivity:.3g} spins/rtHz "
        f"(time-limited), N*={nl.n_star:.3g} @ {nl.sensitivity:.3g} spins (number-limited)"
    )


def test_criterion_2_time_normalized_prefactors():
    linear = ana.time_normalized_prefactor(A_PUB, TAU_L)
    nonlinear = ana.time_normalized_prefactor(B_PUB, TAU_NL)
    assert linear == pytest.approx(1.9e5, rel=0.03)
    assert nonlinear == pytest.approx(6.1e11, rel=0.03)
    print(f"criterion 2 PASS: sqrt(tau)/coef = {linear:.4g} and {nonlinear:.4g}")


def test_criterion_3_scaling_exponents(tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(["reproduce-fig3", "--out", str(tmp_path / "fig3")])
    elapsed = time.perf_counter() - t0
    assert rc == cli.EXIT_OK
    report = read_report(tmp_path / "fig3" / "exponent_report.txt")
    ideal, _ = report["exponent_ideal_window"]
    assert -1.55 <= ideal <= -1.45
    wide, wide_err = report["exponent_measured_wide"]
    assert wide < -1.0
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: ideal window exponent {ideal:+.4f}, "
        f"measured wide exponent {wide:+.4f} +- {wide_err:.4f} ({elapsed:.1f} s)"
    )


def test_criterion_4_monte_carlo_recovery():
    grid = np.logspace(6.0, 8.0, 10)
    response = expmt.ResponseModel()
    t0 = time.perf_counter()

    # campaign-level MC: full synthetic campaigns at every grid point
    b_hats, sat_hats = [], []
    for rep in range(20):
        slopes = []
        for j, n_nl in enumerate(grid):
            camp = expmt.generate_correlation_campaign(
                float(n_nl), samples=50, seed=1_000_000 + 100 * rep + j,
            )
            fit = ana.linear_regression(camp.pairs())
            slopes.append((float(n_nl), fit.slope))
        model = ana.fit_saturation(slopes, A_PUB)
        b_hats.append(model.nonlinear_coefficient)
        if math.isfinite(model.saturation_photons):
            sat_hats.append(model.saturation_photons)
    b_hats = np.asarray(b_hats)
    dev = abs(np.mean(b_hats) - B_PUB) / np.std(b_hats, ddof=1)
    assert dev <= 2.0
    assert len(sat_hats) >= 15
    sat_median = float(np.median(sat_hats))
    assert sat_median == pytest.approx(NSAT_PUB, rel=0.15)

    # slope-noise MC: 5% multiplicative noise on the exact slope curve
    rng = np.random.default_rng(42)
    true_slopes = np.array([response.calibration_slope(float(n)) for n in grid])
    sat_trials = []
    for _ in range(200):
        noisy = true_slopes * (1.0 + 0.05 * rng.standard_normal(grid.size))
        model = ana.fit_saturation(np.column_stack([grid, noisy]), A_PUB)
        if math.isfinite(model.saturation_photons):
            sat_trials.append(model.saturation_photons)
    assert len(sat_trials) >= 150
    trial_median = float(np.median(sat_trials))
    assert trial_median == pytest.approx(NSAT_PUB, rel=0.15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 4 PASS: B recovered at {dev:.2f} sigma, campaign N_sat median "
        f"{sat_median:.3g}, slope-noise N_sat median {trial_median:.3g} ({elapsed:.1f} s)"
    )


def test_criterion_5_noise_budget():
    grid = np.logspace(3.0, 8.0, 12)
    n, variances = expmt.polarimeter_noise_scan(grid, samples=2000, seed=11)
    fit = ana.fit_variance_model(np.column_stack([n, variances]))
    assert fit.v_electronic == pytest.approx(4.0e5, rel=0.10)
    # technical term consistent with zero: negligible even at the top of the range
    assert fit.technical_coefficient * (1e8) ** 2 < 0.05 * fit.variance(1e8)
    crossing = fit.crossing_photon_number()
    assert crossing == pytest.approx(4.0e5, rel=0.10)
    print(
        f"criterion 5 PASS: V_el={fit.v_electronic:.4g}, shot={fit.shot_coefficient:.4f}, "
        f"technical={fit.technical_coefficient:.2g}, crossing at N={crossing:.3g}"
    )


def test_criterion_6_instrumental_control(tmp_path):
    rc = cli.main(["control-run", "--seed", "77", "--out", str(tmp_path / "ctl")])
    assert rc == cli.EXIT_OK
    report = read_report(tmp_path / "ctl" / "control_report.txt")
    spread = report["max_angle_deviation_fraction"][0]
    assert spread < 0.05
    exponent, err = report["noise_exponent"]
    assert exponent == pytest.approx(-0.5, abs=0.05)
    print(
        f"criterion 6 PASS: angle constant to {100 * spread:.2f}%, "
        f"intrinsic noise exponent {exponent:+.4f} +- {err:.4f}"
    )


def test_criterion_7_solver_invariants_and_linearity(ops, beam, cloud, far_run, sim_crossing, scheme):
    t0 = time.perf_counter()
    # density-matrix bookkeeping on the full detected run
    assert far_run.max_trace_deviation < 1e-9
    assert far_run.min_eigenvalue > -1e-9

    # independent analytic oracle for the integrator
    omega, gamma = 2 * np.pi * 40e6, scheme.gamma
    times, pops = integrate_two_level(omega, gamma, 300e-9)
    ref = damped_rabi_reference(omega, gamma, times)
    assert np.max(np.abs(pops - ref)) < 1e-6

    # rotation signal linear in atom number (response is per-atom)
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 470e6)
    lo = dyn.detected_stokes(pulse, beam, CloudGeometry(n_atoms=2.5e5), ops)
    hi = dyn.detected_stokes(pulse, beam, CloudGeometry(n_atoms=2.5e6), ops)
    assert hi.rotation == pytest.approx(10.0 * lo.rotation, rel=0.005)

    # far-detuned rotation per atom is intensity-independent across x10
    weak = PulseSpec(fwhm=54e-9, n_photons=1e5, detuning=2 * np.pi * 1.5e9)
    weak_run = dyn.detected_stokes(weak, beam, cloud, ops)
    assert weak_run.rotation_per_atom == pytest.approx(
        far_run.rotation_per_atom, rel=0.01
    )

    # at the linear-response crossing the rotation grows linearly with
    # photon number and passes through the origin
    photons = np.array([1e6, 4e6, 1e7])
    rots = np.array([
        dyn.detected_stokes(
            PulseSpec(fwhm=54e-9, n_photons=float(n), detuning=sim_crossing),
            beam, cloud, ops,
        ).rotation_per_atom
        for n in photons
    ])
    slope, intercept = np.polyfit(photons, rots, 1)
    assert abs(intercept) <= 0.05 * abs(rots[-1])
    assert slope * photons[-1] == pytest.approx(rots[-1] - intercept, rel=0.05)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"criterion 7 PASS: trace/positivity ok, two-level oracle ok, atom linearity ok, "
        f"intensity independence ok, nonlinear proportionality ok ({elapsed:.1f} s)"
    )


def test_criterion_8_coefficient_crossing(scan_dir):
    report = read_report(scan_dir / "crossing_report.txt")
    crossing = report["crossing_mhz"][0]
    assert 440.0 < crossing < 500.0
    beta1 = report["beta1_at_crossing"][0]
    assert abs(beta1) > 1e-18
    print(
        f"criterion 8 PASS: linear response crosses zero at {crossing:.2f} MHz "
        f"with beta1 = {beta1:.3g}"
    )


def test_criterion_9_captioned_pulse_populations(scheme, ops, beam):
    pulse = PulseSpec(fwhm=54e-9, n_photons=5.7e6, detuning=2 * np.pi * 462e6)
    traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops, beam=beam)
    f2 = traj.manifold_population(2)
    assert np.all(np.diff(f2) >= -1e-9)  # F=2 only fills, never drains
    f2_final = float(f2[-1])
    off_sublevels = float(
        traj.sublevel_population(1, 0)[-1] + traj.sublevel_population(1, -1)[-1]
    )
    excited = float(traj.excited_population()[-1])
    assert off_sublevels <= 0.01
    assert excited < 1e-3
    lost = f2_final + off_sublevels + excited
    assert f2_final / lost > 0.9  # decay to F=2 dominates the losses
    assert f2_final == pytest.approx(0.0593, rel=0.02)
    print(
        f"criterion 9 PASS: F=2 grows monotonically to {f2_final:.4f}, "
        f"other F=1 sublevels {off_sublevels:.2g}, excited {excited:.2g}, "
        f"F=2 share of losses {f2_final / lost:.1%}"
    )
