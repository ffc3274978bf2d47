"""Every output check of the benchmark must reject a perturbed result.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from nlfaraday.atom import build_dipole_operators, build_level_scheme  # noqa: E402


def perturbed(base, **changes):
    return {**base, **changes}


# ---- nonlinear-probe -------------------------------------------------------

NL_INP = {"n_photons": 5.7e6}
NL_RES = {
    "s_x": 5.7e6, "rotation": 8.49e-4, "s_y": 8.49e-4 * 5.7e6,
    "rotation_per_atom": 3.396e-9, "damage_detected": 0.0377,
    "ground_f1": 0.75, "ground_f2": 0.25, "excited": 0.0, "min_eigenvalue": -2e-10,
}


def test_nonlinear_check_accepts_a_good_pulse():
    assert wl.NonlinearProbe().check(NL_INP, NL_RES) == []


@pytest.mark.parametrize("changes", [
    {"ground_f1": 0.75 + 1e-6},                    # trace off by 1e-6
    {"excited": -1e-6},
    {"min_eigenvalue": -1e-6},                     # positivity
    {"s_y": 8.49e-4 * 5.7e6 * (1 + 1e-9)},         # s_y != rotation * s_x
    {"s_x": 5.7e6 * (1 + 1e-12)},                  # not the requested pulse
    {"damage_detected": 1.2},
    {"damage_detected": -0.01},
    {"damage_detected": math.nan},
])
def test_nonlinear_check_rejects(changes):
    assert wl.NonlinearProbe().check(NL_INP, perturbed(NL_RES, **changes))


def _nl_run(rotations, damages):
    ns = (5e5, 5.7e6, 1e8)
    return [({"n_photons": n}, {"rotation_per_atom": r, "damage_detected": d})
            for n, r, d in zip(ns, rotations, damages)]


GOOD_ROT = (4.39e-10, 3.40e-9, 1.40e-8)
GOOD_DMG = (0.0036, 0.038, 0.32)


def test_nonlinear_run_check_accepts_saturable_response():
    pairs = _nl_run(GOOD_ROT, GOOD_DMG)
    assert wl.NonlinearProbe().check_run(pairs + pairs) == []  # repeated rounds


@pytest.mark.parametrize("rot,dmg", [
    ((4.39e-10, 1.40e-8, 3.40e-9), GOOD_DMG),       # rotation falls with N
    (GOOD_ROT, (0.0036, 0.38, 0.32)),               # damage falls with N
    ((4.39e-10, 3.40e-9, 4.0e-7), GOOD_DMG),        # rotation per photon rises
])
def test_nonlinear_run_check_rejects(rot, dmg):
    assert wl.NonlinearProbe().check_run(_nl_run(rot, dmg))


# ---- linear-probe ----------------------------------------------------------

LIN_RES = {
    "rotation_per_atom": 2.1625e-8, "ellipticity_per_atom": -4.8e-11, "oracle": 2.16478e-8,
    "ground_f1": 0.99, "ground_f2": 0.01, "excited": 0.0, "min_eigenvalue": -2e-10,
}


@pytest.fixture(scope="module")
def linear():
    return wl.LinearProbe(build_dipole_operators(build_level_scheme()))


def test_linear_check_accepts_a_good_pulse(linear):
    assert linear.check({}, LIN_RES) == []


@pytest.mark.parametrize("changes", [
    {"rotation_per_atom": 2.16478e-8 * 1.02},       # 2 % off the oracle
    {"rotation_per_atom": 2.16478e-8 * 0.98},
    {"rotation_per_atom": -2.1625e-8},
    {"ellipticity_per_atom": 0.021 * 2.1625e-8},    # ellipticity above 2 %
    {"ground_f2": 0.01 + 1e-6},                     # trace off by 1e-6
    {"min_eigenvalue": -1e-6},
])
def test_linear_check_rejects(linear, changes):
    assert linear.check({}, perturbed(LIN_RES, **changes))


def test_linear_inputs_follow_the_seed(linear):
    a = linear.make_round(np.random.default_rng(3))
    b = linear.make_round(np.random.default_rng(3))
    c = linear.make_round(np.random.default_rng(4))
    assert a == b and a != c
    lo, hi = wl.LinearProbe.LIGHT_NS
    width = (hi - lo) / len(a)
    light = sorted(i["pulse"].fwhm * i["pulse"].train_count * 1e9 for i in a)
    for k, t in enumerate(light):  # one total light time in each stratum
        assert lo + k * width - 1e-6 <= t <= lo + (k + 1) * width + 1e-6
    assert [i["pulse"].train_count for i in a] == list(wl.LinearProbe.COUNTS)


# ---- calibration-pipeline --------------------------------------------------

def _rows(n_samples):
    rows = []
    for i in range(n_samples):
        for tag, phi in (("L1", 4.1e-3), ("NL", 1.3e-3 * (1 + i)), ("L2", 3.9e-3)):
            rows.append({"probe_tag": tag, "s_x": 4e6, "s_y": phi * 4e6, "phi": phi, "sample_index": i})
    return rows


N_SAMPLES = wl.CalibrationPipeline.SAMPLES + wl.CalibrationPipeline.CONTROLS
CAL_RES = {
    "analyze_b": 0.92 * 3.8e-16, "analyze_nsat": 6.3e7,
    "fig2_b": 3.7e-16, "fig2_nsat": 5.8e7,
    "ideal_exponent": -1.5, "control_exponent": -0.497,
    "campaigns": [_rows(N_SAMPLES)],
}


def test_calibration_check_accepts_a_good_study():
    assert wl.CalibrationPipeline().check({}, CAL_RES) == []
    corrected = perturbed(CAL_RES, analyze_b=3.8e-16)  # once the dilution is fixed
    assert wl.CalibrationPipeline().check({}, corrected) == []


@pytest.mark.parametrize("changes", [
    {"analyze_b": 0.5 * 3.8e-16},
    {"fig2_b": 1.6 * 3.8e-16},
    {"analyze_nsat": 0.4 * 6e7},
    {"fig2_nsat": math.nan},
    {"ideal_exponent": -1.44},
    {"control_exponent": -0.44},
    {"control_exponent": -0.56},
])
def test_calibration_check_rejects(changes):
    assert wl.CalibrationPipeline().check({}, perturbed(CAL_RES, **changes))


def test_campaign_rows_check_rejects_phi_off_s_y_over_s_x():
    rows = _rows(N_SAMPLES)
    rows[7] = {**rows[7], "phi": rows[7]["phi"] * (1 + 1e-12)}
    assert wl.check_campaign_rows(rows, N_SAMPLES)


def test_campaign_rows_check_rejects_missing_or_extra_records():
    rows = _rows(N_SAMPLES)
    assert wl.check_campaign_rows(rows[:-1], N_SAMPLES)                  # sample with 2 records
    assert wl.check_campaign_rows(rows + rows[:1], N_SAMPLES)            # sample with 4 records
    assert wl.check_campaign_rows(rows[:-3], N_SAMPLES)                  # sample missing


# ---- BENCHMARK.json agrees with what the benchmark prints ------------------

def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", **{k: worker.UNITS[k] for k in ("op_s.p50", "ops_per_s", "peak_rss_mb")}}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.LAYER_UNITS
