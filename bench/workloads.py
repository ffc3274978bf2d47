"""The three benchmark workloads: inputs, operations and output checks.

Every run repeats one round of operations drawn from the seed, so the
same seed always gives the same inputs and every run holds whole rounds.
Draws within a round are stratified (one per equal-width stratum), which
keeps the mix of operation costs the same from seed to seed.

Each workload has ``make_round(rng)`` -> inputs, ``run(inp, out)`` (the
timed operation; raises ``OpFailed`` on a non-zero exit code),
``collect(inp, out, result)`` -> a flat dict of the outputs, and
``check(inp, res)`` -> list of problems.  A workload with a property
that spans operations also has ``check_run(pairs)``.  The checks take
plain dicts so tests can feed them perturbed results.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from nlfaraday import cli
from nlfaraday import dynamics as dyn
from nlfaraday.geometry import BeamGeometry, CloudGeometry, PulseSpec

TWO_PI = 2.0 * math.pi

# tolerances named in the workload definitions (see README.md)
TRACE_TOL = 1e-9
EIG_TOL = 1e-9
ORACLE_RTOL = 0.01
ELLIPTICITY_SHARE = 0.02
EXPONENT_TOL = 0.05


class OpFailed(Exception):
    """An operation ended with a non-zero exit code."""


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"nlfaraday {argv[0]} exited with {code}")


def _stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal strata of [lo, hi)."""
    u = (np.arange(count) + rng.random(count)) / count
    return lo + (hi - lo) * u


def _problems_population(res):
    out = []
    total = res["ground_f1"] + res["ground_f2"] + res["excited"]
    if not abs(total - 1.0) <= TRACE_TOL:
        out.append(f"end populations sum to 1{total - 1.0:+.3e}")
    if not res["min_eigenvalue"] >= -EIG_TOL:
        out.append(f"minimum eigenvalue {res['min_eigenvalue']:.3e}")
    return out


class NonlinearProbe:
    """`nlfaraday simulate`: 54 ns Gaussian at 462 MHz, default 9x9 cloud."""

    name = "nonlinear-probe"
    ROUND = 4
    LOG_N = (math.log10(5e5), 8.0)

    def make_round(self, rng):
        return [{"n_photons": float(10.0**x)} for x in _stratified(rng, *self.LOG_N, self.ROUND)]

    def run(self, inp, out):
        _cli([
            "simulate", "--n-photons", repr(inp["n_photons"]),
            "--detuning-mhz", "462", "--out", str(out),
        ])

    def collect(self, inp, out, result):
        with open(Path(out) / "stokes.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        return {k: float(v) for k, v in row.items()}

    def check(self, inp, res):
        out = _problems_population(res)
        if not math.isclose(res["s_y"], res["rotation"] * res["s_x"], rel_tol=1e-12):
            out.append("s_y differs from rotation * s_x")
        if res["s_x"] != inp["n_photons"]:
            out.append("s_x is not the input photon number")
        if not 0.0 <= res["damage_detected"] <= 1.0:
            out.append(f"damage {res['damage_detected']:.4g} outside [0, 1]")
        return out

    def check_run(self, pairs):
        """Saturable nonlinearity: rotation and damage rise with N, the
        rotation per photon does not."""
        by_n = sorted({inp["n_photons"]: res for inp, res in pairs}.items())
        out = []
        for (n0, r0), (n1, r1) in zip(by_n, by_n[1:]):
            if not r1["rotation_per_atom"] > r0["rotation_per_atom"]:
                out.append(f"rotation per atom does not rise from N={n0:.3g} to N={n1:.3g}")
            if not r1["damage_detected"] > r0["damage_detected"]:
                out.append(f"damage does not rise from N={n0:.3g} to N={n1:.3g}")
            if r1["rotation_per_atom"] / n1 > r0["rotation_per_atom"] / n0:
                out.append(f"rotation per photon rises from N={n0:.3g} to N={n1:.3g}")
        return out


class LinearProbe:
    """`dynamics.detected_stokes` on the 1.5 GHz flat-train probe, 3x3 nodes."""

    name = "linear-probe"
    DETUNING = TWO_PI * 1.5e9
    COUNTS = (1, 2, 1, 2)
    LIGHT_NS = (70.0, 80.0)     # total light c * w of one pulse train
    GAP_NS = (50.0, 200.0)
    LOG_N = (6.0, math.log10(4e6))
    NODES = (3, 3)

    def __init__(self, ops):
        self.ops = ops
        self.beam = BeamGeometry(wavelength=ops.scheme.wavelength)
        self.cloud = CloudGeometry()

    def make_round(self, rng):
        k = len(self.COUNTS)
        light = rng.permutation(_stratified(rng, *self.LIGHT_NS, k))
        log_n = rng.permutation(_stratified(rng, *self.LOG_N, k))
        gaps = rng.uniform(*self.GAP_NS, size=k)
        rounds = []
        for c, t, x, g in zip(self.COUNTS, light, log_n, gaps):
            width = t / c * 1e-9
            rounds.append({"pulse": PulseSpec(
                shape="flat-train", fwhm=width, n_photons=float(10.0**x),
                detuning=self.DETUNING, train_count=c, train_period=width + g * 1e-9,
            )})
        return rounds

    def run(self, inp, out):
        return dyn.detected_stokes(
            inp["pulse"], self.beam, self.cloud, self.ops,
            n_radial=self.NODES[0], n_long=self.NODES[1],
        )

    def collect(self, inp, out, res):
        return {
            "rotation_per_atom": res.rotation_per_atom,
            "ellipticity_per_atom": res.ellipticity_per_atom,
            "oracle": float(np.real(dyn.pt_linear_coefficient(
                self.ops, inp["pulse"].detuning, self.beam, self.cloud))),
            "min_eigenvalue": res.min_eigenvalue,
            **res.end_populations,
        }

    def check(self, inp, res):
        out = _problems_population(res)
        rot = res["rotation_per_atom"]
        if not abs(rot / res["oracle"] - 1.0) <= ORACLE_RTOL:
            out.append(f"rotation per atom {rot:.6e} vs operator-sum {res['oracle']:.6e}")
        if not abs(res["ellipticity_per_atom"]) < ELLIPTICITY_SHARE * abs(rot):
            out.append(f"ellipticity {res['ellipticity_per_atom']:.3e} vs rotation {rot:.3e}")
        return out


class CalibrationPipeline:
    """campaign x grid -> analyze -> reproduce-fig2 -> reproduce-fig3 -> control-run."""

    name = "calibration-pipeline"
    ROUND = 4
    SAMPLES = 400
    CONTROLS = 5                  # cli default
    GRID = np.logspace(6.0, 8.0, 12)   # the reproduce-fig2 photon grid
    FIG_POINTS = 12
    B_TRUE, NSAT_TRUE = 3.8e-16, 6.0e7  # cli defaults (published calibration)
    # wide enough for both the diluted (~0.92 B) and a corrected estimate
    B_BAND = (0.6, 1.5)
    NSAT_BAND = (0.5, 2.0)

    def make_round(self, rng):
        return [{"seed": int(s)} for s in rng.integers(0, 2**30, size=self.ROUND)]

    def run(self, inp, out):
        out = Path(out)
        seed = inp["seed"]
        camps = [out / f"campaign{i}" for i in range(len(self.GRID))]
        size = ["--samples", str(self.SAMPLES)]
        figs = size + ["--points", str(self.FIG_POINTS)]
        calls = [
            ["campaign", "--n-nonlinear", repr(float(n)), *size,
             "--seed", str(seed + i), "--out", str(d)]
            for i, (n, d) in enumerate(zip(self.GRID, camps))
        ]
        calls += [
            ["analyze", "--data", *map(str, camps), "--out", str(out / "analyze")],
            ["reproduce-fig2", *figs, "--seed", str(seed + 100), "--out", str(out / "fig2")],
            ["reproduce-fig3", *figs, "--seed", str(seed + 200), "--out", str(out / "fig3")],
            ["control-run", "--seed", str(seed + 300), "--out", str(out / "control")],
        ]
        for argv in calls:
            _cli(argv)

    def collect(self, inp, out, result):
        out = Path(out)
        an = read_report(out / "analyze" / "analysis_report.txt")
        f2 = read_report(out / "fig2" / "fig2_report.txt")
        return {
            "analyze_b": an["nonlinear_coefficient"],
            "analyze_nsat": an["saturation_photons"],
            "fig2_b": f2["nonlinear_coefficient"],
            "fig2_nsat": f2["saturation_photons"],
            "ideal_exponent": read_report(out / "fig3" / "exponent_report.txt")["exponent_ideal_window"],
            "control_exponent": read_report(out / "control" / "control_report.txt")["noise_exponent"],
            "campaigns": [read_campaign_rows(out / f"campaign{i}" / "campaign.csv")
                          for i in range(len(self.GRID))],
        }

    def check(self, inp, res):
        out = []
        for src in ("analyze", "fig2"):
            b = res[f"{src}_b"] / self.B_TRUE
            ns = res[f"{src}_nsat"] / self.NSAT_TRUE
            if not self.B_BAND[0] <= b <= self.B_BAND[1]:
                out.append(f"{src}: recovered B is {b:.3f} x injected")
            if not self.NSAT_BAND[0] <= ns <= self.NSAT_BAND[1]:
                out.append(f"{src}: recovered N_sat is {ns:.3f} x injected")
        if not abs(res["ideal_exponent"] + 1.5) <= EXPONENT_TOL:
            out.append(f"ideal-window exponent {res['ideal_exponent']:.4f}")
        if not abs(res["control_exponent"] + 0.5) <= EXPONENT_TOL:
            out.append(f"control noise exponent {res['control_exponent']:.4f}")
        for i, rows in enumerate(res["campaigns"]):
            out.extend(f"campaign {i}: {p}" for p in check_campaign_rows(rows, self.SAMPLES + self.CONTROLS))
        return out


def read_report(path):
    """``name = value [+- err]`` lines of a fit report -> {name: value}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = float(val.split()[0])
    return out


def read_campaign_rows(path):
    """Campaign CSV rows, parsed with the csv module (not the package reader)."""
    with open(path, newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return [
        {"probe_tag": r["probe_tag"], "s_x": float(r["s_x"]), "s_y": float(r["s_y"]),
         "phi": float(r["phi"]), "sample_index": int(r["sample_index"])}
        for r in csv.DictReader(body)
    ]


def check_campaign_rows(rows, n_samples):
    out = []
    for r in rows:
        ratio = r["s_y"] / r["s_x"]
        if not abs(r["phi"] - ratio) <= 4e-16 * abs(ratio) + 1e-300:
            out.append(f"sample {r['sample_index']} {r['probe_tag']}: phi != s_y/s_x")
    tags = {}
    for r in rows:
        tags.setdefault(r["sample_index"], []).append(r["probe_tag"])
    if len(tags) != n_samples:
        out.append(f"{len(tags)} samples, expected {n_samples}")
    for idx, t in tags.items():
        if sorted(t) != ["L1", "L2", "NL"]:
            out.append(f"sample {idx} has records {t}")
    return out


def make(name, ops):
    if name == NonlinearProbe.name:
        return NonlinearProbe()
    if name == LinearProbe.name:
        return LinearProbe(ops)
    if name == CalibrationPipeline.name:
        return CalibrationPipeline()
    raise ValueError(f"unknown workload {name!r}")
