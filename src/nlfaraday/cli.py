"""Command-line entry point: simulations, campaigns, fits, figure tables.

``main`` runs each subcommand of ``_COMMANDS`` in one frame: it resolves
the configuration (defaults < config file < flags), checks each number
against the range declared where its key is used (``_check_numbers``),
and stages the run in a fresh directory in the nearest existing ancestor
of ``--out``, the only thing it creates before it publishes:
``manifest.txt`` (full resolved config, re-parseable), ``run.log`` and
the CSV/report files of the handler ``cmd_*(args, cfg, out)``, which only
computes and writes them (each CSV one ``config.write_table`` call).  It
then publishes the staged files to ``--out``, making its missing parents,
and prints ``outputs in <dir>`` last.  A subcommand declares only the
flags it reads, and each flag's argparse ``dest`` is the config key it
sets.  Exit codes: 0 success, 2 for configuration problems (an unknown
flag, a value that a range or a model check refuses, an ``--out`` that
cannot take the outputs), which leave no output, 3 for numerical failures
(among them a solve past the integrator's step budget and a non-finite
output number), which publish what was written.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as ana
from . import dynamics as dyn
from . import experiment as expmt
from .atom import build_dipole_operators, build_level_scheme, initial_state
from .config import MAX_COUNT, Range, field_ranges, load_config, write_manifest, write_table
from .exceptions import DataIntegrityError, InvalidConfig, NlfaradayError
from .geometry import BeamGeometry, CloudGeometry, PulseSpec

# named, not __name__: under ``python -m nlfaraday.cli`` that is "__main__",
# outside the "nlfaraday" logger whose handler writes run.log
log = logging.getLogger("nlfaraday.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_TWO_PI = 2.0 * math.pi

# config keys each model class is built from: its field names, but for
# the pulse's (config key -> PulseSpec field)
_PULSE_FIELDS = {
    "pulse_shape": "shape", "pulse_fwhm": "fwhm", "n_photons": "n_photons", "detuning": "detuning",
    "train_count": "train_count", "train_period": "train_period",
}
_BEAM_KEYS = ("waist",)
_CLOUD_KEYS = ("n_atoms", "sigma_trans", "sigma_long")
_RESPONSE_KEYS = (
    "linear_coefficient", "nonlinear_coefficient", "saturation_photons",
    "damage_offset", "damage_slope",
)
_NOISE_KEYS = ("v_linear", "v_nonlinear", "technical_coefficient")


def _pick(values: dict, keys) -> dict:
    return {key: values[key] for key in keys}


def _class_defaults(cls, keys) -> dict:
    return _pick({f.name: f.default for f in dataclasses.fields(cls)}, keys)


DEFAULTS = {
    # probe and geometry
    "detuning": _TWO_PI * 462e6,
    "pulse_shape": "gaussian",
    "pulse_fwhm": 54e-9,
    "n_photons": 5.7e6,
    "train_count": 1,
    "train_period": 0.0,
    **_class_defaults(BeamGeometry, _BEAM_KEYS),
    **_class_defaults(CloudGeometry, _CLOUD_KEYS),
    # campaign and sequence
    "n_linear": 4e6,
    "n_nonlinear": 1e7,
    "samples": 50,
    "controls": 5,
    "atom_lo": 1.5e5,
    "atom_hi": 3.5e5,
    # effective response (published calibration) and polarimeter
    **_class_defaults(ana.ResponseModel, _RESPONSE_KEYS),
    "collective_spin": 7e5,
    **_class_defaults(expmt.PolarimeterModel, _NOISE_KEYS),
    # controls and scans
    "rotation": 4e-3,
    "scan_lo": _TWO_PI * 430e6,
    "scan_hi": _TWO_PI * 476e6,
    "scan_points": 13,
    "grid_points": 12,
    "seed": 12345,
}
# keys a manifest carries besides DEFAULTS, so a manifest is a valid --config
_MANIFEST_KEYS = ("ideal", "no_saturation", "package_version")
_INT_KEYS = frozenset(key for key, value in DEFAULTS.items() if isinstance(value, int))
_PULSE_RANGES = field_ranges(PulseSpec)
# config key -> the range declared beside the field or argument it sets;
# pulse_shape and rotation (waveplate_control_run checks it) have none
_RANGES = {
    **{key: _PULSE_RANGES[name] for key, name in _PULSE_FIELDS.items() if name in _PULSE_RANGES},
    **{key: admissible for cls in (BeamGeometry, CloudGeometry, ana.ResponseModel, expmt.PolarimeterModel)
       for key, admissible in field_ranges(cls).items() if key in DEFAULTS},
    **expmt.CAMPAIGN_RANGES,
    **ana.FIT_RANGES,  # every fit divides by A, which a response model admits at 0
    **ana.CURVE_RANGES,
    **dict.fromkeys(("scan_lo", "scan_hi"), _PULSE_RANGES["detuning"]),  # each becomes a pulse's
    "scan_points": Range(0, MAX_COUNT, "a count is non-negative"),
    "grid_points": Range(ana.MIN_FIT_POINTS, MAX_COUNT, f"a saturation fit needs {ana.MIN_FIT_POINTS} points"),
    "seed": Range(0, math.inf, "a seed is a non-negative integer"),
}


def _mhz(text: str) -> float:
    """Ordinary MHz to the angular rad/s of ``detuning``."""
    return _TWO_PI * 1e6 * float(text)


def _mrad(text: str) -> float:
    return 1e-3 * float(text)


@functools.cache  # one parser per process, so it must read no mutable state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlfaraday",
        description="Nonlinear Faraday-rotation simulation and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = {}
    for name, (_, help_text) in _COMMANDS.items():
        sub[name] = subs.add_parser(name, help=help_text)
        sub[name].add_argument("--config", type=Path, help="key=value scenario file")
        sub[name].add_argument("--seed", type=int, help="master RNG seed")
        sub[name].add_argument("--out", type=Path, help="output directory")
    # every other flag is declared where it is read; a flag whose dest is
    # a DEFAULTS key overrides that key
    for name in ("campaign", "reproduce-fig2", "reproduce-fig3"):
        sub[name].add_argument("--no-saturation", action="store_true", help="disable nonlinear-response saturation")
        sub[name].add_argument("--samples", type=int, help="atom-number samples per campaign")
    for name in ("reproduce-fig2", "reproduce-fig3"):
        sub[name].add_argument("--points", dest="grid_points", type=int, help="photon-number grid points")
    sub["simulate"].add_argument("--detuning-mhz", dest="detuning", type=_mhz, help="probe detuning from the lowest excited line (MHz)")
    sub["simulate"].add_argument("--n-photons", type=float)
    sub["simulate"].add_argument("--dump-trajectory", action="store_true", help="write on-axis populations over time")
    sub["reproduce-fig3"].add_argument("--ideal", action="store_true", help="unsaturated model curves only, no campaigns")
    sub["campaign"].add_argument("--n-nonlinear", type=float)
    sub["analyze"].add_argument("--data", type=Path, nargs="+", required=True, help="campaign CSV files or directories")
    sub["control-run"].add_argument("--rotation-mrad", dest="rotation", type=_mrad)
    sub["coefficients-scan"].add_argument("--scan-points", type=int)
    return parser


def _checked_file_config(path) -> dict:
    """Load a --config file; reject unknown keys and ill-typed values."""
    loaded = load_config(path)
    for key, value in loaded.items():
        if key not in DEFAULTS and key not in _MANIFEST_KEYS:
            raise InvalidConfig(f"{path}: unknown key {key!r}")
        if key == "package_version" or isinstance(DEFAULTS.get(key), str):
            continue
        if not isinstance(value, (int, float)):
            raise InvalidConfig(f"{path}: {key} = {value!r} is not a number")
        if key in _INT_KEYS:
            if not float(value).is_integer():
                raise InvalidConfig(f"{path}: {key} = {value!r} is not an integer")
            loaded[key] = int(value)
    loaded.pop("package_version", None)
    return loaded


def _resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    from_file = {} if args.config is None else _checked_file_config(args.config)
    cfg.update(from_file)
    # mode flags are set on the command line; a config file (a manifest)
    # may only repeat them.  A subcommand without the flag keeps no such
    # key, and accepts only 0 for it from a file
    for key in ("ideal", "no_saturation"):
        if hasattr(args, key):
            flag = int(getattr(args, key))
            if cfg.get(key, flag) != flag:
                raise InvalidConfig(
                    f"{args.config}: {key} = {cfg[key]} does not match the "
                    f"--{key.replace('_', '-')} flag"
                )
            cfg[key] = flag
        elif (value := cfg.pop(key, 0)) != 0:
            raise InvalidConfig(f"{args.config}: {key} = {value} is not read by {args.command}")
    flags = {k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None}
    cfg.update(flags)
    _check_numbers(args, cfg, set(from_file) - set(flags))
    return cfg


# reproduce-fig3's photon-number windows of the exponent fits: one
# decade, and the measured curve's wide one
_FIG3_WINDOW, _FIG3_WIDE = (1e6, 1e7), (5e5, 5e7)


def _fig2_grid(cfg: dict) -> np.ndarray:
    """reproduce-fig2's photon numbers, from 1e6 to 1e8."""
    return np.logspace(6.0, 8.0, cfg["grid_points"])


def _fig3_grid(cfg: dict) -> np.ndarray:
    """reproduce-fig3's photon numbers, from 5e5 to 1e8."""
    return np.logspace(math.log10(5e5), 8.0, cfg["grid_points"])


_FIG3_CURVE_B = Range(1e-150, 1e150, "reproduce-fig3's model curves, where A = 0, divide by B")


def _check_numbers(args, cfg: dict, file_keys: set) -> None:
    """The checks whose message names a config key and its file: each
    number finite and in its ``_RANGES`` entry (a count only where read),
    and reproduce-fig3's curve coefficient and grid window."""
    def where(key):
        return f"{args.config}: " if key in file_keys else ""

    unread = {key for key in ("grid_points", "scan_points") if not hasattr(args, key)}
    if not hasattr(args, "samples") or cfg.get("ideal"):
        unread |= {"samples", "controls"}
    for key, value in cfg.items():
        # every number is finite: an unsaturated model is --no-saturation
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{where(key)}{key} = {value} is not a finite number")
        if key in _RANGES and key not in unread:
            _RANGES[key].check(key, value, where(key))
    if args.command == "reproduce-fig3":
        _FIG3_CURVE_B.check("nonlinear_coefficient", cfg["nonlinear_coefficient"], where("nonlinear_coefficient"))
        lo, hi = _FIG3_WINDOW
        grid = _fig3_grid(cfg)
        inside = int(np.count_nonzero((grid >= lo) & (grid <= hi)))
        if inside < ana.MIN_FIT_POINTS:
            raise InvalidConfig(
                f"grid_points = {cfg['grid_points']} puts {inside} photon numbers in the exponent "
                f"window [{lo:g}, {hi:g}]; its fit needs {ana.MIN_FIT_POINTS}"
            )


def _stage(args, cfg: dict, out: Path) -> Path:
    """A fresh directory with this run's run.log and manifest.txt, to publish or delete.

    It is made in the nearest existing ancestor of ``out``: its parent, when that exists.
    """
    try:
        if out.exists() and not out.is_dir():
            raise NotADirectoryError("it is not a directory")
        # out.parents ends at "/" or ".", which exist
        home = next(p for p in (out.parent, *out.parents) if p.exists())
        # a plain mkdir, so the published directory has the usual permissions
        stage = home / f".{out.name}.{os.getpid()}-{os.urandom(4).hex()}.stage"
        stage.mkdir()
    except OSError as exc:
        raise InvalidConfig(f"cannot write outputs to {out}: {exc}") from exc
    handler = logging.FileHandler(stage / "run.log", mode="w")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("nlfaraday")
    root.setLevel(logging.INFO)
    root.addHandler(handler)
    write_manifest(stage / "manifest.txt", cfg, __version__, command=args.command)
    log.info("%s -> %s", args.command, out)
    return stage


def _response_from(cfg: dict) -> ana.ResponseModel:
    fields = _pick(cfg, _RESPONSE_KEYS)
    if cfg.get("no_saturation") or cfg.get("ideal"):
        fields["saturation_photons"] = math.inf
    return ana.ResponseModel(**fields)


def _noise_from(cfg: dict) -> expmt.PolarimeterModel:
    return expmt.PolarimeterModel(**_pick(cfg, _NOISE_KEYS))


@functools.cache  # one operator set per process; no caller mutates it
def _operator_set():
    return build_dipole_operators(build_level_scheme())


def _atomic_model():
    """The operator set; logs its line data's file and sha256 to this run's log."""
    ops = _operator_set()
    log.info("atomic data %s sha256=%s", ops.scheme.line.source, ops.scheme.line.sha256)
    return ops


def _geometry(cfg: dict, ops):
    beam = BeamGeometry(ops.scheme.wavelength, **_pick(cfg, _BEAM_KEYS))
    return beam, CloudGeometry(**_pick(cfg, _CLOUD_KEYS))


def _campaign(cfg: dict, n_nonlinear: float, seed: int):
    """One correlation campaign at ``n_nonlinear`` and its phi_NL-on-phi_L fit."""
    camp = expmt.generate_correlation_campaign(
        n_nonlinear,
        atom_range=(cfg["atom_lo"], cfg["atom_hi"]),
        samples=cfg["samples"],
        noise=_noise_from(cfg),
        seed=seed,
        response=_response_from(cfg),
        n_linear=cfg["n_linear"],
        controls=cfg["controls"],
    )
    return camp, ana.linear_regression(camp.pairs())


def _fit_columns(fits) -> dict:
    """Slope-table columns of a sequence of phi_NL-on-phi_L fits."""
    fits = list(fits)
    return {
        name: np.array([getattr(fit, name) for fit in fits])
        for name in ("slope", "slope_stderr", "intercept", "residual_std")
    }


def _campaign_grid(cfg: dict, grid) -> dict:
    """Fit columns of one campaign per photon number, seeded seed, seed + 1, ..."""
    return _fit_columns(_campaign(cfg, float(n), cfg["seed"] + i)[1] for i, n in enumerate(grid))


def _fitted_coefficients(model: ana.ResponseModel) -> dict:
    """Report entries of a saturation fit; an unidentified N_sat is nan."""
    sat = model.saturation_photons
    return {
        "nonlinear_coefficient": model.nonlinear_coefficient,
        "saturation_photons": math.nan if math.isinf(sat) else sat,
    }


def cmd_simulate(args, cfg: dict, out: Path) -> None:
    ops = _atomic_model()
    pulse = PulseSpec(**{name: cfg[key] for key, name in _PULSE_FIELDS.items()})
    beam, cloud = _geometry(cfg, ops)
    res = dyn.detected_stokes(pulse, beam, cloud, ops)
    log.info("integrated %d intensity levels for %d cloud nodes", res.levels, res.grid.r.size)
    stokes = {
        "n_photons": pulse.n_photons, "detuning_mhz": pulse.detuning / _TWO_PI / 1e6,
        "n_atoms": cloud.n_atoms, "s_x": res.s_x, "s_y": res.s_y, "rotation": res.rotation,
        "ellipticity": res.ellipticity, "rotation_per_atom": res.rotation_per_atom,
        "damage_mean": res.damage_mean, "damage_detected": res.damage_detected,
        **{key: res.end_populations[key] for key in ("ground_f1", "ground_f2", "excited")},
        "max_trace_deviation": res.max_trace_deviation, "min_eigenvalue": res.min_eigenvalue,
    }
    write_table(out / "stokes.csv", {name: [value] for name, value in stokes.items()})
    if args.dump_trajectory:
        traj = dyn.integrate_node(
            initial_state(ops.scheme, 1, 1), pulse, 1.0, ops, beam=beam,
        )
        write_table(out / "populations.csv", {
            "time": traj.times, "rabi": np.real(traj.field),
            "ground_f1": traj.manifold_population(1), "ground_f2": traj.manifold_population(2),
            "excited": traj.excited_population(), "m_plus1": traj.sublevel_population(1, 1),
            "m_0": traj.sublevel_population(1, 0), "m_minus1": traj.sublevel_population(1, -1),
        })
    print(f"rotation = {res.rotation:.6e} rad  (per atom {res.rotation_per_atom:.6e})")
    print(f"S_y/S_x = {res.s_y / res.s_x:.6e}, damage = {res.damage_detected:.4e}")


def cmd_campaign(args, cfg: dict, out: Path) -> None:
    camp, fit = _campaign(cfg, cfg["n_nonlinear"], cfg["seed"])
    expmt.write_campaign_csv(out / "campaign.csv", camp)
    ana.write_fit_report(
        out / "regression.txt",
        {
            "n_nonlinear": camp.n_nonlinear,
            "slope": (fit.slope, fit.slope_stderr),
            "intercept": (fit.intercept, fit.intercept_stderr),
            "residual_std": fit.residual_std,
            "n_points": fit.n_points,
        },
        header="calibration regression phi_NL vs phi_L",
    )
    print(f"slope = {fit.slope:.6g} +- {fit.slope_stderr:.2g}")


def _campaign_files(paths) -> list:
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.glob("*.csv")))
        else:
            files.append(p)
    if not files:
        raise InvalidConfig("no campaign CSV files found")
    return files


def cmd_analyze(args, cfg: dict, out: Path) -> None:
    n_nonlinear, fits, n_pairs = [], [], []
    for path in _campaign_files(args.data):
        readings, meta = expmt.read_campaign_csv(path)
        l1 = readings[readings["probe_tag"] == "L1"]
        nl = readings[readings["probe_tag"] == "NL"]
        # the reader rejects repeated (sample_index, probe_tag) rows
        _, i, j = np.intersect1d(
            l1["sample_index"], nl["sample_index"], assume_unique=True, return_indices=True
        )
        live = l1["n_atoms"][i] > 0
        pairs = np.column_stack([l1["phi"][i][live], nl["phi"][j][live]])
        if not len(pairs):
            raise InvalidConfig(f"{path}: no live L1/NL pair (a sample with atoms and both readings)")
        n_nonlinear.append(float(meta["n_nonlinear"]))
        fits.append(ana.linear_regression(pairs))
        n_pairs.append(len(pairs))
    order = np.argsort(n_nonlinear, kind="stable")
    slopes = {
        "n_nonlinear": np.array(n_nonlinear)[order],
        **_fit_columns(fits[i] for i in order),
        "n_pairs": np.array(n_pairs)[order],
    }
    write_table(out / "slopes.csv", slopes)
    report = {"n_campaigns": len(fits)}
    if len(fits) >= 3:
        model = ana.fit_saturation(
            np.column_stack([slopes["n_nonlinear"], slopes["slope"]]), cfg["linear_coefficient"]
        )
        report.update(_fitted_coefficients(model))
    ana.write_fit_report(out / "analysis_report.txt", report, header="campaign analysis")
    print(f"analyzed {len(fits)} campaign file(s)")


def cmd_fig2(args, cfg: dict, out: Path) -> None:
    response = _response_from(cfg)
    grid = _fig2_grid(cfg)
    fits = _campaign_grid(cfg, grid)
    write_table(out / "fig2_slopes.csv", {
        "n_nonlinear": grid, **fits,
        "slope_true": response.calibration_slope(grid), "damage_true": response.damage(grid),
    })
    model = ana.fit_saturation(np.column_stack([grid, fits["slope"]]), cfg["linear_coefficient"])
    injected_sat = response.saturation_photons
    ana.write_fit_report(
        out / "fig2_report.txt",
        {
            **_fitted_coefficients(model),
            "injected_nonlinear_coefficient": cfg["nonlinear_coefficient"],
            "injected_saturation_photons": injected_sat,
        },
        header="saturation fit of calibration slopes",
    )
    ns_txt = "unconstrained" if math.isinf(model.saturation_photons) else f"{model.saturation_photons:.4g}"
    print(
        f"B = {model.nonlinear_coefficient:.4g} (injected {cfg['nonlinear_coefficient']:.4g}), "
        f"N_sat = {ns_txt} (injected {injected_sat:.4g})"
    )


def cmd_fig3(args, cfg: dict, out: Path) -> None:
    n_grid = _fig3_grid(cfg)
    f_z = cfg["collective_spin"]
    a = cfg["linear_coefficient"]

    # model curves: the working detuning has no linear response, so the
    # ideal law is pure N^(-3/2); the saturated variant bends above N_sat
    response = _response_from(cfg)
    curve_model = dataclasses.replace(response, linear_coefficient=0.0)
    ideal_model = dataclasses.replace(curve_model, saturation_photons=math.inf)
    ideal_curve = ana.sensitivity_curve(ideal_model, n_grid, f_z)
    model_curve = ana.sensitivity_curve(curve_model, n_grid, f_z)

    if cfg["ideal"]:
        measured = model_curve.sensitivity
    else:
        fits = _campaign_grid(cfg, n_grid)
        # one call per point: run.log keeps one clipping line per clipped point
        intrinsic = np.array([
            float(ana.subtract_electronic_noise(std, float(n_nl), cfg["v_nonlinear"]))
            for std, n_nl in zip(fits["residual_std"], n_grid)
        ])
        # calibrate the per-spin response once from the pooled saturation
        # fit; per-point slopes are far too noisy below ~10^6 photons
        fitted = ana.fit_saturation(np.column_stack([n_grid, fits["slope"]]), a)
        measured = intrinsic / (0.5 * a * fitted.calibration_slope(n_grid)) / f_z

    anchor = model_curve.sensitivity[0]
    n0 = n_grid[0]
    sql_line = anchor * (n_grid / n0) ** -0.5
    hl_line = anchor * (n_grid / n0) ** -1.0
    sh_line = anchor * (n_grid / n0) ** -1.5
    damage = response.damage(n_grid)

    write_table(out / "fig3_scaling.csv", {
        "n_nonlinear": n_grid, "fractional_sensitivity": measured, "damage": damage,
        "model_sensitivity": model_curve.sensitivity, "ideal_sensitivity": ideal_curve.sensitivity,
        "sql_line": sql_line, "hl_line": hl_line, "sh_line": sh_line,
    })

    report = {}
    exp_ideal = ana.scaling_exponent(ideal_curve, _FIG3_WINDOW)
    report["exponent_ideal_window"] = (exp_ideal.exponent, exp_ideal.stderr)
    exp_ideal_full = ana.scaling_exponent(ideal_curve)
    report["exponent_ideal_full"] = (exp_ideal_full.exponent, exp_ideal_full.stderr)
    if not cfg["ideal"]:
        # noise subtraction can clip a low-N point to zero; such points
        # carry no scaling information, so leave them out of the fit
        ok = measured > 0
        meas_curve = ana.ScalingCurve(n_grid[ok], measured[ok])
        exp_win = ana.scaling_exponent(meas_curve, _FIG3_WINDOW)
        exp_wide = ana.scaling_exponent(meas_curve, _FIG3_WIDE)
        report["exponent_measured_window"] = (exp_win.exponent, exp_win.stderr)
        report["exponent_measured_wide"] = (exp_wide.exponent, exp_wide.stderr)
    ana.write_fit_report(out / "exponent_report.txt", report, header="scaling exponents")

    for key, val in report.items():
        print(f"{key} = {val[0]:+.4f} +- {val[1]:.4f}")


def cmd_control(args, cfg: dict, out: Path) -> None:
    noise = _noise_from(cfg)
    curve = expmt.waveplate_control_run(
        rotation=cfg["rotation"],
        noise=noise,
        seed=cfg["seed"],
    )
    means = curve.meta["mean_angle"]
    # same intrinsic-noise correction as the atomic analysis: remove the
    # electronic floor, then the remaining scatter must be pure shot noise
    intrinsic = ana.subtract_electronic_noise(
        curve.sensitivity * abs(cfg["rotation"]), curve.n_photons, noise.v_nonlinear
    ) / abs(cfg["rotation"])
    write_table(out / "control.csv", {
        "n_photons": curve.n_photons, "mean_angle": means,
        "fractional_sensitivity": curve.sensitivity, "intrinsic_sensitivity": intrinsic,
    })
    ok = intrinsic > 0
    exp = ana.scaling_exponent(ana.ScalingCurve(curve.n_photons[ok], intrinsic[ok]))
    spread = float(np.max(np.abs(means - cfg["rotation"])) / abs(cfg["rotation"]))
    ana.write_fit_report(
        out / "control_report.txt",
        {
            "rotation": cfg["rotation"],
            "max_angle_deviation_fraction": spread,
            "noise_exponent": (exp.exponent, exp.stderr),
        },
        header="waveplate instrumental-linearity control",
    )
    print(f"angle deviation {spread * 100:.2f}%, exponent {exp.exponent:+.3f} +- {exp.stderr:.3f}")


def cmd_scan(args, cfg: dict, out: Path) -> None:
    ops = _atomic_model()
    beam, cloud = _geometry(cfg, ops)
    detunings = np.append(
        np.linspace(cfg["scan_lo"], cfg["scan_hi"], cfg["scan_points"]),
        _TWO_PI * 1.5e9,  # the far-detuned linear-probe marker
    )
    coeffs = [dyn.extract_effective_coefficients(ops, float(d), beam=beam, cloud=cloud) for d in detunings]
    alpha1 = np.array([c.alpha1 for c in coeffs])
    beta1 = np.array([c.beta1 for c in coeffs])
    write_table(out / "coefficients.csv", {
        "detuning_mhz": detunings / _TWO_PI / 1e6, "alpha1": alpha1, "beta1": beta1,
        "alpha1_sign": np.where(alpha1 >= 0, "+", "-"), "beta1_sign": np.where(beta1 >= 0, "+", "-"),
    })
    crossing = dyn.locate_crossing(ops, beam, cloud, lo=cfg["scan_lo"], hi=cfg["scan_hi"])
    beta_at = dyn.extract_effective_coefficients(ops, crossing, beam=beam, cloud=cloud)
    ana.write_fit_report(
        out / "crossing_report.txt",
        {
            "crossing_mhz": crossing / _TWO_PI / 1e6,
            "alpha1_at_crossing": beta_at.alpha1,
            "beta1_at_crossing": beta_at.beta1,
        },
        header="vector-coefficient zero crossing",
    )
    print(f"alpha1 zero crossing at {crossing / _TWO_PI / 1e6:.2f} MHz")


# each subcommand once: its handler and its help line
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate one probe pulse through the cloud and report Stokes observables"),
    "campaign": (cmd_campaign, "generate one correlation campaign at fixed nonlinear photon number"),
    "analyze": (cmd_analyze, "regression and saturation analysis of campaign CSV files"),
    "reproduce-fig2": (cmd_fig2, "calibration-slope campaigns over a photon-number grid plus saturation fit"),
    "reproduce-fig3": (cmd_fig3, "sensitivity-scaling table with reference lines and exponent report"),
    "control-run": (cmd_control, "waveplate instrumental-linearity control dataset"),
    "coefficients-scan": (cmd_scan, "effective-coefficient spectra over a detuning grid"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the run's run.log handler and log level are undone on return, so
    # later library calls in the same process do not write into it
    root = logging.getLogger("nlfaraday")
    handlers, level = list(root.handlers), root.level
    stage = code = None
    try:
        cfg = _resolve_config(args)
        out = args.out or Path(f"nlfaraday-{args.command}")
        stage = _stage(args, cfg, out)
        _COMMANDS[args.command][0](args, cfg, stage)
        code = EXIT_OK
    except (InvalidConfig, DataIntegrityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except NlfaradayError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    finally:
        for h in list(root.handlers):
            if h not in handlers:
                h.close()
                root.removeHandler(h)
        root.setLevel(level)
        if stage is not None:
            code = _end_stage(stage, out, code)
    if code == EXIT_OK:
        print(f"outputs in {out}")
    return code


def _end_stage(stage: Path, out: Path, code: int | None) -> int:
    """Publish or delete the staged run; returns the exit code.

    Exit 0, exit 3 and an uncaught exception (``code`` None) publish what
    was written: the stage is renamed to ``out``, once the missing parents
    of ``out`` are made, or its files move into an existing ``out``, whose
    every target is checked before any file moves.  A configuration error,
    among them an ``out`` that cannot take the staged files, deletes the
    stage, so it leaves no output.
    """
    if code != EXIT_CONFIG:
        try:
            if out.exists():
                taken = sorted(path.name for path in stage.iterdir() if (out / path.name).is_dir())
                if taken:
                    raise InvalidConfig(f"{', '.join(taken)} is a directory there")
                for path in stage.iterdir():
                    path.replace(out / path.name)
                stage.rmdir()
            else:
                out.parent.mkdir(parents=True, exist_ok=True)
                stage.rename(out)
            return code
        except (OSError, InvalidConfig) as exc:
            print(f"configuration error: cannot write outputs to {out}: {exc}", file=sys.stderr)
    shutil.rmtree(stage)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
