"""Command-line entry point: simulations, campaigns, fits, figure tables.

Every run resolves its configuration (defaults < config file < flags),
creates the output directory, and writes three things next to the data:
``manifest.txt`` (full resolved config, re-parseable), ``run.log``, and
the subcommand's CSV/report files.  A subcommand declares only the flags
it reads, and each flag's argparse ``dest`` is the config key it sets.
Exit codes: 0 success, 2 for configuration problems (an unknown flag
exits 2 through argparse), 3 for numerical failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as ana
from . import experiment as expmt
from .config import load_config, write_manifest
from .exceptions import DataIntegrityError, InvalidConfig, NlfaradayError
from .geometry import BeamGeometry, CloudGeometry, PulseSpec

# named, not __name__: under ``python -m nlfaraday.cli`` that is "__main__",
# outside the "nlfaraday" logger whose handler writes run.log
log = logging.getLogger("nlfaraday.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_TWO_PI = 2.0 * math.pi

# config keys each model class is built from; they are its field names
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


def _mhz(text: str) -> float:
    """Ordinary MHz to the angular rad/s of ``detuning``."""
    return _TWO_PI * 1e6 * float(text)


def _mrad(text: str) -> float:
    return 1e-3 * float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlfaraday",
        description="Nonlinear Faraday-rotation simulation and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    commands = {
        "simulate": "integrate one probe pulse through the cloud and report Stokes observables",
        "campaign": "generate one correlation campaign at fixed nonlinear photon number",
        "analyze": "regression and saturation analysis of campaign CSV files",
        "reproduce-fig2": "calibration-slope campaigns over a photon-number grid plus saturation fit",
        "reproduce-fig3": "sensitivity-scaling table with reference lines and exponent report",
        "control-run": "waveplate instrumental-linearity control dataset",
        "coefficients-scan": "effective-coefficient spectra over a detuning grid",
    }
    sub = {}
    for name, help_text in commands.items():
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
    if args.config is not None:
        cfg.update(_checked_file_config(args.config))
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
    cfg.update({k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None})
    return cfg


def _prepare_out(args, command: str, cfg: dict) -> Path:
    out = args.out or Path(f"nlfaraday-{command}")
    out.mkdir(parents=True, exist_ok=True)
    root = logging.getLogger("nlfaraday")
    handler = logging.FileHandler(out / "run.log", mode="w")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.setLevel(logging.INFO)
    root.addHandler(handler)
    write_manifest(out / "manifest.txt", cfg, __version__, command=command)
    log.info("%s -> %s", command, out)
    return out


def _response_from(cfg: dict) -> ana.ResponseModel:
    fields = _pick(cfg, _RESPONSE_KEYS)
    if cfg.get("no_saturation") or cfg.get("ideal"):
        fields["saturation_photons"] = None
    return ana.ResponseModel(**fields)


def _noise_from(cfg: dict) -> expmt.PolarimeterModel:
    return expmt.PolarimeterModel(**_pick(cfg, _NOISE_KEYS))


def _atomic_model():
    from .atom import build_dipole_operators, build_level_scheme

    scheme = build_level_scheme()
    return build_dipole_operators(scheme)


def _scenario(cfg: dict):
    pulse = PulseSpec(
        shape=cfg["pulse_shape"],
        fwhm=cfg["pulse_fwhm"],
        n_photons=cfg["n_photons"],
        detuning=cfg["detuning"],
        train_count=cfg["train_count"],
        train_period=cfg["train_period"],
    )
    beam = BeamGeometry(**_pick(cfg, _BEAM_KEYS))
    cloud = CloudGeometry(**_pick(cfg, _CLOUD_KEYS))
    return pulse, beam, cloud


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


def _write_rows(path: Path, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                else:
                    cells.append(f"{float(cell):.17g}")
            fh.write(",".join(cells) + "\n")


def cmd_simulate(args) -> int:
    from . import dynamics as dyn

    cfg = _resolve_config(args)
    out = _prepare_out(args, "simulate", cfg)
    ops = _atomic_model()
    pulse, beam, cloud = _scenario(cfg)
    res = dyn.detected_stokes(pulse, beam, cloud, ops)
    log.info("integrated %d intensity levels for %d cloud nodes", res.levels, res.grid.r.size)
    _write_rows(
        out / "stokes.csv",
        [
            "n_photons", "detuning_mhz", "n_atoms", "s_x", "s_y",
            "rotation", "ellipticity", "rotation_per_atom", "damage_mean",
            "damage_detected", "ground_f1", "ground_f2", "excited",
            "max_trace_deviation", "min_eigenvalue",
        ],
        [[
            pulse.n_photons, pulse.detuning / _TWO_PI / 1e6, cloud.n_atoms,
            res.s_x, res.s_y, res.rotation, res.ellipticity,
            res.rotation_per_atom, res.damage_mean, res.damage_detected,
            res.end_populations["ground_f1"], res.end_populations["ground_f2"],
            res.end_populations["excited"], res.max_trace_deviation,
            res.min_eigenvalue,
        ]],
    )
    if args.dump_trajectory:
        from .atom import initial_state

        traj = dyn.integrate_node(
            initial_state(ops.scheme, 1, 1), pulse, 1.0, ops, beam=beam,
        )
        rows = []
        for i, t in enumerate(traj.times):
            rows.append([
                t,
                float(np.real(traj.field[i])),
                traj.manifold_population(1)[i],
                traj.manifold_population(2)[i],
                traj.excited_population()[i],
                traj.sublevel_population(1, 1)[i],
                traj.sublevel_population(1, 0)[i],
                traj.sublevel_population(1, -1)[i],
            ])
        _write_rows(
            out / "populations.csv",
            ["time", "rabi", "ground_f1", "ground_f2", "excited", "m_plus1", "m_0", "m_minus1"],
            rows,
        )
    print(f"rotation = {res.rotation:.6e} rad  (per atom {res.rotation_per_atom:.6e})")
    print(f"S_y/S_x = {res.s_y / res.s_x:.6e}, damage = {res.damage_detected:.4e}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_campaign(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_out(args, "campaign", cfg)
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
    print(f"outputs in {out}")
    return EXIT_OK


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


def cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_out(args, "analyze", cfg)
    rows = []
    for path in _campaign_files(args.data):
        records, meta = expmt.read_campaign_csv(path)
        by_sample = {}
        for r in records:
            by_sample.setdefault(r.sample_index, {})[r.probe_tag] = r
        pairs = [
            (v["L1"].phi, v["NL"].phi)
            for v in by_sample.values()
            if "L1" in v and "NL" in v and v["L1"].n_atoms > 0
        ]
        fit = ana.linear_regression(np.asarray(pairs))
        n_nl = float(meta["n_nonlinear"])
        rows.append([n_nl, fit.slope, fit.slope_stderr, fit.intercept, fit.residual_std, len(pairs)])
    rows.sort(key=lambda r: r[0])
    _write_rows(
        out / "slopes.csv",
        ["n_nonlinear", "slope", "slope_stderr", "intercept", "residual_std", "n_pairs"],
        rows,
    )
    report = {"n_campaigns": len(rows)}
    if len(rows) >= 3:
        model = ana.fit_saturation(
            [(r[0], r[1]) for r in rows], cfg["linear_coefficient"]
        )
        report["nonlinear_coefficient"] = model.nonlinear_coefficient
        report["saturation_photons"] = (
            model.saturation_photons if model.saturation_photons is not None else float("nan")
        )
    ana.write_fit_report(out / "analysis_report.txt", report, header="campaign analysis")
    print(f"analyzed {len(rows)} campaign file(s); outputs in {out}")
    return EXIT_OK


def cmd_fig2(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_out(args, "reproduce-fig2", cfg)
    response = _response_from(cfg)
    grid = np.logspace(6.0, 8.0, cfg["grid_points"])
    rows = []
    for i, n_nl in enumerate(grid):
        _, fit = _campaign(cfg, float(n_nl), cfg["seed"] + i)
        rows.append([
            n_nl, fit.slope, fit.slope_stderr, fit.intercept,
            fit.residual_std, response.calibration_slope(float(n_nl)),
            response.damage(float(n_nl)),
        ])
    _write_rows(
        out / "fig2_slopes.csv",
        ["n_nonlinear", "slope", "slope_stderr", "intercept", "residual_std", "slope_true", "damage_true"],
        rows,
    )
    model = ana.fit_saturation([(r[0], r[1]) for r in rows], cfg["linear_coefficient"])
    injected_sat = (
        response.saturation_photons if response.saturation_photons is not None else math.inf
    )
    ana.write_fit_report(
        out / "fig2_report.txt",
        {
            "nonlinear_coefficient": model.nonlinear_coefficient,
            "saturation_photons": model.saturation_photons
            if model.saturation_photons is not None
            else float("nan"),
            "injected_nonlinear_coefficient": cfg["nonlinear_coefficient"],
            "injected_saturation_photons": injected_sat,
        },
        header="saturation fit of calibration slopes",
    )
    ns_txt = "unconstrained" if model.saturation_photons is None else f"{model.saturation_photons:.4g}"
    print(
        f"B = {model.nonlinear_coefficient:.4g} (injected {cfg['nonlinear_coefficient']:.4g}), "
        f"N_sat = {ns_txt} (injected {injected_sat:.4g})"
    )
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_fig3(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_out(args, "reproduce-fig3", cfg)
    f_z = cfg["collective_spin"]
    a = cfg["linear_coefficient"]
    n_grid = np.logspace(math.log10(5e5), 8.0, cfg["grid_points"])

    # model curves: the working detuning has no linear response, so the
    # ideal law is pure N^(-3/2); the saturated variant bends above N_sat
    response = _response_from(cfg)
    curve_model = dataclasses.replace(response, linear_coefficient=0.0)
    ideal_model = dataclasses.replace(curve_model, saturation_photons=None)
    ideal_curve = ana.sensitivity_curve(ideal_model, n_grid, f_z)
    model_curve = ana.sensitivity_curve(curve_model, n_grid, f_z)

    measured = np.full_like(n_grid, np.nan)
    fitted = None
    if not cfg["ideal"]:
        slopes, intrinsics = [], []
        for i, n_nl in enumerate(n_grid):
            _, fit = _campaign(cfg, float(n_nl), cfg["seed"] + i)
            slopes.append((float(n_nl), fit.slope))
            intrinsics.append(
                float(
                    ana.subtract_electronic_noise(
                        fit.residual_std, float(n_nl), cfg["v_nonlinear"]
                    )
                )
            )
        # calibrate the per-spin response once from the pooled saturation
        # fit; per-point slopes are far too noisy below ~10^6 photons
        fitted = ana.fit_saturation(slopes, a)
        for i, n_nl in enumerate(n_grid):
            response_per_spin = 0.5 * a * float(fitted.calibration_slope(n_nl))
            measured[i] = intrinsics[i] / response_per_spin / f_z

    anchor = model_curve.sensitivity[0]
    n0 = n_grid[0]
    sql_line = anchor * (n_grid / n0) ** -0.5
    hl_line = anchor * (n_grid / n0) ** -1.0
    sh_line = anchor * (n_grid / n0) ** -1.5
    damage = response.damage(n_grid)

    sens_col = model_curve.sensitivity if cfg["ideal"] else measured
    _write_rows(
        out / "fig3_scaling.csv",
        [
            "n_nonlinear", "fractional_sensitivity", "damage",
            "model_sensitivity", "ideal_sensitivity",
            "sql_line", "hl_line", "sh_line",
        ],
        [
            [
                n_grid[i], sens_col[i], damage[i],
                model_curve.sensitivity[i], ideal_curve.sensitivity[i],
                sql_line[i], hl_line[i], sh_line[i],
            ]
            for i in range(len(n_grid))
        ],
    )

    report = {}
    exp_ideal = ana.scaling_exponent(ideal_curve, (1e6, 1e7))
    report["exponent_ideal_window"] = (exp_ideal.exponent, exp_ideal.stderr)
    exp_ideal_full = ana.scaling_exponent(ideal_curve)
    report["exponent_ideal_full"] = (exp_ideal_full.exponent, exp_ideal_full.stderr)
    if not cfg["ideal"]:
        # noise subtraction can clip a low-N point to zero; such points
        # carry no scaling information, so leave them out of the fit
        ok = measured > 0
        meas_curve = ana.ScalingCurve(n_grid[ok], measured[ok])
        exp_win = ana.scaling_exponent(meas_curve, (1e6, 1e7))
        exp_wide = ana.scaling_exponent(meas_curve, (5e5, 5e7))
        report["exponent_measured_window"] = (exp_win.exponent, exp_win.stderr)
        report["exponent_measured_wide"] = (exp_wide.exponent, exp_wide.stderr)
    ana.write_fit_report(out / "exponent_report.txt", report, header="scaling exponents")

    for key, val in report.items():
        print(f"{key} = {val[0]:+.4f} +- {val[1]:.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_control(args) -> int:
    cfg = _resolve_config(args)
    out = _prepare_out(args, "control-run", cfg)
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
    _write_rows(
        out / "control.csv",
        ["n_photons", "mean_angle", "fractional_sensitivity", "intrinsic_sensitivity"],
        [
            [curve.n_photons[i], means[i], curve.sensitivity[i], intrinsic[i]]
            for i in range(len(means))
        ],
    )
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
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    from . import dynamics as dyn

    cfg = _resolve_config(args)
    out = _prepare_out(args, "coefficients-scan", cfg)
    ops = _atomic_model()
    _, beam, cloud = _scenario(cfg)
    detunings = list(np.linspace(cfg["scan_lo"], cfg["scan_hi"], cfg["scan_points"]))
    detunings.append(_TWO_PI * 1.5e9)  # the far-detuned linear-probe marker
    rows = []
    for delta in detunings:
        coeff = dyn.extract_effective_coefficients(ops, float(delta), beam=beam, cloud=cloud)
        rows.append([
            delta / _TWO_PI / 1e6,
            coeff.alpha1,
            coeff.beta1,
            "+" if coeff.alpha1 >= 0 else "-",
            "+" if coeff.beta1 >= 0 else "-",
        ])
    _write_rows(
        out / "coefficients.csv",
        ["detuning_mhz", "alpha1", "beta1", "alpha1_sign", "beta1_sign"],
        rows,
    )
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
    print(f"outputs in {out}")
    return EXIT_OK


_HANDLERS = {
    "simulate": cmd_simulate,
    "campaign": cmd_campaign,
    "analyze": cmd_analyze,
    "reproduce-fig2": cmd_fig2,
    "reproduce-fig3": cmd_fig3,
    "control-run": cmd_control,
    "coefficients-scan": cmd_scan,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the run's run.log handler and log level are undone on return, so
    # later library calls in the same process do not write into it
    root = logging.getLogger("nlfaraday")
    handlers, level = list(root.handlers), root.level
    try:
        return _HANDLERS[args.command](args)
    except (InvalidConfig, DataIntegrityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NlfaradayError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        for h in list(root.handlers):
            if h not in handlers:
                h.close()
                root.removeHandler(h)
        root.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
