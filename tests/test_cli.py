"""End-to-end command-line checks: exit codes, file outputs, determinism."""
import logging
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_csv_columns, read_report
from nlfaraday import cli, dynamics
from nlfaraday.config import write_manifest
from nlfaraday.config import parse_config_text


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nlfaraday.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "nlfaraday" in proc.stdout


def test_every_exported_name_resolves():
    import nlfaraday

    assert len(set(nlfaraday.__all__)) == len(nlfaraday.__all__)
    missing = [name for name in nlfaraday.__all__ if not hasattr(nlfaraday, name)]
    assert missing == []


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = cli.main([
        "control-run", "--config", str(tmp_path / "absent.cfg"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_analyze_missing_data_is_config_error(tmp_path):
    rc = cli.main([
        "analyze", "--data", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == cli.EXIT_CONFIG


def test_config_file_overrides_feed_validation(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = 5\n")
    rc = cli.main([
        "campaign", "--config", str(cfg), "--out", str(tmp_path / "out"),
    ])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", [
    "n_photon = 1e6\n",             # misspelled key
    "samples = abc\n",              # non-numeric count
    "n_linear = abc\n",             # non-numeric float
    "samples = 12.7\n",             # non-integral count
    "ideal = 1\n",                  # mode the flags do not select
    "nodes_radial = 9\n",           # the cloud resolution is not a config key
    "scan_nodes_long = 5\n",
])
def test_bad_config_value_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = cli.main([
        "campaign", "--config", str(cfg), "--out", str(tmp_path / "out"),
    ])
    assert rc == cli.EXIT_CONFIG
    assert str(cfg) in capsys.readouterr().err


def test_integral_float_count_is_accepted(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("samples = 1.2e1\n")
    out = tmp_path / "out"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    manifest = parse_config_text((out / "manifest.txt").read_text())
    assert manifest["samples"] == 12 and isinstance(manifest["samples"], int)


def test_manifest_fed_back_as_config_reproduces_it(tmp_path):
    flags = ["--seed", "5", "--samples", "12", "--no-saturation"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["campaign", *flags, "--out", str(first)]) == cli.EXIT_OK
    rc = cli.main([
        "campaign", "--config", str(first / "manifest.txt"), *flags, "--out", str(second),
    ])
    assert rc == cli.EXIT_OK
    assert (second / "manifest.txt").read_text() == (first / "manifest.txt").read_text()
    assert (second / "campaign.csv").read_bytes() == (first / "campaign.csv").read_bytes()


def _config_value(key):
    default = cli.DEFAULTS[key]
    if isinstance(default, str):
        return st.sampled_from(["gaussian", "flat-train"])
    if isinstance(default, int):
        return st.integers(min_value=-10**18, max_value=10**18)
    return st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.fixed_dictionaries({key: _config_value(key) for key in cli.DEFAULTS}))
def test_manifest_round_trip_property(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("manifest") / "manifest.txt"
    write_manifest(path, config, "0.0", command="property")
    loaded = cli._checked_file_config(path)
    assert loaded == config
    assert all(type(loaded[key]) is int for key in cli._INT_KEYS)


def test_scan_manifest_reproduces_the_run(tmp_path, monkeypatch):
    calls = []

    def fake_coefficients(ops, delta, beam, cloud):
        calls.append(("coefficients", delta, beam, cloud))
        return SimpleNamespace(alpha1=delta - 2 * np.pi * 460e6, beta1=1e-16)

    def fake_crossing(ops, beam, cloud, lo, hi):
        calls.append(("crossing", lo, hi, beam, cloud))
        return 2 * np.pi * 460e6

    monkeypatch.setattr(dynamics, "extract_effective_coefficients", fake_coefficients)
    monkeypatch.setattr(dynamics, "locate_crossing", fake_crossing)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scan_lo = 2.8e9\nwaist = 25e-6\n")
    first, second = tmp_path / "first", tmp_path / "second"
    rc = cli.main([
        "coefficients-scan", "--config", str(cfg), "--scan-points", "2", "--out", str(first),
    ])
    assert rc == cli.EXIT_OK
    flagged = calls[:]
    calls.clear()
    rc = cli.main(["coefficients-scan", "--config", str(first / "manifest.txt"), "--out", str(second)])
    assert rc == cli.EXIT_OK
    assert len(calls) == 5 and flagged == calls
    assert calls[3][1:3] == (2.8e9, cli.DEFAULTS["scan_hi"])
    assert calls[0][2].waist == 25e-6
    assert (second / "manifest.txt").read_text() == (first / "manifest.txt").read_text()
    assert (second / "coefficients.csv").read_bytes() == (first / "coefficients.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--ideal"],
    ["campaign", "--ideal"],
    ["reproduce-fig2", "--ideal"],
    ["campaign", "--detuning-mhz", "400"],
    ["reproduce-fig2", "--nodes-radial", "3"],
    ["control-run", "--no-saturation"],
    ["coefficients-scan", "--detuning-mhz", "400"],
    ["simulate", "--nodes-radial", "1"],
    ["coefficients-scan", "--nodes-longitudinal", "3"],
])
def test_flag_a_subcommand_does_not_read_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.fixture
def deadline():
    """Fail a command that is still running after 20 s instead of waiting on it."""
    def expire(signum, frame):
        raise TimeoutError("still running after 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv, config, key", [
    (["simulate", "--n-photons", "nan"], None, "n_photons"),
    (["simulate", "--n-photons", "inf"], None, "n_photons"),
    (["simulate", "--detuning-mhz", "nan"], None, "detuning"),
    (["simulate"], "n_photons = nan", "{config}: n_photons"),
    (["campaign"], "saturation_photons = inf", "{config}: saturation_photons"),
    (["reproduce-fig2", "--points", "-1"], None, "grid_points"),
    (["reproduce-fig2", "--points", "0"], None, "grid_points"),
    (["reproduce-fig3", "--ideal", "--points", "-2"], None, "grid_points"),
    (["coefficients-scan", "--scan-points", "-1"], None, "scan_points"),
    (["campaign", "--seed", "-1"], None, "seed"),
    (["campaign", "--samples", "5"], None, "samples"),
    (["reproduce-fig2"], "samples = 9", "{config}: samples"),
    (["campaign"], "controls = -1", "{config}: controls"),
    (["reproduce-fig3", "--ideal", "--points", "3"], None, "grid_points"),
    (["reproduce-fig3", "--ideal", "--points", "6"], None, "grid_points"),
])
def test_bad_number_exits_2_before_any_output(tmp_path, capsys, deadline, argv, config, key):
    path = tmp_path / "bad.cfg"
    if config is not None:
        path.write_text(config + "\n")
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: {key.format(config=path)} = " in capsys.readouterr().err
    assert not out.exists()


def test_counts_are_checked_only_where_read(tmp_path):
    # control-run runs no campaign and no grid: the parent ignored these keys
    config = tmp_path / "counts.cfg"
    config.write_text("samples = 5\ncontrols = -1\ngrid_points = 0\nscan_points = -1\n")
    assert cli.main(["control-run", "--config", str(config), "--out", str(tmp_path / "out")]) == cli.EXIT_OK


@pytest.mark.parametrize("argv, mode_keys", [
    (["simulate", "--config", "{zeros}"], set()),
    (["analyze", "--data", "{data}", "--config", "{zeros}"], set()),
    (["control-run", "--config", "{zeros}"], set()),
    (["campaign", "--samples", "12"], {"no_saturation"}),
    (["reproduce-fig3", "--ideal"], {"ideal", "no_saturation"}),
])
def test_manifest_carries_only_the_mode_keys_a_subcommand_reads(tmp_path, argv, mode_keys):
    # zeros: the mode keys as every manifest carried them before
    zeros, data = tmp_path / "zeros.cfg", tmp_path / "campaign.csv"
    zeros.write_text("ideal = 0\nno_saturation = 0\n")
    data.write_text("\n".join(_campaign_lines()) + "\n")
    argv = [arg.format(zeros=zeros, data=data) for arg in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    manifest = parse_config_text((out / "manifest.txt").read_text())
    assert {"ideal", "no_saturation"} & set(manifest) == mode_keys


def test_mode_key_a_subcommand_does_not_read_is_config_error(tmp_path, capsys):
    fig3 = tmp_path / "fig3"
    assert cli.main(["reproduce-fig3", "--ideal", "--out", str(fig3)]) == cli.EXIT_OK
    manifest = fig3 / "manifest.txt"
    rc = cli.main(["control-run", "--config", str(manifest), "--out", str(tmp_path / "ctl")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(manifest) in err and "ideal = 1" in err and "control-run" in err
    assert "--ideal" not in err


def test_module_run_logs_cli_lines_to_run_log(tmp_path):
    out = tmp_path / "camp"
    proc = subprocess.run(
        [sys.executable, "-m", "nlfaraday.cli", "campaign", "--samples", "10", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "campaign -> " in (out / "run.log").read_text()


def test_run_log_handler_removed_after_main(tmp_path):
    out = tmp_path / "ctl"
    assert cli.main(["control-run", "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
    root = logging.getLogger("nlfaraday")
    assert not any(isinstance(h, logging.FileHandler) for h in root.handlers)
    logging.getLogger("nlfaraday.dynamics").warning("line logged after the run")
    assert "after the run" not in (out / "run.log").read_text()
    assert "control-run" in (out / "run.log").read_text()


def _campaign_lines(schema="1"):
    lines = [] if schema is None else [f"# schema_version = {schema}"]
    lines += ["# n_nonlinear = 1e7", "probe_tag,n_photons,s_x,s_y,phi,n_atoms,sample_index"]
    for i in range(4):
        phi_l, phi_nl = 3e-3 + i * 1e-4, 3e-4 + i * 2e-5
        lines.append(f"L1,4e6,4e6,{phi_l * 4e6},{phi_l},2e5,{i}")
        lines.append(f"NL,1e7,1e7,{phi_nl * 1e7},{phi_nl},2e5,{i}")
    return lines


@pytest.mark.parametrize("case, match", [
    ("short_row", "line 4: 6 cells"),
    ("long_row", "line 4: 8 cells"),
    ("text_cell", "line 4"),
    ("fractional_index", "line 4"),
    ("no_schema", "schema_version None"),
    ("future_schema", "schema_version 99"),
    ("text_n_nonlinear", "n_nonlinear 'abc' is not a number"),
    ("text_n_linear", "n_linear '4e6x' is not a number"),
    ("no_n_nonlinear", "n_nonlinear None is not a number"),
    ("n_nonlinear_mismatch", "NL photon number 10000000 of sample 0 differs from n_nonlinear"),
    ("no_rows", "no data rows"),
    ("duplicate_row", "line 12: sample 0 repeats its L1 reading"),
    ("unknown_tag", "line 4: unknown probe tag 'X1'"),
    ("nonpositive_photons", "line 4: photon number must be positive"),
    ("sy_exceeds_sx", "line 4: |S_y| exceeds S_x"),
    ("underflowing_transmissions", "underflows to 0"),
])
def test_analyze_malformed_campaign_is_config_error(tmp_path, capsys, case, match):
    lines = _campaign_lines(schema={"no_schema": None, "future_schema": "99"}.get(case, "1"))
    if case == "short_row":
        lines[3] = lines[3].rsplit(",", 1)[0]
    elif case == "long_row":
        lines[3] += ",7"
    elif case == "text_cell":
        lines[3] = lines[3].replace("4e6,4e6", "4e6,many", 1)
    elif case == "fractional_index":
        lines[3] = lines[3][: lines[3].rindex(",")] + ",0.5"
    elif case == "text_n_nonlinear":
        lines[1] = "# n_nonlinear = abc"
    elif case == "text_n_linear":
        lines.insert(2, "# n_linear = 4e6x")
    elif case == "no_n_nonlinear":
        del lines[1]
    elif case == "n_nonlinear_mismatch":
        lines[1] = "# n_nonlinear = 2e7"
    elif case == "no_rows":
        del lines[3:]
    elif case == "duplicate_row":
        lines.append("L1,4e6,4e6,14000,0.0035,2e5,0")  # sample 0's L1 again
    elif case == "unknown_tag":
        lines[3] = lines[3].replace("L1,", "X1,", 1)
    elif case == "nonpositive_photons":
        lines[3] = lines[3].replace("L1,4e6,", "L1,0,", 1)
    elif case == "sy_exceeds_sx":
        lines[3] = "L1,4e6,4e6,5e6,1.25,2e5,0"
    elif case == "underflowing_transmissions":
        lines[1:1] = ["# transmission_h = 0.5", "# transmission_v = 5e-324"]
    path = tmp_path / "campaign.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["analyze", "--data", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and match in err


def test_analyze_campaign_without_live_pair_is_config_error(tmp_path, capsys):
    # only n_atoms = 0 controls: nothing to regress
    path = tmp_path / "controls.csv"
    path.write_text("\n".join(ln.replace(",2e5,", ",0,") for ln in _campaign_lines()) + "\n")
    rc = cli.main(["analyze", "--data", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "no live L1/NL pair" in err


def test_analyze_well_formed_hand_written_campaign(tmp_path):
    path = tmp_path / "campaign.csv"
    path.write_text("\n".join(_campaign_lines()) + "\n")
    rc = cli.main(["analyze", "--data", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK


def test_analyze_underdetermined_campaign_is_numerical_error(tmp_path):
    path = tmp_path / "tiny.csv"
    lines = [
        "# schema_version = 1",
        "# n_nonlinear = 1e7",
        "probe_tag,n_photons,s_x,s_y,phi,n_atoms,sample_index",
    ]
    for i in range(2):
        phi_l, phi_nl = 3e-3 + i * 1e-4, 3e-4 + i * 1e-5
        lines.append(f"L1,4e6,4e6,{phi_l * 4e6},{phi_l},2e5,{i}")
        lines.append(f"NL,1e7,1e7,{phi_nl * 1e7},{phi_nl},2e5,{i}")
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["analyze", "--data", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL


def test_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--out", str(tmp_path)])


def test_campaign_then_analyze_round_trip(tmp_path):
    d1, d2 = tmp_path / "camp", tmp_path / "ana"
    rc = cli.main(["campaign", "--seed", "31", "--out", str(d1)])
    assert rc == cli.EXIT_OK
    report = read_report(d1 / "regression.txt")
    rc = cli.main(["analyze", "--data", str(d1 / "campaign.csv"), "--out", str(d2)])
    assert rc == cli.EXIT_OK
    slopes = read_csv_columns(d2 / "slopes.csv")
    assert slopes["n_nonlinear"][0] == pytest.approx(1e7)
    assert slopes["n_pairs"][0] == 50
    # analyze rebuilds the exact same pairs the campaign regressed;
    # the report file rounds to 10 significant digits
    assert slopes["slope"][0] == pytest.approx(report["slope"][0], rel=1e-8)
    assert slopes["intercept"][0] == pytest.approx(
        report["intercept"][0], rel=1e-6, abs=1e-12
    )
    # directories work as --data arguments too
    rc = cli.main(["analyze", "--data", str(d1), "--out", str(tmp_path / "ana2")])
    assert rc == cli.EXIT_OK


def test_campaign_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["campaign", "--seed", "9", "--out", str(d1)]) == 0
    assert cli.main(["campaign", "--seed", "9", "--out", str(d2)]) == 0
    assert (d1 / "campaign.csv").read_bytes() == (d2 / "campaign.csv").read_bytes()
    d3 = tmp_path / "c"
    assert cli.main(["campaign", "--seed", "10", "--out", str(d3)]) == 0
    assert (d1 / "campaign.csv").read_bytes() != (d3 / "campaign.csv").read_bytes()


def test_every_run_writes_manifest_and_log(tmp_path):
    out = tmp_path / "camp"
    cli.main(["campaign", "--seed", "3", "--samples", "12", "--out", str(out)])
    assert (out / "run.log").exists()
    manifest = parse_config_text((out / "manifest.txt").read_text())
    assert manifest["seed"] == 3
    assert manifest["samples"] == 12
    assert manifest["detuning"] == pytest.approx(2 * np.pi * 462e6)
    assert "package_version" in manifest


def test_fig3_ideal_mode(tmp_path):
    out = tmp_path / "fig3"
    rc = cli.main(["reproduce-fig3", "--ideal", "--out", str(out)])
    assert rc == cli.EXIT_OK
    report = read_report(out / "exponent_report.txt")
    assert report["exponent_ideal_window"][0] == pytest.approx(-1.5, abs=1e-9)
    assert report["exponent_ideal_full"][0] == pytest.approx(-1.5, abs=1e-9)
    assert "exponent_measured_window" not in report
    cols = read_csv_columns(out / "fig3_scaling.csv")
    assert cols["fractional_sensitivity"] == pytest.approx(cols["ideal_sensitivity"], rel=1e-12)
    assert cols["model_sensitivity"] == pytest.approx(cols["ideal_sensitivity"], rel=1e-12)
    assert len(cols["n_nonlinear"]) == 12
    assert cols["n_nonlinear"][0] == pytest.approx(5e5)
    assert cols["n_nonlinear"][-1] == pytest.approx(1e8)


def test_fig3_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    # 8 grid points keeps >=3 inside the [1e6, 1e7] exponent window
    args = ["reproduce-fig3", "--points", "8", "--samples", "40", "--seed", "4"]
    assert cli.main(args + ["--out", str(d1)]) == 0
    assert cli.main(args + ["--out", str(d2)]) == 0
    assert (d1 / "fig3_scaling.csv").read_bytes() == (d2 / "fig3_scaling.csv").read_bytes()


def test_fig2_smoke(tmp_path):
    out = tmp_path / "fig2"
    rc = cli.main([
        "reproduce-fig2", "--points", "5", "--samples", "25", "--seed", "21",
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    cols = read_csv_columns(out / "fig2_slopes.csv")
    assert len(cols["n_nonlinear"]) == 5
    # true (injected) slopes must track the response model exactly
    from nlfaraday.experiment import ResponseModel

    resp = ResponseModel()
    expect = [resp.calibration_slope(n) for n in cols["n_nonlinear"]]
    assert cols["slope_true"] == pytest.approx(expect, rel=1e-12)
    report = read_report(out / "fig2_report.txt")
    assert report["injected_nonlinear_coefficient"][0] == pytest.approx(3.8e-16)
    assert report["injected_saturation_photons"][0] == pytest.approx(6e7)
    # recovered B lands in the right ballpark even for this tiny campaign
    assert report["nonlinear_coefficient"][0] == pytest.approx(3.8e-16, rel=0.6)


def test_fig2_no_saturation_reports_no_injected_saturation(tmp_path, capsys):
    out = tmp_path / "fig2"
    rc = cli.main([
        "reproduce-fig2", "--no-saturation", "--points", "3", "--samples", "10",
        "--seed", "21", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    report = read_report(out / "fig2_report.txt")
    assert report["injected_saturation_photons"][0] == np.inf
    assert "(injected inf)" in capsys.readouterr().out


def test_fig2_grid_points_from_config(tmp_path):
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text("grid_points = 5\n")
    out = tmp_path / "fig2"
    rc = cli.main([
        "reproduce-fig2", "--config", str(cfg), "--samples", "25", "--seed", "21",
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    assert len(read_csv_columns(out / "fig2_slopes.csv")["n_nonlinear"]) == 5
    assert "grid_points = 5\n" in (out / "manifest.txt").read_text()


def test_simulate_with_trajectory_dump(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--dump-trajectory", "--out", str(out)])
    assert rc == cli.EXIT_OK
    stokes = read_csv_columns(out / "stokes.csv")
    assert stokes["n_photons"][0] == pytest.approx(5.7e6)
    assert stokes["detuning_mhz"][0] == pytest.approx(462.0)
    assert stokes["rotation"][0] == pytest.approx(
        stokes["rotation_per_atom"][0] * 2.5e5, rel=1e-12
    )
    assert stokes["max_trace_deviation"][0] < 1e-9
    assert stokes["min_eigenvalue"][0] > -1e-9
    pops = read_csv_columns(out / "populations.csv")
    assert np.all(np.diff(pops["time"]) > 0)
    total = pops["ground_f1"] + pops["ground_f2"] + pops["excited"]
    assert total == pytest.approx(np.ones_like(total), abs=1e-6)
    # stretched-state preparation: m=+1 starts with everything
    assert pops["m_plus1"][0] == pytest.approx(1.0, abs=1e-9)
    assert pops["m_0"][0] == pytest.approx(0.0, abs=1e-9)
    assert "integrated 12 intensity levels for 81 cloud nodes" in (out / "run.log").read_text()


def test_simulate_detuning_flag(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main([
        "simulate", "--out", str(out), "--detuning-mhz", "1500", "--n-photons", "1e6",
    ])
    assert rc == cli.EXIT_OK
    stokes = read_csv_columns(out / "stokes.csv")
    assert stokes["detuning_mhz"][0] == pytest.approx(1500.0)
    assert stokes["n_photons"][0] == pytest.approx(1e6)
    # far blue of every line, a spin-up sample rotates positively
    assert stokes["rotation_per_atom"][0] > 0


def test_control_run_outputs(tmp_path):
    out = tmp_path / "ctl"
    rc = cli.main([
        "control-run", "--out", str(out), "--rotation-mrad", "4", "--seed", "77",
    ])
    assert rc == cli.EXIT_OK
    cols = read_csv_columns(out / "control.csv")
    assert len(cols["n_photons"]) == 13
    assert np.all(cols["intrinsic_sensitivity"] <= cols["fractional_sensitivity"])
    report = read_report(out / "control_report.txt")
    assert report["rotation"][0] == pytest.approx(4e-3)
    assert report["max_angle_deviation_fraction"][0] < 0.05
    exp, err = report["noise_exponent"]
    assert exp == pytest.approx(-0.5, abs=0.05)


def test_coefficients_scan_outputs(scan_dir):
    cols = read_csv_columns(scan_dir / "coefficients.csv")
    assert len(cols["detuning_mhz"]) == 6
    assert cols["detuning_mhz"][:5] == pytest.approx(np.linspace(430.0, 476.0, 5))
    assert cols["detuning_mhz"][5] == pytest.approx(1500.0)
    assert np.all(np.isfinite(cols["alpha1"]))
    assert np.all(np.isfinite(cols["beta1"]))
    signs = list(cols["alpha1_sign"][:5])
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    # far-detuned marker: linear response dominates, nonlinearity negligible
    far_alpha, far_beta = cols["alpha1"][5], cols["beta1"][5]
    assert far_alpha > 0
    # span of the probe ladder the coefficients are extracted over
    assert abs(far_beta) * 3.75e6 < 0.02 * far_alpha

    report = read_report(scan_dir / "crossing_report.txt")
    crossing = report["crossing_mhz"][0]
    assert 440.0 < crossing < 500.0
    assert abs(report["alpha1_at_crossing"][0]) < 0.05 * np.max(np.abs(cols["alpha1"][:5]))
    assert abs(report["beta1_at_crossing"][0]) > 1e-18

    manifest = parse_config_text((scan_dir / "manifest.txt").read_text())
    assert manifest["scan_points"] == 5
