"""End-to-end command-line checks: exit codes, file outputs, determinism."""
import contextlib
import hashlib
import io
import json
import logging
import signal
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_csv_columns, read_report
from nlfaraday import cli, dynamics
from nlfaraday.config import NON_FINITE_FIELDS, parse_config_text, write_manifest


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nlfaraday.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "nlfaraday" in proc.stdout
    # the coupling coefficients need no computer algebra, not even lazily
    proc = subprocess.run(
        [sys.executable, "-c", "import nlfaraday.cli, sys; from nlfaraday import atom; "
         "atom.build_dipole_operators(atom.build_level_scheme()); print('sympy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
    # no process loads SciPy's integrator or optimizer; a flat train loads
    # scipy.linalg for its propagators, and a Gaussian pulse only the sparse
    # matrices' kernel, since the integrator is the package's own
    setup = (
        "import nlfaraday.cli, sys; import numpy as np; "
        "from nlfaraday import atom, dynamics as dyn; "
        "from nlfaraday.geometry import BeamGeometry, CloudGeometry, PulseSpec; "
        "ops = atom.build_dipole_operators(atom.build_level_scheme()); "
        "beam = BeamGeometry(wavelength=ops.scheme.wavelength); "
        "loaded = lambda: sorted(m for m in "
        "('scipy.integrate', 'scipy.optimize', 'scipy.sparse') if m in sys.modules); "
        "linalg = lambda: print(loaded(), 'scipy.linalg' in sys.modules); "
        "gaussian = PulseSpec(n_photons=5.7e6, detuning=2 * np.pi * 462e6); "
    )
    proc = subprocess.run(
        [sys.executable, "-c", setup +
         "pulse = PulseSpec(shape='flat-train', fwhm=37.5e-9, n_photons=2e6, "
         "detuning=2 * np.pi * 1.5e9, train_count=2, train_period=137.5e-9); "
         "dyn.detected_stokes(pulse, beam, CloudGeometry(), ops, n_radial=1, n_long=1); "
         "linalg(); "
         "dyn.detected_stokes(gaussian, beam, CloudGeometry(), ops, n_radial=1, n_long=1); "
         "linalg()"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n['scipy.sparse'] True\n"
    # a Gaussian pulse alone, at the default 9x9 rule: the cloud's 12
    # intensity levels come from numpy, the right-hand side from scipy.sparse
    proc = subprocess.run(
        [sys.executable, "-c", setup +
         "dyn.detected_stokes(gaussian, beam, CloudGeometry(), ops); linalg()"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['scipy.sparse'] False\n"


def test_calibration_commands_load_no_scipy(tmp_path):
    """A fresh interpreter runs every calibration command without SciPy."""
    out = str(tmp_path)
    script = f"""
import contextlib, io, json, sys
import numpy as np
from nlfaraday import analysis, atom, cli, experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

runs = [["campaign", "--n-nonlinear", n, "--out", f"{out}/c{{n}}"] for n in ("1e6", "1e7", "1e8")]
runs += [
    ["analyze", "--data", *(f"{out}/c{{n}}" for n in ("1e6", "1e7", "1e8")), "--out", "{out}/analyze"],
    ["reproduce-fig2", "--out", "{out}/fig2"],
    ["reproduce-fig3", "--out", "{out}/fig3"],
    ["reproduce-fig3", "--ideal", "--out", "{out}/fig3-ideal"],
    ["control-run", "--out", "{out}/control"],
]
report = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([argv[0], code, scipy_modules()])
n, v = experiment.polarimeter_noise_scan(np.logspace(3.0, 8.0, 12), samples=200, seed=1)
analysis.fit_variance_model(np.column_stack([n, v]))
scheme = atom.build_level_scheme()
atom.vector_crossing_detuning(scheme, atom.build_dipole_operators(scheme))
print(json.dumps([report, "scipy.optimize" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report, fits_load_optimize = json.loads(proc.stdout.splitlines()[-1])
    assert [command for command, _, _ in report] == [
        "campaign", "campaign", "campaign", "analyze",
        "reproduce-fig2", "reproduce-fig3", "reproduce-fig3", "control-run",
    ]
    for command, code, modules in report:
        assert (command, code, modules) == (command, cli.EXIT_OK, [])
    assert fits_load_optimize is False


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
    # the angle variance divides by N^2, which overflows at 1e300 and
    # underflows to 0 at 1e-300
    (["campaign"], "n_linear = 1e300", "{config}: n_linear"),
    (["campaign"], "n_linear = 1e-300", "{config}: n_linear"),
    (["campaign"], "n_nonlinear = 1e300", "{config}: n_nonlinear"),
    (["campaign"], "n_nonlinear = 1e-300", "{config}: n_nonlinear"),
    (["reproduce-fig2"], "n_linear = 1e300", "{config}: n_linear"),
    (["reproduce-fig2"], "n_linear = 1e-300", "{config}: n_linear"),
    # counts that numpy cannot allocate
    (["campaign"], "samples = 1e300", "{config}: samples"),
    (["campaign"], "controls = 1e300", "{config}: controls"),
    (["reproduce-fig2"], "grid_points = 1e300", "{config}: grid_points"),
    (["coefficients-scan"], "scan_points = 1e300", "{config}: scan_points"),
    # values that overflow or divide by zero in the model's arithmetic
    (["simulate"], "n_photons = 1e300", "{config}: n_photons"),
    (["simulate"], "detuning = 1e300", "{config}: detuning"),
    (["simulate"], "sigma_long = 1e300", "{config}: sigma_long"),
    (["simulate"], "pulse_fwhm = 1e-300", "{config}: pulse_fwhm"),
    (["reproduce-fig3"], "nonlinear_coefficient = 1e300", "{config}: nonlinear_coefficient"),
    (["reproduce-fig3"], "nonlinear_coefficient = 0", "{config}: nonlinear_coefficient"),
    # values the models refused only after the output directory was made
    (["control-run"], "rotation = 0.5", "rotation"),
    (["campaign"], "atom_lo = 5e5", "atom_lo"),
    (["reproduce-fig3"], "collective_spin = -1", "{config}: collective_spin"),
    (["simulate"], "sigma_trans = -1", "{config}: sigma_trans"),
    (["simulate"], "waist = -1", "{config}: waist"),
    (["campaign"], "damage_slope = -1", "{config}: damage_slope"),
    # below one photon the perturbative rotation drifts
    (["simulate", "--n-photons", "0.5"], None, "n_photons"),
])
def test_bad_number_exits_2_before_any_output(tmp_path, capsys, deadline, argv, config, key):
    path = tmp_path / "bad.cfg"
    if config is not None:
        path.write_text(config + "\n")
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: {key.format(config=path)} = " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["bad.cfg"])


@pytest.mark.parametrize("setting, message", [
    # a cloud 0.5 m wide: the local intensity underflows to 0 at every node
    ("sigma_trans = 0.5", "the beam reaches no atom"),
    # pi w^2 / 2 overflows
    ("waist = 1e300", "mode area"),
])
def test_simulate_of_a_scene_without_light_exits_2(tmp_path, capsys, monkeypatch, setting, message):
    monkeypatch.setattr(dynamics, "_solve_batch", _no_solve)
    config = tmp_path / "scene.cfg"
    config.write_text(setting + "\n")
    rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scene.cfg"]


def test_coefficients_scan_on_a_resonance_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "_solve_batch", _no_solve)
    config = tmp_path / "scene.cfg"
    # the first scan detuning sits on the lowest excited line
    config.write_text("scan_lo = 0\n")
    rc = cli.main(["coefficients-scan", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert "within 3 Gamma of a resonance" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scene.cfg"]


def test_exit_2_keeps_the_files_of_an_existing_out(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_solve_batch", _no_solve)
    out = tmp_path / "out"
    assert cli.main(["control-run", "--out", str(out)]) == cli.EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    config = tmp_path / "scene.cfg"
    config.write_text("sigma_trans = 0.5\n")
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "scene.cfg"]


@pytest.mark.parametrize("argv, code, published", [
    (["control-run"], cli.EXIT_OK, ["control.csv", "control_report.txt", "manifest.txt", "run.log"]),
    # refused by the campaign itself, after the run was staged
    (["campaign", "--config", "{bad}"], cli.EXIT_CONFIG, None),
    # two live pairs cannot be regressed: exit 3 publishes what was written
    (["analyze", "--data", "{tiny}"], cli.EXIT_NUMERICAL, ["manifest.txt", "run.log"]),
], ids=["ok", "config", "numerical"])
def test_every_exit_leaves_no_staging_directory(tmp_path, argv, code, published):
    bad, tiny = tmp_path / "bad.cfg", tmp_path / "tiny.csv"
    bad.write_text("atom_lo = 5e5\n")
    tiny.write_text("\n".join(_campaign_lines()[:7]) + "\n")
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out"
    argv = [arg.format(bad=bad, tiny=tiny) for arg in argv]
    assert cli.main([*argv, "--out", str(out)]) == code
    assert sorted(path.name for path in work.iterdir()) == ([] if published is None else ["out"])
    if published is not None:
        assert sorted(path.name for path in out.iterdir()) == published
        assert f"-> {out}\n" in (out / "run.log").read_text()


def test_exit_2_removes_the_parents_it_created(tmp_path):
    # refused after staging under a/b/, which the run created; an
    # ancestor that now holds something else is kept
    bad = tmp_path / "bad.cfg"
    bad.write_text("atom_lo = 5e5\n")
    work = tmp_path / "work"
    work.mkdir()
    assert cli.main(["campaign", "--config", str(bad), "--out", str(work / "a" / "b" / "out")]) == cli.EXIT_CONFIG
    assert list(work.iterdir()) == []
    (work / "a").mkdir()
    (work / "a" / "kept.txt").write_text("kept\n")
    assert cli.main(["campaign", "--config", str(bad), "--out", str(work / "a" / "b" / "out")]) == cli.EXIT_CONFIG
    assert sorted(path.name for path in work.rglob("*")) == ["a", "kept.txt"]


def test_out_holding_a_directory_named_like_an_output_exits_2(tmp_path, capsys, monkeypatch):
    # publishing checks every target first: nothing moves, the stage goes
    monkeypatch.setattr(dynamics, "_solve_batch", _no_solve)
    out = tmp_path / "out"
    (out / "run.log").mkdir(parents=True)
    (out / "kept.txt").write_text("kept\n")
    assert cli.main(["control-run", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: cannot write outputs to {out}: run.log is a directory" in err
    assert sorted(path.name for path in out.rglob("*")) == ["kept.txt", "run.log"]
    assert (out / "kept.txt").read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("where", ["file", "under_a_file"])
def test_unusable_out_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker if where == "file" else blocker / "out"
    assert cli.main(["control-run", "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: cannot write outputs to {out}: " in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]


def test_simulate_past_the_step_budget_exits_3(tmp_path, capsys, monkeypatch):
    from nlfaraday import _dop853

    monkeypatch.setattr(_dop853, "MAX_STEPS", 5)
    rc = cli.main(["simulate", "--n-photons", "1e4", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure: integrator failed: Step budget of 5 steps exhausted" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started")

def test_counts_are_checked_only_where_read(tmp_path):
    # control-run runs no campaign and no grid: the parent ignored these keys
    config = tmp_path / "counts.cfg"
    config.write_text("samples = 5\ncontrols = -1\ngrid_points = 0\nscan_points = -1\n")
    assert cli.main(["control-run", "--config", str(config), "--out", str(tmp_path / "out")]) == cli.EXIT_OK


# the counts: the property draws them only from values that fail fast
_COUNT_KEYS = ("samples", "controls", "grid_points", "scan_points", "train_count")
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, float("nan"), float("inf"), float("-inf"),
]


def _signed_log_uniform():
    """Floats of either sign, log-uniform over the whole float range."""
    return st.builds(
        lambda sign, power: sign * 2.0**power,
        st.sampled_from([1.0, -1.0]), st.floats(-1074.0, 1023.99),
    )


@st.composite
def _setting(draw):
    """One config-file line's key and value text, for any numeric key."""
    key = draw(st.sampled_from(sorted(k for k in cli.DEFAULTS if k != "pulse_shape")))
    if key in _COUNT_KEYS:
        value = draw(st.one_of(
            st.integers(-10**6, 0), st.integers(cli.MAX_COUNT + 1, 10**18),
            st.sampled_from(["1e300", "1.8e308", "0.5", "nan", "inf"]),
        ))
    elif key == "seed":
        value = draw(st.one_of(st.integers(-10**18, 10**18), st.sampled_from(["1e300", "-1e300", "nan"])))
    else:
        value = repr(draw(st.one_of(st.sampled_from(_EDGE_FLOATS), _signed_log_uniform())))
    return key, str(value)


def _run_with_setting(tmp_path_factory, argv, key, value):
    """cli.main on ``argv`` with ``key = value`` in a config file: (exit code, stderr, out)."""
    work = tmp_path_factory.mktemp("setting")
    config = work / "setting.cfg"
    config.write_text(f"{key} = {value}\n")
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--config", str(config), "--out", str(out)])
    return rc, err.getvalue(), out


_FAST_RUNS = [
    ["campaign"], ["reproduce-fig2"], ["reproduce-fig3"], ["reproduce-fig3", "--ideal"], ["control-run"],
]


@settings(max_examples=60, deadline=None)
@given(argv=st.sampled_from(_FAST_RUNS), setting=_setting())
def test_any_single_setting_exits_cleanly(tmp_path_factory, argv, setting):
    # exit 0 with finite outputs, exit 2 before any output, or exit 3 with
    # a message; pytest turns any RuntimeWarning into a failure
    rc, err, out = _run_with_setting(tmp_path_factory, argv, *setting)
    if rc == cli.EXIT_OK:
        for path in out.glob("*.csv"):
            for name, column in read_csv_columns(path).items():
                if isinstance(column, np.ndarray) and name not in NON_FINITE_FIELDS:
                    assert np.all(np.isfinite(column)), (path.name, name)
        for path in out.glob("*_report.txt"):
            for name, (value, _) in read_report(path).items():
                assert np.isfinite(value) or name in NON_FINITE_FIELDS, (path.name, name)
    elif rc == cli.EXIT_CONFIG:
        assert not out.exists() and err.startswith("configuration error: ")
    else:
        assert rc == cli.EXIT_NUMERICAL and err.startswith("numerical failure: ") and len(err) > 20


@settings(max_examples=60, deadline=None)
@given(argv=st.sampled_from([["simulate"], ["coefficients-scan"]]), setting=_setting())
def test_any_single_setting_reaches_the_solve_or_exits_2(tmp_path_factory, argv, setting):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_solve_batch", _no_solve)
        try:
            rc, err, out = _run_with_setting(tmp_path_factory, argv, *setting)
        except AssertionError as exc:
            assert str(exc) == "a solve started"
            return
    assert rc == cli.EXIT_CONFIG and err.startswith("configuration error: ")
    assert not out.exists(), err


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
    ("nan_angle", "line 4: phi is not finite"),
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
    elif case == "nan_angle":
        lines[3] = lines[3].replace(",0.003,", ",nan,", 1)
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["campaign.csv"]


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-photons", "1e6"],
    ["campaign", "--samples", "12"],
    ["analyze", "--data", "{data}"],
    ["reproduce-fig2", "--points", "5", "--samples", "25", "--seed", "21"],
    ["reproduce-fig3", "--ideal"],
    ["control-run"],
], ids=lambda argv: argv[0])
def test_every_subcommand_runs_in_one_frame(tmp_path, capsys, argv):
    data = tmp_path / "campaign.csv"
    data.write_text("\n".join(_campaign_lines()) + "\n")
    argv = [arg.format(data=data) for arg in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"outputs in {out}"
    assert (out / "manifest.txt").read_text().startswith(f"# manifest for {argv[0]}\n")


def test_coefficients_scan_manifest_names_the_subcommand(scan_dir):
    assert (scan_dir / "manifest.txt").read_text().startswith("# manifest for coefficients-scan\n")


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


def test_every_simulate_run_logs_the_line_data_digest(tmp_path):
    # the operators are built once per process; each run's log still
    # names the data file and its checksum
    data = resources.files("nlfaraday").joinpath("data/rb87_d2.dat").read_bytes()
    line = f"atomic data data/rb87_d2.dat sha256={hashlib.sha256(data).hexdigest()}"
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["simulate", "--n-photons", "1e6", "--out", str(out)]) == cli.EXIT_OK
        assert line in (out / "run.log").read_text()
    assert cli._operator_set.cache_info().misses == 1


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
