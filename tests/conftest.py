"""Shared fixtures.

The expensive artifacts (operator set, located coefficient crossing, a
far-detuned reference run, one full coefficients-scan CLI run) are
session-scoped so every test file reuses the same instances.
"""
import numpy as np
import pytest

from nlfaraday.atom import build_dipole_operators, build_level_scheme
from nlfaraday.geometry import BeamGeometry, CloudGeometry, PulseSpec

FAR_DETUNING = 2 * np.pi * 1.5e9


@pytest.fixture(scope="session")
def scheme():
    return build_level_scheme()


@pytest.fixture(scope="session")
def ops(scheme):
    return build_dipole_operators(scheme)


@pytest.fixture(scope="session")
def beam(scheme):
    return BeamGeometry(waist=20e-6, wavelength=scheme.wavelength)


@pytest.fixture(scope="session")
def cloud():
    return CloudGeometry()


@pytest.fixture(scope="session")
def sim_crossing(ops, beam, cloud):
    """Detuning where the simulated low-energy rotation changes sign."""
    from nlfaraday import dynamics as dyn

    return dyn.locate_crossing(ops, beam, cloud)


@pytest.fixture(scope="session")
def far_run(ops, beam, cloud):
    """Far-detuned (linear-probe regime) reference run at default nodes."""
    from nlfaraday import dynamics as dyn

    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=FAR_DETUNING)
    return dyn.detected_stokes(pulse, beam, cloud, ops)


@pytest.fixture(scope="session")
def scan_dir(tmp_path_factory):
    """One coefficients-scan CLI run shared by the CLI and acceptance tests."""
    from nlfaraday import cli

    out = tmp_path_factory.mktemp("coeff-scan")
    rc = cli.main([
        "coefficients-scan", "--scan-points", "5", "--seed", "7",
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    return out


def read_csv_columns(path):
    """Tiny CSV reader: header line plus float-or-string cells."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, cell in zip(header, ln.split(",")):
            try:
                cols[h].append(float(cell))
            except ValueError:
                cols[h].append(cell)
    return {h: (np.asarray(v) if v and isinstance(v[0], float) else v) for h, v in cols.items()}


def read_report(path):
    """Parse a 'name = value [+- err]' fit report into a dict."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition("=")
            parts = rest.split("+-")
            value = float(parts[0])
            err = float(parts[1]) if len(parts) == 2 else None
            out[name.strip()] = (value, err)
    return out
