"""Synthetic three-probe correlation campaigns and their CSV files.

Each prepared sample is probed three times: a weak linear probe reading
the collective spin, a strong nonlinear probe whose rotation grows with
photon number, and a second linear probe revealing how much polarization
the strong pulse destroyed.  The polarimeter model adds shot noise and
electronic noise; campaigns sweep atom number to produce correlation
datasets between the two rotations.

Noise conventions (two detection interfaces, matching their consumers):

- Rotation angles carry Gaussian noise of variance
  1/(4 N) + V_el/N^2 (rad^2): shot noise with standard deviation
  N^(-1/2)/2 plus the electronic floor referred to angle units.
- Raw differential photon counts S_y (no atoms, detector
  characterization) carry variance V_el + N + c N^2 in count^2 units.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import ResponseModel, ScalingCurve
from .exceptions import InvalidConfig

CSV_SCHEMA_VERSION = 1
_PROBE_TAGS = ("L1", "NL", "L2")


@dataclass(frozen=True)
class PolarimeterModel:
    """Detection-chain noise parameters.

    Electronic variances are in photon-count^2 units per pulse, one value
    for the linear-probe chain and one for the nonlinear-probe chain.
    ``technical_coefficient`` scales the N^2 term seen in raw S_y counts.
    """

    v_linear: float = 3.0e5
    v_nonlinear: float = 4.0e5
    technical_coefficient: float = 0.0
    transmission_h: float = 1.0
    transmission_v: float = 1.0
    shot_noise: bool = True
    electronic_noise: bool = True

    def __post_init__(self):
        if self.v_linear < 0 or self.v_nonlinear < 0:
            raise InvalidConfig("electronic variances must be non-negative")
        if self.technical_coefficient < 0:
            raise InvalidConfig("technical-noise coefficient must be non-negative")
        for t in (self.transmission_h, self.transmission_v):
            if not 0.0 < t <= 1.0:
                raise InvalidConfig("transmissions must lie in (0, 1]")

    def electronic_variance(self, probe_tag: str) -> float:
        return self.v_nonlinear if probe_tag == "NL" else self.v_linear

    def phi_variance(self, n_photons: float, probe_tag: str) -> float:
        """Variance of the measured rotation angle in rad^2."""
        var = 0.0
        if self.shot_noise:
            var += 0.25 / n_photons
        if self.electronic_noise:
            var += self.electronic_variance(probe_tag) / n_photons**2
        return var

    def counts_variance(self, n_photons: float) -> float:
        """Raw S_y variance with no atoms (detector characterization)."""
        var = 0.0
        if self.electronic_noise:
            var += self.v_nonlinear
        if self.shot_noise:
            var += n_photons
        var += self.technical_coefficient * n_photons**2
        return var

    def noiseless(self) -> "PolarimeterModel":
        return replace(self, shot_noise=False, electronic_noise=False)


@dataclass(frozen=True)
class StokesRecord:
    """One polarimeter reading."""

    probe_tag: str
    n_photons: float
    s_x: float
    s_y: float
    phi: float
    n_atoms: float
    sample_index: int
    transmission_h: float = 1.0
    transmission_v: float = 1.0

    def __post_init__(self):
        if self.probe_tag not in _PROBE_TAGS:
            raise InvalidConfig(f"unknown probe tag {self.probe_tag!r}")
        if self.n_photons <= 0:
            raise InvalidConfig("photon number must be positive")
        if abs(self.s_y) > self.s_x:
            raise InvalidConfig("|S_y| exceeds S_x: rotation outside physical range")
        for t in (self.transmission_h, self.transmission_v):
            if not 0.0 < t <= 1.0:
                raise InvalidConfig("transmissions must lie in (0, 1]")

    def phi_from_stokes(self) -> float:
        """Reconstruct the angle from the stored Stokes pair."""
        return self.s_y / (self.s_x * math.sqrt(self.transmission_h * self.transmission_v))


@dataclass(frozen=True)
class CampaignResult:
    """Correlation campaign at fixed nonlinear photon number.

    One row per sample, in file order: the ``samples`` live samples, then
    the zero-atom controls.  ``noise`` is the polarimeter model the angles
    were drawn with; the CSV header records its transmissions and
    electronic variances.
    """

    n_nonlinear: float
    n_linear: float
    n_atoms: np.ndarray
    phi_linear: np.ndarray
    phi_nonlinear: np.ndarray
    phi_linear_after: np.ndarray
    is_control: np.ndarray
    seed: int
    noise: PolarimeterModel

    def pairs(self, include_controls: bool = False) -> np.ndarray:
        """(phi_L, phi_NL) pairs for the calibration regression."""
        keep = slice(None) if include_controls else ~self.is_control
        return np.column_stack([self.phi_linear[keep], self.phi_nonlinear[keep]])

    def probes(self):
        """(tag, photon number, angles, S_y counts) of L1, NL and L2.

        S_x is the photon number; S_y = phi * N * sqrt(T_h T_v), so
        ``StokesRecord.phi_from_stokes`` recovers the angle.
        """
        root_t = math.sqrt(self.noise.transmission_h * self.noise.transmission_v)
        return [
            (tag, n, phi, phi * n * root_t)
            for tag, n, phi in zip(
                _PROBE_TAGS,
                (self.n_linear, self.n_nonlinear, self.n_linear),
                (self.phi_linear, self.phi_nonlinear, self.phi_linear_after),
            )
        ]


def generate_correlation_campaign(
    n_nonlinear: float,
    atom_range=(1.5e5, 3.5e5),
    samples: int = 50,
    noise: PolarimeterModel = None,
    seed=None,
    response=None,
    n_linear: float = 4e6,
    controls: int = 5,
) -> CampaignResult:
    """Sweep atom number at fixed N_NL and record all three angles.

    Each sample is probed three times: linear (L1), nonlinear (NL), and
    linear again (L2), which sees the spin the nonlinear probe's damage
    left.  Sample ``i`` draws from its own stream ``default_rng([seed,
    i])``, so campaigns are reproducible regardless of evaluation order:
    a live sample draws its atom number uniform over ``atom_range``, then
    one standard normal per probe; the ``controls`` zero-atom samples draw
    only the normals.  Each angle is the response-model mean plus its
    normal times ``sqrt(noise.phi_variance)``.
    """
    if samples < 10:
        raise InvalidConfig("campaigns need at least 10 samples")
    lo, hi = (float(a) for a in atom_range)
    if not 0 <= lo < hi:
        raise InvalidConfig("atom range must satisfy 0 <= lo < hi")
    if n_linear <= 0 or n_nonlinear <= 0:
        raise InvalidConfig("photon numbers must be positive")
    noise = noise or PolarimeterModel()
    response = response or ResponseModel()
    if seed is None:
        seed = int(np.random.default_rng().integers(2**31 - 1))
    seed = int(seed)

    total = samples + controls
    n_atoms = np.zeros(total)
    draws = np.empty((total, len(_PROBE_TAGS)))
    for i in range(total):
        rng = np.random.default_rng([seed, i])
        if i < samples:
            n_atoms[i] = rng.uniform(lo, hi)
        draws[i] = rng.standard_normal(len(_PROBE_TAGS))

    eta = response.damage(n_nonlinear)
    true = (
        response.linear_rotation(n_atoms),
        response.nonlinear_rotation(n_atoms, n_nonlinear),
        response.linear_rotation(n_atoms * (1.0 - eta)),
    )
    phis = [
        mean + z * math.sqrt(noise.phi_variance(n, tag))
        for tag, n, mean, z in zip(_PROBE_TAGS, (n_linear, n_nonlinear, n_linear), true, draws.T)
    ]

    camp = CampaignResult(
        n_nonlinear=float(n_nonlinear),
        n_linear=float(n_linear),
        n_atoms=n_atoms,
        phi_linear=phis[0],
        phi_nonlinear=phis[1],
        phi_linear_after=phis[2],
        is_control=np.arange(total) >= samples,
        seed=seed,
        noise=noise,
    )
    for _, n, _, s_y in camp.probes():
        if np.any(np.abs(s_y) > n):
            raise InvalidConfig("|S_y| exceeds S_x: rotation outside physical range")
    return camp


def polarimeter_noise_scan(
    photon_numbers,
    noise: PolarimeterModel = None,
    samples: int = 400,
    seed=None,
):
    """Detector characterization without atoms: sample var(S_y) vs N.

    Returns (photon_numbers, estimated variances) as arrays; the model
    variance is V_el + N + c N^2 in count^2 units (nonlinear chain).
    """
    if samples < 2:
        raise InvalidConfig("variance estimation needs at least 2 samples")
    noise = noise or PolarimeterModel()
    rng = np.random.default_rng(seed)
    n = np.asarray(sorted(photon_numbers), dtype=float)
    if np.any(n <= 0):
        raise InvalidConfig("photon numbers must be positive")
    variances = np.empty_like(n)
    for i, nn in enumerate(n):
        sd = math.sqrt(noise.counts_variance(nn))
        draws = rng.standard_normal(samples) * sd
        variances[i] = np.var(draws, ddof=1)
    return n, variances


def waveplate_control_run(
    rotation: float = 4e-3,
    photon_numbers=None,
    noise: PolarimeterModel = None,
    seed=None,
    samples: int = 400,
) -> ScalingCurve:
    """Instrumental-linearity control: a fixed rotation, no atoms.

    Repeats the angle measurement ``samples`` times per photon number and
    returns the fractional angle sensitivity curve.  The mean measured
    angle per photon number is stored in ``meta['mean_angle']``; with an
    ideal instrument it is constant, and after removing the electronic
    floor the scatter scales as N^(-1/2).  The default photon grid spans
    the range the nonlinear probe actually uses.
    """
    if abs(rotation) >= 0.1:
        raise InvalidConfig("waveplate rotation must stay in the small-angle regime")
    if rotation == 0:
        raise InvalidConfig("waveplate rotation must be nonzero")
    if photon_numbers is None:
        photon_numbers = np.logspace(6.0, 8.0, 13)
    noise = noise or PolarimeterModel()
    rng = np.random.default_rng(seed)
    n = np.asarray(sorted(photon_numbers), dtype=float)
    means = np.empty_like(n)
    stds = np.empty_like(n)
    for i, nn in enumerate(n):
        sd = math.sqrt(noise.phi_variance(nn, "NL"))
        draws = rotation + rng.standard_normal(samples) * sd
        means[i] = np.mean(draws)
        stds[i] = np.std(draws, ddof=1)
    if np.any(stds <= 0):
        # noiseless mode: report the model floor so the curve stays valid
        stds = np.maximum(stds, 1e-300)
    return ScalingCurve(
        n, stds / abs(rotation),
        meta={"mean_angle": means, "rotation": rotation, "samples": samples},
    )


def write_campaign_csv(path, campaign: CampaignResult):
    """Serialize a campaign, three rows per sample, under a reproducibility header.

    The header carries the detector transmissions and electronic
    variances of ``campaign.noise``, once for the file:
    ``read_campaign_csv`` applies the transmissions to every record, so a
    reloaded record's ``phi_from_stokes`` matches its angle.
    """
    noise = campaign.noise
    buf = io.StringIO()
    buf.write(f"# schema_version = {CSV_SCHEMA_VERSION}\n")
    buf.write(f"# n_nonlinear = {campaign.n_nonlinear:.17g}\n")
    buf.write(f"# n_linear = {campaign.n_linear:.17g}\n")
    buf.write(f"# seed = {campaign.seed}\n")
    buf.write(f"# transmission_h = {noise.transmission_h:.17g}\n")
    buf.write(f"# transmission_v = {noise.transmission_v:.17g}\n")
    buf.write(f"# v_linear = {noise.v_linear:.17g}\n")
    buf.write(f"# v_nonlinear = {noise.v_nonlinear:.17g}\n")
    buf.write("probe_tag,n_photons,s_x,s_y,phi,n_atoms,sample_index\n")
    columns = [(tag, n, phi.tolist(), s_y.tolist()) for tag, n, phi, s_y in campaign.probes()]
    for i, na in enumerate(campaign.n_atoms.tolist()):
        for tag, n, phi, s_y in columns:
            buf.write(f"{tag},{n:.17g},{n:.17g},{s_y[i]:.17g},{phi[i]:.17g},{na:.17g},{i}\n")
    text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text


def _header_number(path, meta: dict, key: str, default=None) -> float:
    text = meta.get(key, default)
    try:
        return float(text)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{path}: {key} {text!r} is not a number") from None


def _header_transmission(path, meta: dict, key: str) -> float:
    value = _header_number(path, meta, key, "1.0")
    if not 0.0 < value <= 1.0:
        raise InvalidConfig(f"{path}: {key} {meta[key]!r} does not lie in (0, 1]")
    return value


def read_campaign_csv(path):
    """Load a campaign CSV; returns (records, metadata dict).

    The ``transmission_h`` and ``transmission_v`` header values (1.0 when
    absent) are applied to every record.  Raises InvalidConfig, naming the
    file, for an unreadable file, a file with no column header or no data
    rows, unexpected columns, a missing or different ``schema_version``, a
    transmission outside (0, 1], a non-numeric ``n_linear``, and an
    ``n_nonlinear`` that is missing, not a finite positive number, or not
    the photon number of every NL row; and, naming the line, for a row
    with the wrong number of cells, a non-numeric cell, or a reading
    ``StokesRecord`` rejects.
    """
    meta = {}
    records = []
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidConfig(f"cannot read campaign CSV {path}: {exc}") from None
    expected = ["probe_tag", "n_photons", "s_x", "s_y", "phi", "n_atoms", "sample_index"]
    with fh:
        header = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = line.split(",")
                if header != expected:
                    raise InvalidConfig(f"unexpected campaign CSV columns: {header}")
                version = meta.get("schema_version")
                if version != str(CSV_SCHEMA_VERSION):
                    raise InvalidConfig(
                        f"{path}: schema_version {version} is not {CSV_SCHEMA_VERSION}"
                    )
                t_h, t_v = (_header_transmission(path, meta, f"transmission_{s}") for s in "hv")
                continue
            cells = line.split(",")
            if len(cells) != len(expected):
                raise InvalidConfig(
                    f"{path}, line {lineno}: {len(cells)} cells, expected {len(expected)}"
                )
            tag, n, sx, sy, phi, na, idx = cells
            try:
                record = StokesRecord(
                    probe_tag=tag,
                    n_photons=float(n),
                    s_x=float(sx),
                    s_y=float(sy),
                    phi=float(phi),
                    n_atoms=float(na),
                    sample_index=int(idx),
                    transmission_h=t_h,
                    transmission_v=t_v,
                )
            except (ValueError, InvalidConfig) as exc:
                raise InvalidConfig(f"{path}, line {lineno}: {exc}") from None
            records.append(record)
    if header is None:
        raise InvalidConfig(f"{path}: no column header")
    if not records:
        raise InvalidConfig(f"{path}: no data rows")
    if "n_linear" in meta:
        _header_number(path, meta, "n_linear")
    n_nl = _header_number(path, meta, "n_nonlinear")
    if not (math.isfinite(n_nl) and n_nl > 0):
        raise InvalidConfig(f"{path}: n_nonlinear {n_nl!r} is not a finite positive number")
    for r in records:
        if r.probe_tag == "NL" and r.n_photons != n_nl:
            raise InvalidConfig(
                f"{path}: NL photon number {r.n_photons:.17g} of sample {r.sample_index} "
                f"differs from n_nonlinear {n_nl:.17g}"
            )
    return records, meta
