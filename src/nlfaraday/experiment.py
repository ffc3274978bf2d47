"""Three-probe measurement sequences and synthetic campaign generation.

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
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import ResponseModel, ScalingCurve
from .exceptions import InvalidConfig
from .geometry import BeamGeometry, CloudGeometry, PulseSpec

log = logging.getLogger(__name__)

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


class SimulatedResponse:
    """Response model backed by the master-equation dynamics.

    Per-atom rotations are computed once per (detuning, pulse) request and
    cached; the detected signal is linear in atom number by construction,
    so scaling the cached per-atom values to F_z is exact.  Slow compared
    to ResponseModel: each new photon number costs a full cloud
    integration.
    """

    def __init__(
        self,
        model,
        beam: BeamGeometry = None,
        cloud: CloudGeometry = None,
        linear_detuning: float = 2 * math.pi * 1.5e9,
        nonlinear_detuning: float = None,
        linear_pulse_fwhm: float = 1e-6,
        nonlinear_pulse_fwhm: float = 54e-9,
        n_radial: int = 9,
        n_long: int = 9,
    ):
        from . import dynamics as _dyn

        self._dyn = _dyn
        self._model = model
        self._beam = beam or BeamGeometry(wavelength=model.scheme.wavelength)
        self._cloud = cloud or CloudGeometry()
        self._linear_detuning = linear_detuning
        if nonlinear_detuning is None:
            nonlinear_detuning = _dyn.locate_crossing(model, self._beam, self._cloud)
        self._nonlinear_detuning = nonlinear_detuning
        self._linear_fwhm = linear_pulse_fwhm
        self._nonlinear_fwhm = nonlinear_pulse_fwhm
        self._nodes = (n_radial, n_long)
        self._cache = {}

    def _per_atom(self, detuning, fwhm, shape, n_photons):
        key = (detuning, fwhm, shape, n_photons)
        if key not in self._cache:
            pulse = PulseSpec(shape=shape, fwhm=fwhm, n_photons=n_photons, detuning=detuning)
            res = self._dyn.detected_stokes(
                pulse, self._beam, self._cloud, self._model,
                n_radial=self._nodes[0], n_long=self._nodes[1],
            )
            self._cache[key] = (res.rotation_per_atom, res.damage_detected)
        return self._cache[key]

    def linear_rotation(self, f_z: float, n_photons: float = 4e6) -> float:
        rot, _ = self._per_atom(self._linear_detuning, self._linear_fwhm, "flat-train", n_photons)
        return rot * f_z

    def nonlinear_rotation(self, f_z: float, n_photons: float) -> float:
        rot, _ = self._per_atom(self._nonlinear_detuning, self._nonlinear_fwhm, "gaussian", n_photons)
        return rot * f_z

    def damage(self, n_photons: float) -> float:
        _, dmg = self._per_atom(self._nonlinear_detuning, self._nonlinear_fwhm, "gaussian", n_photons)
        return dmg


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


def _make_record(tag, n_photons, phi, n_atoms, index, noise) -> StokesRecord:
    root_t = math.sqrt(noise.transmission_h * noise.transmission_v)
    return StokesRecord(
        probe_tag=tag,
        n_photons=n_photons,
        s_x=n_photons,
        s_y=phi * n_photons * root_t,
        phi=phi,
        n_atoms=n_atoms,
        sample_index=index,
        transmission_h=noise.transmission_h,
        transmission_v=noise.transmission_v,
    )


@dataclass(frozen=True)
class SequenceResult:
    """Measured and true angles for one three-probe sequence."""

    phi_linear: float
    phi_nonlinear: float
    phi_linear_after: float
    phi_linear_true: float
    phi_nonlinear_true: float
    phi_linear_after_true: float
    f_z: float
    n_linear: float
    n_nonlinear: float
    damage_true: float
    records: tuple

    @property
    def damage_estimate(self) -> float:
        """eta = 1 - phi_L'/phi_L; NaN when the linear angle vanishes."""
        if self.phi_linear == 0:
            return float("nan")
        return 1.0 - self.phi_linear_after / self.phi_linear


def run_sequence(
    f_z: float,
    n_linear: float,
    n_nonlinear: float,
    noise: PolarimeterModel = None,
    seed=None,
    response=None,
    n_atoms: float = None,
    rng: np.random.Generator = None,
    sample_index: int = 0,
) -> SequenceResult:
    """Probe one prepared sample: linear, nonlinear, linear again.

    ``f_z`` is the prepared collective spin (atom units; at most one per
    atom).  Angles are the response-model means plus Gaussian noise per
    the polarimeter model.  The nonlinear probe's damage reduces the spin
    seen by the second linear probe.
    """
    if n_linear <= 0 or n_nonlinear <= 0:
        raise InvalidConfig("photon numbers must be positive")
    if n_atoms is not None and abs(f_z) > n_atoms:
        raise InvalidConfig("collective spin cannot exceed the atom number")
    noise = noise or PolarimeterModel()
    response = response or ResponseModel()
    if rng is None:
        rng = np.random.default_rng(seed)

    phi_l_true = response.linear_rotation(f_z)
    phi_nl_true = response.nonlinear_rotation(f_z, n_nonlinear)
    eta = response.damage(n_nonlinear)
    phi_l2_true = response.linear_rotation(f_z * (1.0 - eta))

    out = []
    for tag, n, true in (
        ("L1", n_linear, phi_l_true),
        ("NL", n_nonlinear, phi_nl_true),
        ("L2", n_linear, phi_l2_true),
    ):
        var = noise.phi_variance(n, tag)
        phi = true + rng.standard_normal() * math.sqrt(var) if var > 0 else true
        out.append(phi)
    records = tuple(
        _make_record(tag, n, phi, f_z if n_atoms is None else n_atoms, sample_index, noise)
        for (tag, n), phi in zip((("L1", n_linear), ("NL", n_nonlinear), ("L2", n_linear)), out)
    )
    return SequenceResult(
        phi_linear=out[0],
        phi_nonlinear=out[1],
        phi_linear_after=out[2],
        phi_linear_true=phi_l_true,
        phi_nonlinear_true=phi_nl_true,
        phi_linear_after_true=phi_l2_true,
        f_z=f_z,
        n_linear=n_linear,
        n_nonlinear=n_nonlinear,
        damage_true=eta,
        records=records,
    )


@dataclass(frozen=True)
class CampaignResult:
    """Correlation campaign at fixed nonlinear photon number."""

    n_nonlinear: float
    n_linear: float
    n_atoms: np.ndarray
    f_z: np.ndarray
    phi_linear: np.ndarray
    phi_nonlinear: np.ndarray
    phi_linear_after: np.ndarray
    is_control: np.ndarray
    seed: int
    records: tuple = field(repr=False, default=())

    def pairs(self, include_controls: bool = False) -> np.ndarray:
        """(phi_L, phi_NL) pairs for the calibration regression."""
        keep = slice(None) if include_controls else ~self.is_control
        return np.column_stack([self.phi_linear[keep], self.phi_nonlinear[keep]])


def generate_correlation_campaign(
    n_nonlinear: float,
    atom_range=(1.5e5, 3.5e5),
    samples: int = 50,
    noise: PolarimeterModel = None,
    seed=None,
    response=None,
    n_linear: float = 4e6,
    controls: int = 5,
    polarization: float = 1.0,
    repreparation_loss: float = 0.0,
) -> CampaignResult:
    """Sweep atom number at fixed N_NL and record all three angles.

    Atom numbers are uniform over ``atom_range``; ``controls`` extra
    samples run with zero atoms.  Every sample draws from its own RNG
    stream derived from (seed, index), so campaigns are reproducible
    regardless of evaluation order.  ``repreparation_loss`` optionally
    makes atom numbers a decaying reload sequence instead of i.i.d.
    """
    if samples < 10:
        raise InvalidConfig("campaigns need at least 10 samples")
    lo, hi = (float(a) for a in atom_range)
    if not 0 <= lo < hi:
        raise InvalidConfig("atom range must satisfy 0 <= lo < hi")
    if not 0.0 <= repreparation_loss < 1.0:
        raise InvalidConfig("repreparation loss must lie in [0, 1)")
    noise = noise or PolarimeterModel()
    response = response or ResponseModel()
    if seed is None:
        seed = int(np.random.default_rng().integers(2**31 - 1))
    seed = int(seed)

    n_atoms, f_z, phi_l, phi_nl, phi_l2, is_ctl = [], [], [], [], [], []
    all_records = []
    reload_level = hi
    for i in range(samples + controls):
        rng = np.random.default_rng([seed, i])
        control = i >= samples
        if control:
            na = 0.0
        elif repreparation_loss > 0:
            # decaying reload sequence: each preparation loses a fraction,
            # the trap refills once the number leaves the working range
            na = reload_level
            reload_level *= 1.0 - repreparation_loss
            if reload_level < lo:
                reload_level = hi
        else:
            na = rng.uniform(lo, hi)
        fz = polarization * na
        res = run_sequence(
            fz, n_linear, n_nonlinear, noise,
            response=response, n_atoms=na, rng=rng, sample_index=i,
        )
        n_atoms.append(na)
        f_z.append(fz)
        phi_l.append(res.phi_linear)
        phi_nl.append(res.phi_nonlinear)
        phi_l2.append(res.phi_linear_after)
        is_ctl.append(control)
        all_records.extend(res.records)

    return CampaignResult(
        n_nonlinear=float(n_nonlinear),
        n_linear=float(n_linear),
        n_atoms=np.asarray(n_atoms),
        f_z=np.asarray(f_z),
        phi_linear=np.asarray(phi_l),
        phi_nonlinear=np.asarray(phi_nl),
        phi_linear_after=np.asarray(phi_l2),
        is_control=np.asarray(is_ctl, dtype=bool),
        seed=seed,
        records=tuple(all_records),
    )


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


def write_campaign_csv(path, campaign: CampaignResult, noise: PolarimeterModel = None):
    """Serialize campaign records with a reproducibility header.

    The detector transmissions go into the header, once for the file:
    ``read_campaign_csv`` applies them to every record, so a reloaded
    record's ``phi_from_stokes`` matches the original's.  Raises
    InvalidConfig when the records carry different transmissions.
    """
    transmissions = {(r.transmission_h, r.transmission_v) for r in campaign.records}
    if len(transmissions) > 1:
        raise InvalidConfig("campaign records carry different detector transmissions")
    ((t_h, t_v),) = transmissions or {(1.0, 1.0)}
    buf = io.StringIO()
    buf.write(f"# schema_version = {CSV_SCHEMA_VERSION}\n")
    buf.write(f"# n_nonlinear = {campaign.n_nonlinear:.17g}\n")
    buf.write(f"# n_linear = {campaign.n_linear:.17g}\n")
    buf.write(f"# seed = {campaign.seed}\n")
    buf.write(f"# transmission_h = {t_h:.17g}\n")
    buf.write(f"# transmission_v = {t_v:.17g}\n")
    if noise is not None:
        buf.write(f"# v_linear = {noise.v_linear:.17g}\n")
        buf.write(f"# v_nonlinear = {noise.v_nonlinear:.17g}\n")
    buf.write("probe_tag,n_photons,s_x,s_y,phi,n_atoms,sample_index\n")
    for r in campaign.records:
        buf.write(
            f"{r.probe_tag},{r.n_photons:.17g},{r.s_x:.17g},{r.s_y:.17g},"
            f"{r.phi:.17g},{r.n_atoms:.17g},{r.sample_index}\n"
        )
    text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text


def _header_transmission(path, meta: dict, key: str) -> float:
    text = meta.get(key, "1.0")
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:
        raise InvalidConfig(f"{path}: {key} {text!r} does not lie in (0, 1]")
    return value


def read_campaign_csv(path):
    """Load a campaign CSV; returns (records, metadata dict).

    The ``transmission_h`` and ``transmission_v`` header values (1.0 when
    absent) are applied to every record.  Raises InvalidConfig for an
    unreadable file, unexpected columns, a missing or different
    ``schema_version``, a transmission outside (0, 1], and for a row with
    the wrong number of cells or a non-numeric cell (naming the file and
    line).
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
    return records, meta
