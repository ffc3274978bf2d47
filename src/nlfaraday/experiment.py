"""Synthetic three-probe correlation campaigns and their CSV files.

Each prepared sample is probed three times: a weak linear probe reading
the collective spin, a strong nonlinear probe whose rotation grows with
photon number, and a second linear probe revealing how much polarization
the strong pulse destroyed.  The polarimeter model adds shot noise and
electronic noise; campaigns sweep atom number to produce correlation
datasets between the two rotations.  A campaign draws all its random
numbers from one stream per seed, so campaign files written at the same
seed by versions that drew one stream per sample hold other values.
``write_campaign_csv`` hands a campaign as columns to
``config.write_table``, the writer of every CSV table the package makes.

Noise conventions (two detection interfaces, matching their consumers):

- Rotation angles carry Gaussian noise of variance
  1/(4 N) + V_el/N^2 (rad^2): shot noise with standard deviation
  N^(-1/2)/2 plus the electronic floor referred to angle units.
- Raw differential photon counts S_y (no atoms, detector
  characterization) carry variance V_el + N + c N^2 in count^2 units.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import ResponseModel, ScalingCurve
from .config import MAX_COUNT, Range, check_fields, ranged, write_table
from .exceptions import InvalidConfig, NlfaradayError

CSV_SCHEMA_VERSION = 1
MIN_SAMPLES = 10  # live samples a correlation campaign needs
# photon numbers whose square is a finite normal float: the angle
# variance divides by that square
_SQUARABLE_PHOTONS = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))
_PHOTONS = Range(*_SQUARABLE_PHOTONS, "photon numbers must be positive, with N^2 a finite normal float")
_ATOMS = Range(0.0, 1e150, "atom numbers are non-negative, and the rotation linear in them must stay finite")
# generate_correlation_campaign's scalar arguments; atom_lo and atom_hi bound atom_range
CAMPAIGN_RANGES = {
    "n_nonlinear": _PHOTONS, "n_linear": _PHOTONS, "atom_lo": _ATOMS, "atom_hi": _ATOMS,
    "samples": Range(MIN_SAMPLES, MAX_COUNT, f"a campaign regresses {MIN_SAMPLES} live samples or more"),
    "controls": Range(0, MAX_COUNT, "a count is non-negative"),
}
_VARIANCE = (0.0, sys.float_info.max, "a variance term is a non-negative finite number")
_PROBE_TAGS = ("L1", "NL", "L2")
_TAG_CODES = {tag: k for k, tag in enumerate(_PROBE_TAGS)}
# one field per campaign CSV column, in file order
_ROW_DTYPE = np.dtype([
    ("probe_tag", "U2"), ("n_photons", float), ("s_x", float), ("s_y", float),
    ("phi", float), ("n_atoms", float), ("sample_index", np.int64),
])


@dataclass(frozen=True)
class PolarimeterModel:
    """Detection-chain noise parameters.

    Electronic variances are in photon-count^2 units per pulse, one value
    for the linear-probe chain and one for the nonlinear-probe chain.
    ``technical_coefficient`` scales the N^2 term seen in raw S_y counts.
    """

    v_linear: float = ranged(*_VARIANCE, 3.0e5)
    v_nonlinear: float = ranged(*_VARIANCE, 4.0e5)
    technical_coefficient: float = ranged(*_VARIANCE, 0.0)
    transmission_h: float = ranged(5e-324, 1.0, "a transmission lies in (0, 1]", 1.0)
    transmission_v: float = ranged(5e-324, 1.0, "a transmission lies in (0, 1]", 1.0)
    shot_noise: bool = True
    electronic_noise: bool = True

    def __post_init__(self):
        check_fields(self)
        # S_y carries sqrt(t_h t_v): were it 0, no angle could be read back
        if math.sqrt(self.transmission_h * self.transmission_v) == 0.0:
            raise InvalidConfig(
                f"transmissions {self.transmission_h:.17g} and {self.transmission_v:.17g}: sqrt(t_h * t_v) underflows to 0"
            )

    def electronic_variance(self, probe_tag: str) -> float:
        return self.v_nonlinear if probe_tag == "NL" else self.v_linear

    def phi_variance(self, n_photons: float, probe_tag: str) -> float:
        """Variance of the measured rotation angle in rad^2.

        Raises InvalidConfig where it is not a finite number.  The
        electronic term divides by N^2, so N must lie in
        ``_SQUARABLE_PHOTONS`` (about 1.5e-154 to 1.3e154 photons).
        """
        var = math.inf
        if _SQUARABLE_PHOTONS[0] <= n_photons <= _SQUARABLE_PHOTONS[1]:
            var = 0.0
            if self.shot_noise:
                var += 0.25 / n_photons
            if self.electronic_noise:
                var += self.electronic_variance(probe_tag) / n_photons**2
        if not math.isfinite(var):
            raise InvalidConfig(f"{probe_tag} angle variance at {n_photons:g} photons is not a finite number")
        return var

    def counts_variance(self, n_photons: float) -> float:
        """Raw S_y variance with no atoms (detector characterization).

        Raises InvalidConfig for a photon number below 0 or NaN, and where
        the variance is not a finite number: the technical term squares N,
        so N must not exceed ``_SQUARABLE_PHOTONS[1]`` (about 1.3e154).
        """
        if not n_photons >= 0.0:
            raise InvalidConfig(f"S_y variance needs a photon number >= 0, got {n_photons:g}")
        var = math.inf
        if n_photons <= _SQUARABLE_PHOTONS[1]:
            var = 0.0
            if self.electronic_noise:
                var += self.v_nonlinear
            if self.shot_noise:
                var += n_photons
            var += self.technical_coefficient * n_photons**2
        if not math.isfinite(var):
            raise InvalidConfig(f"S_y variance at {n_photons:g} photons is not a finite number")
        return var

    def noiseless(self) -> "PolarimeterModel":
        return replace(self, shot_noise=False, electronic_noise=False)


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
        S_y / (S_x sqrt(T_h T_v)) recovers the angle.
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
    left.  The whole campaign is one stream, ``default_rng(seed)``: first
    the ``samples`` live atom numbers, uniform over ``atom_range``, then a
    (samples + controls, 3) block of standard normals, one row per sample
    and one column per probe; the ``controls`` zero-atom samples come
    last.  Each angle is the response-model mean plus its normal times
    ``sqrt(noise.phi_variance)``.  Raises InvalidConfig, drawing nothing, for
    a scalar outside ``CAMPAIGN_RANGES``, atom_lo >= atom_hi, a non-finite angle
    variance or a mean angle that puts |S_y| above S_x; NlfaradayError for a draw that does.
    """
    noise = noise or PolarimeterModel()
    response = response or ResponseModel()
    lo, hi = (float(a) for a in atom_range)
    scalars = dict(n_nonlinear=n_nonlinear, n_linear=n_linear, atom_lo=lo, atom_hi=hi, samples=samples, controls=controls)
    for name, value in scalars.items():
        CAMPAIGN_RANGES[name].check(name, value)
    if not lo < hi:
        raise InvalidConfig(f"atom_lo = {lo} is not below atom_hi = {hi}")
    noise.phi_variance(n_linear, "L1")
    noise.phi_variance(n_nonlinear, "NL")
    peak = max(abs(response.linear_rotation(hi)), abs(response.nonlinear_rotation(hi, n_nonlinear)))
    if not peak * math.sqrt(noise.transmission_h * noise.transmission_v) <= 1.0:
        raise InvalidConfig(f"|S_y| exceeds S_x: the mean rotation at {hi:g} atoms is {peak:.4g} rad")
    if seed is None:
        seed = int(np.random.default_rng().integers(2**31 - 1))
    seed = int(seed)

    total = samples + controls
    rng = np.random.default_rng(seed)
    n_atoms = np.zeros(total)
    n_atoms[:samples] = rng.uniform(lo, hi, samples)
    draws = rng.standard_normal((total, len(_PROBE_TAGS)))

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
    for tag, n, phi, s_y in camp.probes():
        if np.any(np.abs(s_y) > n):
            raise NlfaradayError(f"a noise draw put |S_y| above S_x: {tag} angles reach {np.max(np.abs(phi)):.4g} rad")
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
    the range the nonlinear probe actually uses.  Raises InvalidConfig
    unless 1e-150 <= |rotation| < 0.1: a small angle with a finite inverse.
    """
    if not 1e-150 <= abs(rotation) < 0.1:
        raise InvalidConfig(f"rotation = {rotation} is outside the small-angle band 1e-150 <= |rotation| < 0.1")
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
    """Serialize a campaign under a reproducibility header; return the text written.

    Rows are sample-major: the L1, NL and L2 readings of sample 0, then
    of sample 1, and so on.  The header carries the detector
    transmissions and electronic variances of ``campaign.noise``, once
    for the file; every row's S_y is phi * N * sqrt(T_h T_v).
    """
    noise = campaign.noise
    tags, n, phi, s_y = zip(*campaign.probes())
    samples, k = campaign.n_atoms.size, len(_PROBE_TAGS)
    columns = {
        "probe_tag": np.tile(tags, samples), "n_photons": np.tile(n, samples),
        "s_x": np.tile(n, samples), "s_y": np.stack(s_y, axis=1).ravel(),
        "phi": np.stack(phi, axis=1).ravel(), "n_atoms": np.repeat(campaign.n_atoms, k),
        "sample_index": np.repeat(np.arange(samples), k),
    }
    metadata = {
        "schema_version": CSV_SCHEMA_VERSION, "n_nonlinear": campaign.n_nonlinear,
        "n_linear": campaign.n_linear, "seed": campaign.seed,
        **{key: float(getattr(noise, key))
           for key in ("transmission_h", "transmission_v", "v_linear", "v_nonlinear")},
    }
    return write_table(path, columns, metadata)


def _header_number(path, meta: dict, key: str, default=None) -> float:
    text = meta.get(key, default)
    try:
        return float(text)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{path}: {key} {text!r} is not a number") from None


def _header_photons(path, meta: dict, key: str) -> float:
    value = _header_number(path, meta, key)
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(f"{path}: {key} {value!r} is not a finite positive number")
    return value


def _column(path, linenos, texts, kind) -> np.ndarray:
    """One CSV column parsed with ``kind``; InvalidConfig names the first bad line."""
    try:
        return np.fromiter(map(kind, texts), kind, len(texts))
    except (ValueError, OverflowError):
        pass
    for lineno, text in zip(linenos, texts):
        try:
            np.fromiter(map(kind, [text]), kind, 1)
        except (ValueError, OverflowError) as exc:
            raise InvalidConfig(f"{path}, line {lineno}: {exc}") from None


def read_campaign_csv(path):
    """Load a campaign CSV; returns (rows, metadata dict).

    ``rows`` is a structured array with one element per data row, in file
    order, and one field per column (``rows["phi"]`` is the angle
    column).  The metadata maps the key of each ``# key = value`` line,
    wherever it stands, to its value text.  Raises InvalidConfig, naming
    the file, for an unreadable file, a file with
    no column header or no data rows, unexpected columns, a missing or
    different ``schema_version``, a transmission outside (0, 1] or a pair
    whose sqrt(t_h t_v) underflows to 0 (1.0 when absent), an
    ``n_linear`` that is present but not a finite positive number, and an
    ``n_nonlinear`` that is missing or not a finite positive number; and,
    naming the first offending line, for a row with the wrong number of
    cells, a non-numeric cell, a NaN or infinite number or a non-integer
    sample index, an unknown probe tag, a photon number that is not
    positive, |S_y| > S_x, a repeated (sample_index, probe_tag) pair, and
    an NL row whose photon number is not ``n_nonlinear``.
    """
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh.read().split("\n")]
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read campaign CSV {path}: {exc}") from None
    meta = {}
    for line in lines:
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
    data = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
    if not data:
        raise InvalidConfig(f"{path}: no column header")
    header = lines[data[0]].split(",")
    width = len(_ROW_DTYPE.names)
    if header != list(_ROW_DTYPE.names):
        raise InvalidConfig(f"{path}: unexpected campaign CSV columns: {header}")
    version = meta.get("schema_version")
    if version != str(CSV_SCHEMA_VERSION):
        raise InvalidConfig(f"{path}: schema_version {version} is not {CSV_SCHEMA_VERSION}")
    t_h, t_v = (_header_number(path, meta, f"transmission_{s}", "1.0") for s in "hv")
    try:
        PolarimeterModel(transmission_h=t_h, transmission_v=t_v)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from None
    body = [lines[k] for k in data[1:]]
    if not body:
        raise InvalidConfig(f"{path}: no data rows")
    linenos = [k + 1 for k in data[1:]]

    def reject(bad, message):
        i = int(np.argmax(bad))
        if bad[i]:
            raise InvalidConfig(f"{path}, line {linenos[i]}: {message(i)}")

    widths = np.fromiter((line.count(",") + 1 for line in body), int, len(body))
    reject(widths != width, lambda i: f"{widths[i]} cells, expected {width}")
    cells = ",".join(body).split(",")
    texts = [cells[k::width] for k in range(width)]
    rows = np.empty(len(body), _ROW_DTYPE)
    for name, column in zip(_ROW_DTYPE.names[1:], texts[1:]):
        rows[name] = _column(path, linenos, column, int if name == "sample_index" else float)
    floats = [name for name in _ROW_DTYPE.names if _ROW_DTYPE[name] == float]
    non_finite = ~np.isfinite(np.column_stack([rows[name] for name in floats]))
    reject(non_finite.any(axis=1), lambda i: f"{floats[np.argmax(non_finite[i])]} is not finite")
    tags = texts[0]
    codes = np.fromiter((_TAG_CODES.get(t, -1) for t in tags), int, len(tags))
    reject(codes < 0, lambda i: f"unknown probe tag {tags[i]!r}")
    rows["probe_tag"] = tags
    n, index = rows["n_photons"], rows["sample_index"]
    reject(~(n > 0), lambda i: "photon number must be positive")
    reject(
        np.abs(rows["s_y"]) > rows["s_x"],
        lambda i: "|S_y| exceeds S_x: rotation outside physical range",
    )
    # a row repeating an earlier (sample_index, probe_tag) pair: the stable
    # sort puts each repeat after the line it repeats
    key = index * len(_PROBE_TAGS) + codes
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    reject(repeat, lambda i: f"sample {index[i]} repeats its {tags[i]} reading")

    if "n_linear" in meta:
        _header_photons(path, meta, "n_linear")
    n_nl = _header_photons(path, meta, "n_nonlinear")
    reject(
        (codes == _TAG_CODES["NL"]) & (n != n_nl),
        lambda i: f"NL photon number {n[i]:.17g} of sample {index[i]} "
        f"differs from n_nonlinear {n_nl:.17g}",
    )
    return rows, meta
