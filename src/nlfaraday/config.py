"""Scenario configuration: structured key=value text with unit suffixes.

Grammar, one entry per line::

    key = value [unit]     # trailing comments allowed

Blank lines and lines starting with '#' are skipped.  Values are parsed
as int when possible, then float, else kept as strings.  A unit suffix
rescales to internal units:

- time: s, ms, us, ns          -> seconds
- length: m, mm, um, nm        -> meters
- frequency: hz, khz, mhz, ghz -> angular frequency (rad/s), i.e. the
  stated ordinary frequency multiplied by 2*pi, because every internal
  API works with angular frequencies.

Unsuffixed numbers are taken to be in internal units already, so a
manifest written by ``format_config`` (plain SI, no suffixes) parses
back to the identical configuration.

``_format_value`` writes every manifest value and, through
``write_table``, every cell and metadata line of every CSV table.

A ``Range`` is declared once beside the field (``ranged``) or argument
it bounds, where the model's arithmetic stays finite; the validators and
the command line's pre-output check both read it.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .exceptions import InvalidConfig, NlfaradayError

# the cap of every count: 250 times the largest in use (400 samples)
MAX_COUNT = 100_000
# output fields that may hold a non-finite number: the damage of an
# unpolarized sample (nan), an unidentified fitted saturation_photons (nan)
# and the injected one of an unsaturated model (inf)
NON_FINITE_FIELDS = frozenset({
    "damage_mean", "damage_detected", "saturation_photons", "injected_saturation_photons",
})


@dataclasses.dataclass(frozen=True)
class Range:
    """Admissible values lo <= x <= hi of one input (never NaN), and why."""

    lo: float
    hi: float
    why: str

    def check(self, name: str, value, where: str = "") -> None:
        """Raise InvalidConfig, naming ``where`` and ``name``, unless lo <= value <= hi."""
        if not self.lo <= value <= self.hi:
            raise InvalidConfig(f"{where}{name} = {value} is outside [{self.lo:.6g}, {self.hi:.6g}]: {self.why}")


def ranged(lo, hi, why: str, default=dataclasses.MISSING):
    """A dataclass field admitting ``Range(lo, hi, why)``; see ``check_fields``."""
    return dataclasses.field(default=default, metadata={"range": Range(lo, hi, why)})


@functools.cache  # a class's fields are fixed; callers only read the dict
def field_ranges(cls) -> dict:
    """Field name -> ``Range`` of each ``ranged`` field of the dataclass ``cls``."""
    return {f.name: f.metadata["range"] for f in dataclasses.fields(cls) if "range" in f.metadata}


def check_fields(obj) -> None:
    """Raise InvalidConfig, naming the field, for a ``ranged`` field of ``obj`` outside its range."""
    for name, admissible in field_ranges(type(obj)).items():
        admissible.check(name, getattr(obj, name))


def refuse_non_finite(path, name: str, values) -> None:
    """Raise NlfaradayError if output ``name`` holds a number that is not finite.

    Fields of ``NON_FINITE_FIELDS`` are exempt; text values pass.
    """
    if name in NON_FINITE_FIELDS:
        return
    arr = np.asarray(values)
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise NlfaradayError(f"{path}: {name} holds a number that is not finite; the file is not written")

_UNIT_SCALES = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "m": 1.0,
    "mm": 1e-3,
    "um": 1e-6,
    "nm": 1e-9,
    "hz": 2.0 * math.pi,
    "khz": 2.0 * math.pi * 1e3,
    "mhz": 2.0 * math.pi * 1e6,
    "ghz": 2.0 * math.pi * 1e9,
    "rad": 1.0,
    "mrad": 1e-3,
    "urad": 1e-6,
}


def parse_entry(raw: str):
    """Parse one 'value [unit]' fragment into int, float, or str."""
    parts = raw.split()
    if not parts:
        raise InvalidConfig("empty value")
    if len(parts) > 2:
        raise InvalidConfig(f"cannot parse value {raw!r}")
    token = parts[0]
    if len(parts) == 2:
        unit = parts[1].lower()
        if unit not in _UNIT_SCALES:
            raise InvalidConfig(f"unknown unit {parts[1]!r}")
        try:
            return float(token) * _UNIT_SCALES[unit]
        except ValueError:
            raise InvalidConfig(f"non-numeric value {token!r} with unit") from None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_config_text(text: str) -> dict:
    """Parse configuration text into an ordered key -> value dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if not key or not key.replace("_", "").isalnum():
            raise InvalidConfig(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = parse_entry(raw.strip())
        except InvalidConfig as exc:
            raise InvalidConfig(f"line {lineno}: {exc}") from None
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def _format_value(value) -> str:
    """Text of one manifest value or table cell: floats as %.17g, ints exact."""
    # floats first: they are most of the cells of every table
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def format_config(config: dict, header: str = "") -> str:
    """Canonical re-parseable text: plain internal units, sorted keys."""
    lines = [f"# {h}" for h in header.splitlines() if h.strip()]
    for key in sorted(config):
        lines.append(f"{key} = {_format_value(config[key])}")
    return "\n".join(lines) + "\n"


def write_manifest(path, config: dict, version: str, command: str = ""):
    """Echo the fully resolved configuration next to the run outputs."""
    header = f"manifest for {command}" if command else "run manifest"
    resolved = dict(config)
    resolved["package_version"] = version
    text = format_config(resolved, header=header)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _column_text(values) -> list:
    """``_format_value`` of each value; an array formats each distinct value once."""
    if not isinstance(values, np.ndarray):
        return list(map(_format_value, values))
    # campaign columns repeat most values (the probe photon numbers, the atom
    # number of each sample); keyed by bit pattern, 0.0 and -0.0 stay apart
    key = values.view(np.int64) if values.dtype == np.float64 else values
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    texts = np.array(list(map(_format_value, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def write_table(path, columns: dict, metadata: dict = None) -> str:
    """Write a CSV table of ``columns`` (name -> equal-length values); return its text.

    ``metadata`` entries become ``# key = value`` lines above the header,
    in the order given.  Unequal columns raise ValueError, and a
    non-finite number outside ``NON_FINITE_FIELDS`` raises NlfaradayError,
    before anything is written.  Every value is formatted by ``_format_value``.
    """
    for name, values in (*(metadata or {}).items(), *columns.items()):
        refuse_non_finite(path, name, values)
    lines = [f"# {key} = {_format_value(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    cells = [_column_text(values) for values in columns.values()]
    lines.extend(map(",".join, zip(*cells, strict=True)))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text
