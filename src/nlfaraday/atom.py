"""Level structure and operators for the rubidium-87 D2 line.

The model keeps all 24 magnetic sublevels: the two ground hyperfine
manifolds F=1, F=2 of 5S(1/2) and the four excited manifolds F'=0..3 of
5P(3/2).  Dipole matrix elements are expressed in units of the reduced
J=1/2 -> J'=3/2 element; with that normalization the summed line
strength out of any ground sublevel is 1 and out of any excited sublevel
is 1/2, so the three spherical jump operators scaled by sqrt(2*Gamma)
give every excited sublevel a total decay rate Gamma.

Conventions used throughout the package:

* hbar = 1; every frequency-like quantity is angular (rad/s).
* Detunings are measured from the F=1 -> F'=0 transition.
* The rotating frame puts the F=1 manifold at zero energy, the F=2
  manifold at +omega_hf, and the excited manifold F'=j at delta_j - Delta.

The operators are those ``dynamics`` integrates: the x-polarized probe
drives ground F=1 through ``d_x``, ``d_y`` detects, and spontaneous
emission is split by destination ground manifold.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from ._brent import brentq
from .exceptions import DataIntegrityError

N_STATES = 24

_DATA_KEYS = (
    "data_version",
    "wavelength_nm",
    "natural_linewidth_mhz",
    "ground_hyperfine_splitting_mhz",
    "excited_splitting_0_1_mhz",
    "excited_splitting_1_2_mhz",
    "excited_splitting_2_3_mhz",
)


@dataclass(frozen=True)
class LineData:
    """Measured constants of the optical line, in SI / angular units."""

    wavelength: float           # m
    gamma: float                # rad/s
    ground_splitting: float     # rad/s
    excited_offsets: tuple      # rad/s, (delta_0..delta_3) with delta_0 = 0
    data_version: int = 1
    source: str = ""            # the file the constants were read from
    sha256: str = ""            # hex digest of that file's bytes

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def load_line_data(path=None) -> LineData:
    """Parse the bundled atomic-data file (key = value, frequencies in MHz).

    The file name and its sha256 are kept on the result (``source``,
    ``sha256``), so a run can record the exact constants it used.  Raises
    DataIntegrityError on malformed content and on a wavelength, linewidth
    or splitting that is not positive and finite, naming the key.
    """
    if path is None:
        source = resources.files("nlfaraday").joinpath("data/rb87_d2.dat")
        raw = source.read_bytes()
        name = "data/rb87_d2.dat"
    else:
        raw = Path(path).read_bytes()
        name = str(path)

    values = {}
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataIntegrityError(f"{name}:{lineno}: expected 'key = value'")
        key, _, text = stripped.partition("=")
        try:
            values[key.strip()] = float(text.strip())
        except ValueError as exc:
            raise DataIntegrityError(f"{name}:{lineno}: bad number {text!r}") from exc

    missing = [k for k in _DATA_KEYS if k not in values]
    if missing:
        raise DataIntegrityError(f"{name}: missing keys {missing}")

    for key in _DATA_KEYS[1:]:  # every constant after data_version
        if not 0.0 < values[key] < np.inf:
            raise DataIntegrityError(f"{name}: {key} = {values[key]} must be positive and finite")
    mhz = 2.0e6 * np.pi  # MHz -> rad/s
    d01 = values["excited_splitting_0_1_mhz"]
    d12 = values["excited_splitting_1_2_mhz"]
    d23 = values["excited_splitting_2_3_mhz"]
    offsets = (0.0, d01 * mhz, (d01 + d12) * mhz, (d01 + d12 + d23) * mhz)
    return LineData(
        wavelength=values["wavelength_nm"] * 1e-9,
        gamma=values["natural_linewidth_mhz"] * mhz,
        ground_splitting=values["ground_hyperfine_splitting_mhz"] * mhz,
        excited_offsets=offsets,
        data_version=int(values["data_version"]),
        source=name,
        sha256=hashlib.sha256(raw).hexdigest(),
    )


@dataclass(frozen=True, eq=False)
class LevelScheme:
    """The 24-level scheme with the detuning origin at F=1 -> F'=0.

    One entry per sublevel in each array: ground F=1 and F=2, then excited
    F'=0..3, m_F ascending within a manifold.  ``static_offsets`` are the
    frame energies before the detuning shift: 0 for ground F=1, +omega_hf
    for ground F=2, delta_j for excited F'=j (so F'=0 sits at 0).
    Equality and hashing are by identity, so a scheme can key a dict.
    """

    line: LineData
    f_numbers: np.ndarray = field(repr=False)
    m_numbers: np.ndarray = field(repr=False)
    excited_mask: np.ndarray = field(repr=False)
    static_offsets: np.ndarray = field(repr=False)

    @property
    def gamma(self) -> float:
        return self.line.gamma

    @property
    def wavelength(self) -> float:
        return self.line.wavelength

    def _mask(self, f=None, excited: bool = False) -> np.ndarray:
        mask = self.excited_mask == excited
        return mask if f is None else mask & (self.f_numbers == f)

    def index_of(self, f: int, m: int, excited: bool = False) -> int:
        found = np.flatnonzero(self._mask(f, excited) & (self.m_numbers == m))
        if not found.size:
            raise KeyError(f"no state F={f}, m={m}, excited={excited}")
        return int(found[0])

    def manifold_indices(self, f: int, excited: bool = False) -> np.ndarray:
        return np.flatnonzero(self._mask(f, excited))


def build_level_scheme(path=None) -> LevelScheme:
    """Construct the 24-level scheme from the bundled line data."""
    line = load_line_data(path)
    rows = []  # (F, m_F, excited, static offset), one per sublevel
    for f in (1, 2):
        rows += [(f, m, False, 0.0 if f == 1 else line.ground_splitting) for m in range(-f, f + 1)]
    for fp in range(4):
        rows += [(fp, m, True, line.excited_offsets[fp]) for m in range(-fp, fp + 1)]
    assert len(rows) == N_STATES
    f, m, excited, offsets = zip(*rows)
    return LevelScheme(
        line=line,
        f_numbers=np.array(f, dtype=int),
        m_numbers=np.array(m, dtype=int),
        excited_mask=np.array(excited, dtype=bool),
        static_offsets=np.array(offsets, dtype=float),
    )


def _signed_root(signed: Fraction, square: Fraction) -> float:
    """sign(signed) * sqrt(square), correctly rounded to the nearest float.

    The integer root of the square scaled by 4**k has at least 55 bits,
    two more than a float keeps; a sticky low bit marks an inexact root
    (rounding to odd), so the one int -> float rounding that follows
    rounds as the exact root would.
    """
    n, d = square.numerator, square.denominator
    k = max(0, (110 + d.bit_length() - n.bit_length()) // 2)
    root = math.isqrt((n << 2 * k) // d)
    root |= root * root * d != n << 2 * k
    return ((signed > 0) - (signed < 0)) * math.ldexp(root, -k)


def _factorials(*args: int) -> int:
    return math.prod(map(math.factorial, args))


def _racah_sum(lows, highs, numerator=lambda t: 1) -> Fraction:
    """Sum over t of (-1)^t numerator(t) / (prod (t-l)! prod (h-t)!), exactly."""
    total = Fraction(0)
    for t in range(max(lows), min(highs) + 1):
        den = _factorials(*[t - low for low in lows], *[high - t for high in highs])
        total += Fraction((-1) ** t * numerator(t), den)
    return total


def _reduced_factor(f_ground: int, f_excited: int) -> float:
    """<F||d||F'> / <J||d||J'> for J=1/2, J'=3/2 and nuclear spin I=3/2.

    (-1)^(F'+J+1+I) sqrt((2F'+1)(2J+1)) {J J' 1; F' F I}, with the 6j
    symbol from Racah's formula on doubled arguments (every factorial
    argument is then an integer).  The square is exact; the root is
    rounded once.
    """
    a, b, c, d, e, f = 1, 3, 2, 2 * f_excited, 2 * f_ground, 3  # 2J, 2J', 2, 2F', 2F, 2I
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    square = Fraction((d + 1) * (a + 1))
    for x, y, z in triads:  # triangle coefficients Delta(xyz)^2
        square *= Fraction(
            _factorials((x + y - z) // 2, (x - y + z) // 2, (y + z - x) // 2),
            math.factorial((x + y + z) // 2 + 1),
        )
    total = _racah_sum(
        [sum(triad) // 2 for triad in triads],
        ((a + b + d + e) // 2, (a + c + d + f) // 2, (b + c + e + f) // 2),
        numerator=lambda t: math.factorial(t + 1),
    )
    phase = (-1) ** ((d + a + c + f) // 2)
    return _signed_root(phase * total, square * total**2)


def _clebsch_gordan(f_excited: int, f_ground: int, m_excited: int, q: int, m_ground: int) -> float:
    """<F' m', 1 q | F m> with Condon-Shortley phases, for m = m' + q.

    Racah's formula: its factorial prefactor squared times its alternating
    sum squared is exact; the root is rounded once.
    """
    j1, j, m1, m = f_excited, f_ground, m_excited, m_ground
    square = Fraction(
        (2 * j + 1) * _factorials(j + j1 - 1, j - j1 + 1, j1 + 1 - j)
        * _factorials(j + m, j - m, j1 - m1, j1 + m1, 1 - q, 1 + q),
        math.factorial(j1 + j + 2),
    )
    total = _racah_sum((0, 1 - j - m1, j1 + q - j), (j1 + 1 - j, j1 - m1, 1 + q))
    return _signed_root(total, square * total**2)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Dipole operators and F_z on the 24-state basis.

    ``lowering[q]`` holds the excited->ground block of the spherical
    component d_q (real matrices); ``d_x, d_y`` are the Hermitian
    Cartesian components with both blocks; f_z is m on the F=1 manifold.
    Equality and hashing are by identity, as for ``LevelScheme``.
    """

    lowering: dict
    d_x: np.ndarray
    d_y: np.ndarray
    f_z: np.ndarray
    scheme: LevelScheme


def build_dipole_operators(scheme: LevelScheme) -> OperatorSet:
    """Assemble the dipole matrix elements <F m| d_q |F' m'>.

    Each element is the hyperfine reduced factor times the Clebsch-Gordan
    coefficient <F' m', 1 q | F m>, both from Racah's formulas in exact
    rational arithmetic and each rounded once to the nearest float.
    """
    lowering = {q: np.zeros((N_STATES, N_STATES)) for q in (-1, 0, 1)}
    f, m = scheme.f_numbers.tolist(), scheme.m_numbers.tolist()
    reduced = {(fg, fe): _reduced_factor(fg, fe) for fg in (1, 2) for fe in range(fg - 1, fg + 2)}
    excited = np.flatnonzero(scheme.excited_mask)
    for g in np.flatnonzero(~scheme.excited_mask):
        for e in excited:
            q = m[g] - m[e]
            if abs(f[g] - f[e]) <= 1 and abs(q) <= 1:
                lowering[q][g, e] = reduced[f[g], f[e]] * _clebsch_gordan(
                    f[e], f[g], m[e], q, m[g]
                )

    def full(q):
        return lowering[q] + (-1) ** q * lowering[-q].T

    d_x = (full(-1) - full(1)) / np.sqrt(2.0)
    d_y = 1j * (full(-1) + full(1)) / np.sqrt(2.0)
    f_z = np.diag(scheme.m_numbers * scheme._mask(1)).astype(complex)
    return OperatorSet(lowering=lowering, d_x=d_x.astype(complex), d_y=d_y, f_z=f_z, scheme=scheme)


def ground_projector(scheme: LevelScheme, f=None) -> np.ndarray:
    return np.diag(scheme._mask(f).astype(float))


def excited_projector(scheme: LevelScheme, f=None) -> np.ndarray:
    return np.diag(scheme._mask(f, excited=True).astype(float))


def jump_operators(ops: OperatorSet):
    """Spontaneous-emission jump operators, scaled to total rate Gamma.

    The three spherical channels are split by destination ground manifold
    (six operators, F=1 first).  The split form is still exactly of
    Lindblad type and differs from the unsplit one only by dropping
    ground-state F=1/F=2 coherence feeding, which is secular at the
    hyperfine splitting; it keeps those matrix elements exactly zero
    during integration.
    """
    scheme = ops.scheme
    scale = np.sqrt(2.0 * scheme.gamma)
    return [
        scale * (ground_projector(scheme, f=f) @ ops.lowering[q])
        for f in (1, 2)
        for q in (-1, 0, 1)
    ]


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Effective linear and leading nonlinear response at one detuning.

    alpha1 is the vector part of the second-order (linear in intensity)
    response; beta1 is the fourth-order vector term.  Units: alpha1 in rad
    per atom (rotation slope versus atom number at vanishing pulse
    energy), beta1 in rad per atom per photon.
    """

    detuning: float
    alpha1: float
    beta1: float


def perturbative_path_weights(
    scheme: LevelScheme,
    ops: OperatorSet,
    detuning: float,
    ground_index: int,
    linewidth: float = 0.0,
):
    """Complex sigma+/pi/sigma- second-order path weights for one sublevel.

    Each weight is sum over excited states of (matrix element)^2 divided
    by (Delta - delta_e + i*Gamma/2), in units of the reduced dipole
    element squared per angular frequency.
    """
    weights = {}
    for q, key in ((-1, "plus"), (0, "pi"), (1, "minus")):
        total = 0.0 + 0.0j
        row = ops.lowering[q][ground_index]
        for e in np.nonzero(row)[0]:
            delta_e = scheme.static_offsets[e]
            total += row[e] ** 2 / (detuning - delta_e + 0.5j * linewidth)
        weights[key] = total
    return weights


def pt_rotation_weight(
    scheme: LevelScheme,
    ops: OperatorSet,
    detuning: float,
    ground_index: int,
    linewidth: float = 0.0,
) -> complex:
    """Vector rotation weight: sigma- minus sigma+ path weight (seconds).

    The real part drives polarization-plane rotation of a linearly
    polarized probe; it is positive above the zero crossing near
    2pi * 462 MHz for the stretched |1,+1> state.
    """
    w = perturbative_path_weights(scheme, ops, detuning, ground_index, linewidth)
    return w["minus"] - w["plus"]


def vector_crossing_detuning(
    scheme: LevelScheme,
    ops: OperatorSet,
    lo: float = 2 * np.pi * 430e6,
    hi: float = 2 * np.pi * 500e6,
    ground_index=None,
) -> float:
    """Locate the zero of the vector rotation weight inside [lo, hi]."""
    g = scheme.index_of(1, 1) if ground_index is None else ground_index
    fun = lambda d: np.real(pt_rotation_weight(scheme, ops, d, g))
    return brentq(fun, lo, hi, xtol=1e-3, rtol=1e-14)


def initial_state(scheme: LevelScheme, f: int = 1, m: int = 1) -> np.ndarray:
    """Density matrix with all population in one ground sublevel."""
    rho = np.zeros((N_STATES, N_STATES), dtype=complex)
    i = scheme.index_of(f, m)
    rho[i, i] = 1.0
    return rho


def mixed_ground_state(scheme: LevelScheme, f: int = 1) -> np.ndarray:
    """Fully mixed state over one ground manifold."""
    idx = scheme.manifold_indices(f)
    rho = np.zeros((N_STATES, N_STATES), dtype=complex)
    rho[idx, idx] = 1.0 / len(idx)
    return rho
