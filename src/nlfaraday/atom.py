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

import functools
import hashlib
import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from sympy import Rational, sqrt as sym_sqrt
from sympy.physics.wigner import clebsch_gordan, wigner_6j

from .exceptions import DataIntegrityError, NonConvergence

log = logging.getLogger(__name__)

N_STATES = 24
_J_GROUND = Rational(1, 2)
_J_EXCITED = Rational(3, 2)
_I_NUCLEAR = Rational(3, 2)

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

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def load_line_data(path=None) -> LineData:
    """Parse the bundled atomic-data file (key = value, frequencies in MHz).

    The file checksum is logged so a run can be traced back to the exact
    constants it used.  Raises DataIntegrityError on malformed content
    and on a wavelength, linewidth or splitting that is not positive and
    finite, naming the key.
    """
    if path is None:
        source = resources.files("nlfaraday").joinpath("data/rb87_d2.dat")
        raw = source.read_bytes()
        name = "data/rb87_d2.dat"
    else:
        raw = Path(path).read_bytes()
        name = str(path)
    log.info("atomic data %s sha256=%s", name, hashlib.sha256(raw).hexdigest())

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
    )


@dataclass(frozen=True)
class LevelScheme:
    """The 24-level scheme with the detuning origin at F=1 -> F'=0.

    One entry per sublevel in each array: ground F=1 and F=2, then excited
    F'=0..3, m_F ascending within a manifold.  ``static_offsets`` are the
    frame energies before the detuning shift: 0 for ground F=1, +omega_hf
    for ground F=2, delta_j for excited F'=j (so F'=0 sits at 0).
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


@functools.lru_cache(maxsize=None)
def _reduced_factor(f_ground: int, f_excited: int) -> float:
    # <F||d||F'> / <J||d||J'> for the hyperfine transition, standard
    # 6j contraction over the decoupled nuclear spin.
    phase = (-1) ** int(f_excited + 1 + 2)  # F' + J + 1 + I with J+I = 2
    value = (
        phase
        * sym_sqrt((2 * f_excited + 1) * (2 * _J_GROUND + 1))
        * wigner_6j(_J_GROUND, _J_EXCITED, 1, f_excited, f_ground, _I_NUCLEAR)
    )
    return float(value)


@functools.lru_cache(maxsize=None)
def _clebsch_gordan(f_excited: int, f_ground: int, m_excited: int, q: int, m_ground: int) -> float:
    # <F' m', 1 q | F m>; exact sympy algebra, so each value is computed once
    return float(clebsch_gordan(f_excited, 1, f_ground, m_excited, q, m_ground))


@dataclass(frozen=True)
class OperatorSet:
    """Dipole operators and F_z on the 24-state basis.

    ``lowering[q]`` holds the excited->ground block of the spherical
    component d_q (real matrices); ``d_x, d_y`` are the Hermitian
    Cartesian components with both blocks; f_z is m on the F=1 manifold.
    """

    lowering: dict
    d_x: np.ndarray
    d_y: np.ndarray
    f_z: np.ndarray
    scheme: LevelScheme


def build_dipole_operators(scheme: LevelScheme) -> OperatorSet:
    """Assemble dipole matrix elements from exact angular-momentum algebra."""
    lowering = {q: np.zeros((N_STATES, N_STATES)) for q in (-1, 0, 1)}
    f, m = scheme.f_numbers.tolist(), scheme.m_numbers.tolist()
    excited = np.flatnonzero(scheme.excited_mask)
    for g in np.flatnonzero(~scheme.excited_mask):
        for e in excited:
            q = m[g] - m[e]
            if abs(f[g] - f[e]) <= 1 and abs(q) <= 1:
                lowering[q][g, e] = _reduced_factor(f[g], f[e]) * _clebsch_gordan(
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
    flo, fhi = fun(lo), fun(hi)
    if flo * fhi > 0:
        raise NonConvergence(
            f"vector weight does not change sign in [{lo:.4g}, {hi:.4g}] rad/s"
        )
    return float(brentq(fun, lo, hi, xtol=1e-3, rtol=1e-14))


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
