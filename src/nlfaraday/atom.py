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
* A drive field is a complex Cartesian 3-vector in Rabi units; the
  coupling is -(field . d_raising + h.c.) / 2.
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
    constants it used.  Raises DataIntegrityError on malformed content.
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

    mhz = 2.0e6 * np.pi  # MHz -> rad/s
    d01 = values["excited_splitting_0_1_mhz"]
    d12 = values["excited_splitting_1_2_mhz"]
    d23 = values["excited_splitting_2_3_mhz"]
    if min(d01, d12, d23) <= 0:
        raise DataIntegrityError(f"{name}: excited splittings must be positive")
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

    ``levels`` lists (label, F, m_F, static energy offset in rad/s).  The
    offsets are frame offsets before the detuning shift: 0 for ground F=1,
    +omega_hf for ground F=2, delta_j for excited F'=j (so F'=0 sits at 0).
    """

    levels: tuple
    line: LineData
    f_numbers: np.ndarray = field(repr=False, default=None)
    m_numbers: np.ndarray = field(repr=False, default=None)
    excited_mask: np.ndarray = field(repr=False, default=None)
    static_offsets: np.ndarray = field(repr=False, default=None)

    @property
    def gamma(self) -> float:
        return self.line.gamma

    @property
    def wavelength(self) -> float:
        return self.line.wavelength

    def index_of(self, f: int, m: int, excited: bool = False) -> int:
        for i, (label, fi, mi, _) in enumerate(self.levels):
            if fi == f and mi == m and label.startswith("e" if excited else "g"):
                return i
        raise KeyError(f"no state F={f}, m={m}, excited={excited}")

    def manifold_indices(self, f: int, excited: bool = False) -> np.ndarray:
        out = [
            i
            for i, (label, fi, _, _) in enumerate(self.levels)
            if fi == f and label.startswith("e" if excited else "g")
        ]
        return np.asarray(out, dtype=int)


def build_level_scheme(path=None) -> LevelScheme:
    """Construct the 24-level scheme from the bundled line data."""
    line = load_line_data(path)
    levels = []
    for f in (1, 2):
        offset = 0.0 if f == 1 else line.ground_splitting
        for m in range(-f, f + 1):
            levels.append((f"g{f}m{m:+d}", f, m, offset))
    for fp in range(4):
        for m in range(-fp, fp + 1):
            levels.append((f"e{fp}m{m:+d}", fp, m, line.excited_offsets[fp]))
    assert len(levels) == N_STATES

    f_numbers = np.array([lv[1] for lv in levels], dtype=int)
    m_numbers = np.array([lv[2] for lv in levels], dtype=int)
    excited_mask = np.array([lv[0].startswith("e") for lv in levels], dtype=bool)
    static_offsets = np.array([lv[3] for lv in levels], dtype=float)
    return LevelScheme(
        levels=tuple(levels),
        line=line,
        f_numbers=f_numbers,
        m_numbers=m_numbers,
        excited_mask=excited_mask,
        static_offsets=static_offsets,
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
    """Dipole and pseudo-spin operators on the 24-state basis.

    ``lowering[q]`` holds the excited->ground block of the spherical
    component d_q (real matrices); ``d_x, d_y, d_z`` are the Hermitian
    Cartesian components with both blocks.  j ops act on the pseudo-spin
    1/2 spanned by |1,-1> and |1,+1>; f_z is m on the F=1 manifold.
    """

    lowering: dict
    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray
    j_x: np.ndarray
    j_y: np.ndarray
    j_z: np.ndarray
    j_0: np.ndarray
    f_z: np.ndarray
    scheme: LevelScheme


def build_dipole_operators(scheme: LevelScheme) -> OperatorSet:
    """Assemble dipole matrix elements from exact angular-momentum algebra."""
    lowering = {q: np.zeros((N_STATES, N_STATES)) for q in (-1, 0, 1)}
    reduced = {
        (f, fp): _reduced_factor(f, fp)
        for f in (1, 2)
        for fp in range(4)
        if abs(f - fp) <= 1
    }
    for g, (glabel, fg, mg, _) in enumerate(scheme.levels):
        if not glabel.startswith("g"):
            continue
        for e, (elabel, fe, me, _) in enumerate(scheme.levels):
            if not elabel.startswith("e"):
                continue
            if abs(fg - fe) > 1:
                continue
            q = mg - me
            if q not in (-1, 0, 1):
                continue
            lowering[q][g, e] = reduced[(fg, fe)] * _clebsch_gordan(fe, fg, me, q, mg)

    def full(q):
        return lowering[q] + (-1) ** q * lowering[-q].T

    d_x = (full(-1) - full(1)) / np.sqrt(2.0)
    d_y = 1j * (full(-1) + full(1)) / np.sqrt(2.0)
    d_z = full(0).astype(complex)

    up = scheme.index_of(1, 1)
    dn = scheme.index_of(1, -1)
    j_x = np.zeros((N_STATES, N_STATES), dtype=complex)
    j_y = np.zeros((N_STATES, N_STATES), dtype=complex)
    j_z = np.zeros((N_STATES, N_STATES), dtype=complex)
    j_0 = np.zeros((N_STATES, N_STATES), dtype=complex)
    j_x[up, dn] = j_x[dn, up] = 0.5
    j_y[up, dn] = -0.5j
    j_y[dn, up] = 0.5j
    j_z[up, up] = 0.5
    j_z[dn, dn] = -0.5
    j_0[up, up] = j_0[dn, dn] = 0.5

    f_z = np.zeros((N_STATES, N_STATES), dtype=complex)
    for i in scheme.manifold_indices(1):
        f_z[i, i] = scheme.m_numbers[i]

    return OperatorSet(
        lowering=lowering,
        d_x=d_x.astype(complex),
        d_y=d_y,
        d_z=d_z,
        j_x=j_x,
        j_y=j_y,
        j_z=j_z,
        j_0=j_0,
        f_z=f_z,
        scheme=scheme,
    )


def ground_projector(scheme: LevelScheme, f=None) -> np.ndarray:
    p = np.zeros((N_STATES, N_STATES))
    for i, (label, fi, _, _) in enumerate(scheme.levels):
        if label.startswith("g") and (f is None or fi == f):
            p[i, i] = 1.0
    return p


def excited_projector(scheme: LevelScheme, f=None) -> np.ndarray:
    p = np.zeros((N_STATES, N_STATES))
    for i, (label, fi, _, _) in enumerate(scheme.levels):
        if label.startswith("e") and (f is None or fi == f):
            p[i, i] = 1.0
    return p


def hamiltonian(
    scheme: LevelScheme,
    ops: OperatorSet,
    detuning: float,
    drive,
    couple_upper_ground: bool = False,
) -> np.ndarray:
    """Rotating-frame Hamiltonian for a classical drive.

    Args:
        detuning: angular detuning from F=1 -> F'=0.
        drive: complex Cartesian 3-vector (Omega_x, Omega_y, Omega_z) in
            Rabi units, multiplying the raising part of d.
        couple_upper_ground: include the optical coupling out of ground
            F=2.  Off by default: that manifold is detuned by the full
            hyperfine splitting, its coupling is dropped in the secular
            approximation, and keeping it forces sub-ps steps on explicit
            integrators.

    Raises:
        ValueError: non-finite drive components.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (3,):
        raise ValueError("drive must be a complex 3-vector")
    if not np.all(np.isfinite(drive.view(float))):
        raise ValueError("drive components must be finite")

    h = np.zeros((N_STATES, N_STATES), dtype=complex)
    diag = scheme.static_offsets.copy()
    diag[scheme.excited_mask] -= detuning
    np.fill_diagonal(h, diag)

    p_e = excited_projector(scheme)
    p_g = ground_projector(scheme) if couple_upper_ground else ground_projector(scheme, f=1)
    for amp, d_i in zip(drive, (ops.d_x, ops.d_y, ops.d_z)):
        if amp == 0:
            continue
        raising = p_e @ d_i @ p_g
        h -= 0.5 * (amp * raising + np.conj(amp) * raising.conj().T)
    return h


def jump_operators(
    ops: OperatorSet,
    gamma=None,
    split_ground_manifolds: bool = True,
):
    """Spontaneous-emission jump operators, scaled to total rate Gamma.

    With ``split_ground_manifolds`` the three spherical channels are split
    by destination ground manifold (six operators).  The split form is
    still exactly of Lindblad type and differs from the unsplit one only
    by dropping ground-state F=1/F=2 coherence feeding, which is secular
    at the hyperfine splitting; it keeps those matrix elements exactly
    zero during integration.
    """
    scheme = ops.scheme
    gamma = scheme.gamma if gamma is None else gamma
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    scale = np.sqrt(2.0 * gamma)
    outs = []
    if split_ground_manifolds:
        for f in (1, 2):
            p = ground_projector(scheme, f=f)
            for q in (-1, 0, 1):
                outs.append(scale * (p @ ops.lowering[q]))
    else:
        for q in (-1, 0, 1):
            outs.append(scale * ops.lowering[q])
    return outs


def liouvillian_dissipator(
    ops: OperatorSet,
    gamma=None,
    split_ground_manifolds: bool = True,
):
    """Return the dissipator action rho -> L(rho) as a callable.

    Standard Lindblad form summed over the spherical emission channels;
    trace-free for any input and zero on purely ground-state matrices.
    """
    jumps = jump_operators(ops, gamma, split_ground_manifolds)
    anticomm = sum(l.conj().T @ l for l in jumps)

    def dissipator(rho: np.ndarray) -> np.ndarray:
        out = -0.5 * (anticomm @ rho + rho @ anticomm)
        for l in jumps:
            out += l @ rho @ l.conj().T
        return out

    return dissipator


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
