"""Master-equation dynamics over the cloud and Stokes-signal assembly.

A probe pulse is propagated through the ensemble to first order in atom
number: every atom carries an independent density matrix driven by the
local field, and the detected signal is the mode-matched overlap of the
first-order dipole polarization with the input mode, accumulated in time
alongside the state itself.

An atom's response depends on where it sits only through its local
intensity s = A0 |M(r, z)|^2 (the drive is real, see below), so the
cloud average is a one-dimensional integral over the distribution of s.
The radial x longitudinal product rule of ``cloud_quadrature`` defines
that distribution as a discrete measure; its equal intensities (the
Gauss-Hermite z nodes come in mirror pairs) are merged, and when more
than ``_INTENSITY_LEVELS`` distinct values remain, the measure is
replaced by its Gauss rule of that many levels (Golub-Welsch).  One
density matrix is integrated per level, and every cloud sum runs over
the levels with their weights.

Each level integrates only the entries of the 24x24 density matrix its
initial state can reach.  The rule (``_Operators.reach``) grows the set
F of filled entries as F | A F | F A | L F L^T, with A the pattern of
the drive coupling and L the jump operators; the level energies and the
decay rates are diagonal and keep each entry in place.  Every entry
outside F stays exactly zero: F'=3 is two units of F away from F=1, so
the x-polarized drive cannot reach it; with the emission channels split
by destination ground manifold, decay never builds an F=1-F=2
coherence; and since F=2 is not driven, no excited-F=2 coherence forms.
A ground F=1 sample fills 87 entries.  An initial state may be nonzero
only where the blocks of ground F=1 and of ground F=2 reach (169
entries), and full matrices are rebuilt from the kept entries only at
the stored times.

Two solvers advance the states, on one real generator per level.  The
kept entries, each Hermitian pair merged into its real and imaginary
parts, and the detection accumulator give a level's real coordinates
(89 for a ground F=1 sample), on which it evolves as dx/dt = R0 x +
T(t) (a R1 x + D x).  Only the detuning delta and the drive scale
omega0 differ between pulses: R0 = R0(0) + delta K, with K the
detuning's exact +-1 rotation on the optical coherences, and R1 is
omega0 times its value at omega0 = 1.  So the model's operators and
the mask of admissible initial entries are built once per operator
set, and the coordinates, R0(0), K, R1(1) and D once per support of
the initial state (``_Operators.flow``, which keeps the last support's);
a solve forms only R0 + delta K and each level's drive B = a omega0 R1
+ D.  Under a flat-train segment the envelope is constant, so each
segment and each gap is advanced by exact matrix exponentials of R0 +
T B.  A Gaussian pulse is integrated with the package's DOP853
(``_dop853``, SciPy's algorithm step for step) on one level-major
state, by products with blockdiag(B) and blockdiag(R0) in SciPy's CSR
kernel (``_linear_rhs``); it is the only use of the adaptive integrator.

Drive normalization: a pulse of N photons in beam mode M(r, z) with
envelope T(t) produces the local Rabi amplitude

    Omega(x, t) = omega0 * T(t) * M(r, z),   omega0 = sqrt(12 pi N Gamma) / k,

in rad/s, with every other electromagnetic constant cancelling.  M is
the real envelope |M|: a Gouy or wave-front phase on the local drive is
removed by a gauge transformation of the node's excited states, which
moves that phase onto J below, where conj(M) cancels it, so each node's
w * conj(M) * J depends only on |M|.  The polarization-plane rotation
of the x-polarized input follows from the same bookkeeping as

    phi + i*epsilon = i * (6 pi Gamma / (k^2 omega0)) * I,
    I = N_A * sum_levels W * |M| * J,
    J = integral dt T(t) Tr[rho(t) d_y_lowering],

where epsilon is the output ellipticity.  The prefactor is fixed by the
optical theorem: the same overlap formula applied to the x-polarized
channel reproduces the resonant absorption cross section 6 pi / k^2
exactly, leaving no free normalization anywhere in the detection chain.
"""
from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._brent import brentq
# looked up at each Gaussian solve, so a caller can substitute it
from ._dop853 import solve_ivp
from .atom import (
    EffectiveCoefficients,
    LevelScheme,
    OperatorSet,
    excited_projector,
    ground_projector,
    initial_state,
    jump_operators,
    pt_rotation_weight,
)
from .exceptions import (
    InvalidConfig,
    PositivityViolation,
    StepFailure,
)
from .geometry import BeamGeometry, CloudGeometry, PulseSpec, QuadratureGrid, cloud_quadrature

_POSITIVITY_ABORT = 1e-6
_TRACE_ABORT = 1e-6
# tolerances of the Gaussian-pulse integrator, cloud and single-node alike
_RTOL = 1e-6
_ATOL = 1e-9
# relative difference below which two flat-segment intervals share one
# propagator; consecutive stored times differ by a few ulps
_SAME_INTERVAL = 1e-12
# Gauss levels of local intensity integrated per pulse; 12 levels match
# the 9x9 product rule to 1.5e-8 in ellipticity at 1e8 photons, 8 do not
_INTENSITY_LEVELS = 12
# stored times of a cloud solve, the states its trace and positivity guards check
_CLOUD_SNAPSHOTS = 5
# Gauss-Hermite nodes in z of the perturbative oracle's cloud average
_PT_LONG_NODES = 33
# extract_effective_coefficients: photon numbers of the quadratic fit
_PHOTON_LADDER = (2.5e5, 1e6, 4e6)
# locate_crossing: photon number small enough that the linear term
# dominates, and the root tolerance in rad/s
_CROSSING_PHOTONS = 2e5
_CROSSING_XTOL = 2 * np.pi * 5e4


def drive_scale(n_photons: float, gamma: float, wavenumber: float) -> float:
    """omega0 in m/sqrt(s): local Rabi = omega0 * T(t) * |M(r, z)|."""
    return math.sqrt(12.0 * math.pi * n_photons * gamma) / wavenumber


@dataclass(frozen=True, eq=False)
class _Operators:
    """Full-basis operators of a driven, decaying atom, and the flows built on them.

    Under a real drive of Rabi amplitude Omega at detuning delta the
    Hamiltonian is diag(h0 - delta * excited) - (Omega / 2) s and the
    dissipator the Lindblad form of ``jumps``; the detection accumulator
    integrates T(t) Tr[rho detect].  ``flow`` keeps the real generator
    of the last initial-state support (see ``_Flow``).
    """

    h0: np.ndarray         # undriven level energies at zero detuning, diagonal (rad/s)
    excited: np.ndarray    # mask of the levels the detuning lowers
    s: np.ndarray          # drive coupling R + R^T of unit Rabi amplitude
    jumps: tuple           # real jump operators
    detect: np.ndarray
    manifolds: tuple       # index arrays of the manifolds a sample may occupy
    # support of the last initial state (bytes of its mask) -> its _Flow
    _flows: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def production(cls, ops: OperatorSet) -> "_Operators":
        """The 24-level model of ``ops``: x-polarized drive out of ground F=1, split emission.

        Built once per operator set and kept while ``ops`` lives.
        """
        model = _PRODUCTION.get(ops)
        if model is None:
            scheme = ops.scheme
            raising = (excited_projector(scheme) @ ops.d_x @ ground_projector(scheme, f=1)).real
            model = _PRODUCTION[ops] = cls(
                h0=scheme.static_offsets,
                excited=scheme.excited_mask,
                s=raising + raising.T,
                jumps=tuple(jump_operators(ops)),
                detect=ground_projector(scheme) @ ops.d_y @ excited_projector(scheme),
                manifolds=(scheme.manifold_indices(1), scheme.manifold_indices(2)),
            )
        return model

    def reach(self, filled: np.ndarray) -> np.ndarray:
        """Mask of the entries the flow can fill from the mask ``filled``.

        F | A F | F A | L F L^T, with A the pattern of s, until F stops
        growing (see the module docstring); every other entry stays zero.
        """
        a = (self.s != 0.0).astype(float)
        jumps = [(l != 0.0).astype(float) for l in self.jumps]
        f = filled.astype(float)
        while True:
            grown = (f + a @ f + f @ a + sum(l @ f @ l.T for l in jumps) > 0.0).astype(float)
            if np.array_equal(grown, f):
                return f > 0.0
            f = grown

    @functools.cached_property
    def admissible(self) -> np.ndarray:
        """Mask of the entries an initial state may fill: those the manifold blocks reach."""
        start = np.zeros(self.s.shape, dtype=bool)
        for m in self.manifolds:
            start[np.ix_(m, m)] = True
        return self.reach(start)

    def flow(self, rho0: np.ndarray) -> "_Flow":
        """The flow of the states with the support of ``rho0``.

        Only the last support's flow is kept: every solve of the package
        starts from one support.
        """
        key = ((rho0 != 0.0) | (rho0.T != 0.0)).tobytes()
        flow = self._flows.get(key)
        if flow is None:
            self._flows.clear()
            flow = self._flows[key] = _real_generators(self, rho0)
        return flow


# operator set -> its _Operators; an entry goes with its operator set
_PRODUCTION = weakref.WeakKeyDictionary()


def _checked_state(model: _Operators, rho) -> np.ndarray:
    """``rho`` as a complex matrix, once it passes the checks of an initial state.

    Raises InvalidConfig for a matrix of the wrong shape, non-finite,
    non-Hermitian, off unit trace, negative beyond the positivity guard,
    or nonzero outside ``model.admissible``.
    """
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"initial state is not a numeric matrix: {exc}") from exc
    n = model.h0.size
    if rho.shape != (n, n):
        raise InvalidConfig(f"initial state must be {n}x{n}, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidConfig("initial state has non-finite elements")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise InvalidConfig("initial state is not Hermitian")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > _TRACE_ABORT:
        raise InvalidConfig(f"initial state has trace {trace:.6g}, not 1")
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    if min_eig < -_POSITIVITY_ABORT:
        raise InvalidConfig(f"initial state has eigenvalue {min_eig:.3e}")
    if np.any(rho[~model.admissible] != 0.0):
        raise InvalidConfig(
            "initial state is nonzero outside the driven levels and ground F=2 "
            "(an F'=3 element, or an F=1-F=2 or excited-F=2 coherence)"
        )
    return rho


@dataclass(frozen=True)
class _Coordinates:
    """Real coordinates of Hermitian states on a set of kept entries.

    A level vector lists the kept density-matrix entries ``(rows, cols)``
    row-major, then the detection accumulator.  The coordinates are the
    real parts of the kept entries on and above the diagonal, followed
    by the imaginary parts of those above it; a kept accumulator
    contributes both parts.  A kept entry below the diagonal is the
    conjugate of its mirror above it, and every entry not kept is zero.
    Both directions only copy values, so a Hermitian state on the kept
    entries round-trips bit for bit.
    """

    rows: np.ndarray     # kept density-matrix entries
    cols: np.ndarray
    real: np.ndarray     # level-vector entries whose real part is a coordinate
    imag: np.ndarray     # level-vector entries whose imaginary part is a coordinate
    lower: np.ndarray    # kept entries below the diagonal ...
    upper: np.ndarray    # ... and their mirrors above it
    n_states: int        # levels of the full basis

    def encode(self, z: np.ndarray) -> np.ndarray:
        """Coordinates (..., n) of level vectors (..., entries + 1)."""
        return np.concatenate([z[..., self.real].real, z[..., self.imag].imag], axis=-1)

    def decode(self, x: np.ndarray) -> np.ndarray:
        """Level vectors (..., entries + 1), exactly Hermitian, of coordinates (..., n)."""
        z = np.zeros(x.shape[:-1] + (self.rows.size + 1,), dtype=complex)
        z.real[..., self.real] = x[..., : self.real.size]
        z.imag[..., self.imag] = x[..., self.real.size :]
        z[..., self.lower] = z[..., self.upper].conj()
        return z

    def initial(self, rho: np.ndarray) -> np.ndarray:
        """Coordinates of a full density matrix, accumulator zero."""
        return self.encode(np.append(rho[self.rows, self.cols], 0.0))

    def states(self, x: np.ndarray) -> np.ndarray:
        """Full density matrices (..., n_states, n_states) of coordinates (..., n)."""
        z = self.decode(x)
        out = np.zeros(z.shape[:-1] + (self.n_states, self.n_states), dtype=complex)
        out[..., self.rows, self.cols] = z[..., :-1]
        return out


@dataclass(frozen=True)
class _Flow:
    """One level's flow on its real coordinates, at every detuning and drive scale.

    A level of drive amplitude a = |M| under the envelope T(t), at
    detuning delta and drive scale omega0, evolves as dx/dt = R0 x +
    T(t) (a R1 x + D x), with R0 = r0 + delta k and R1 = omega0 r1
    (``generators``).  k is exact: the detuning moves only the optical
    coherences, each by +-1 per rad/s.
    """

    coords: _Coordinates
    r0: np.ndarray       # level energies at zero detuning, decay and gain
    k: np.ndarray        # d R0 / d delta
    r1: np.ndarray       # drive of unit omega0
    d: np.ndarray        # detection accumulator

    def __post_init__(self):
        for r in (self.r0, self.k, self.r1, self.d):
            r.flags.writeable = False  # every solve of the support shares them

    def generators(self, detuning: float, omega0: float):
        """(R0, R1, D) at ``detuning`` and ``omega0``."""
        return self.r0 + detuning * self.k, omega0 * self.r1, self.d


def _real_generators(model: _Operators, rho0: np.ndarray) -> _Flow:
    """The flow on the entries ``model.reach`` finds from the nonzero entries of ``rho0``.

    On their level vector (``_Coordinates``) L0 holds the level energies
    at zero detuning, the decay -{L^T L, rho} / 2 and the gain L rho L^T;
    LK is the derivative of L0 in the detuning, which lowers the excited
    energies; L1 is the drive of unit omega0 and amplitude, (i / 2) (s rho
    - rho s); LD is the accumulator row Tr[rho detect].  Each R of
    ``_Flow`` is its L on the coordinates.
    """
    # the anticommutator must be diagonal, so that decay keeps each entry in place
    anti = sum(l.T @ l for l in model.jumps)
    decay = np.diag(anti)
    if not np.allclose(anti, np.diag(decay), atol=1e-10 * decay.max()):
        raise AssertionError("dissipator anticommutator is not diagonal")

    rows, cols = np.nonzero(model.reach((rho0 != 0.0) | (rho0.T != 0.0)))
    m = rows.size
    position = np.zeros(model.s.shape, dtype=int)
    position[rows, cols] = np.arange(m)
    detected = model.detect.T[rows, cols]  # Tr[rho detect] = sum rho_ij detect_ji
    acc = np.array([m] if np.any(detected != 0.0) else [], dtype=int)
    below = np.flatnonzero(rows > cols)
    coords = _Coordinates(
        rows=rows,
        cols=cols,
        real=np.concatenate([np.flatnonzero(rows <= cols), acc]),
        imag=np.concatenate([np.flatnonzero(rows < cols), acc]),
        lower=below,
        upper=position[cols[below], rows[below]],
        n_states=model.h0.size,
    )

    diagonal = (np.arange(m), np.arange(m))
    l0 = np.zeros((m + 1, m + 1), dtype=complex)
    l0[:m, :m] = sum(l[np.ix_(rows, rows)] * l[np.ix_(cols, cols)] for l in model.jumps)
    l0[diagonal] += -1j * (model.h0[rows] - model.h0[cols]) - 0.5 * (decay[rows] + decay[cols])
    # -i (h_rows - h_cols) with h = h0 - delta * excited: exactly 0 or +-i per rad/s
    excited = model.excited.astype(float)
    lk = np.zeros_like(l0)
    lk[diagonal] = -1j * (excited[cols] - excited[rows])
    # (s rho)_ij = sum_k s_ik rho_kj and (rho s)_ij = sum_k rho_ik s_kj
    l1 = np.zeros_like(l0)
    l1[:m, :m] = 0.5j * (
        model.s[np.ix_(rows, rows)] * (cols[:, None] == cols)
        - (rows[:, None] == rows) * model.s[np.ix_(cols, cols)]
    )
    ld = np.zeros_like(l0)
    ld[m, :m] = detected

    # column c of L @ basis is L applied to the level vector of coordinate c
    basis = coords.decode(np.eye(coords.real.size + coords.imag.size)).T
    return _Flow(coords, *(coords.encode((l @ basis).T).T for l in (l0, lk, l1, ld)))


def _block_csr(rows, cols, data, n: int):
    """CSR arrays of the block diagonal whose block j holds data[j] at (rows, cols), row-major."""
    levels = data.shape[0]
    indptr = np.zeros(levels * n + 1, dtype=np.int32)
    np.cumsum(np.tile(np.bincount(rows, minlength=n), levels), out=indptr[1:])
    indices = cols + n * np.arange(levels, dtype=np.int32)[:, None]
    return indptr, indices.astype(np.int32).ravel(), data.ravel()


def _linear_rhs(r0, r1, d, amplitudes: np.ndarray, envelope):
    """Vector field of every level's coordinates, stacked level-major (level, coordinate).

    Level j evolves as dx/dt = R0 x + T(t) B_j x, with B_j = a_j R1 + D
    as ``_propagate_train`` forms it (real a_j: see the module docstring).
    Each call is two products, with blockdiag(B_j) and blockdiag(R0), in
    SciPy's CSR kernel ``_sparsetools.csr_matvec``, the one ``csr_matrix
    @ y`` ends in, called directly on arrays built once per solve: at
    about 6k multiply-adds, SciPy's per-call dispatch would cost as much.
    The kernel adds A y into its output and checks no sizes, so each call
    starts from fresh zeros (a fresh array: the solver keeps the returned
    derivative), scales the first product by T(t) and lets the second add
    R0 y; ``y.reshape`` raises ``ValueError`` on a wrong-size state before
    the kernel could read past it.  The kernel is private API; a test
    holds it bit for bit to the public product; if that fails on a SciPy
    release, this goes back to ``csr_matrix @ y``, keeping one path.
    """
    from scipy.sparse._sparsetools import csr_matvec  # only Gaussian pulses need it

    n, levels = r0.shape[0], amplitudes.size
    size = n * levels
    rows, cols = np.nonzero((r1 != 0.0) | (d != 0.0))
    drive = _block_csr(rows, cols, amplitudes[:, None] * r1[rows, cols] + d[rows, cols], n)
    rows, cols = np.nonzero(r0)
    free = _block_csr(rows, cols, np.broadcast_to(r0[rows, cols], (levels, rows.size)), n)

    def rhs(t, y):
        y = y.reshape(size)
        out = np.zeros(size)
        csr_matvec(size, size, *drive, y, out)
        out *= envelope(t)
        csr_matvec(size, size, *free, y, out)
        return out

    return rhs


@dataclass
class Trajectory:
    """Stored time evolution of one spatial node."""

    times: np.ndarray
    states: np.ndarray            # (n_t, 24, 24) complex
    field: np.ndarray             # local Rabi amplitude at each time (rad/s)
    overlap: complex              # time-integrated detection overlap
    local_intensity_scale: float
    detuning: float
    pulse: PulseSpec
    max_trace_deviation: float = 0.0
    min_eigenvalue: float = 0.0
    scheme: LevelScheme = field(default=None, repr=False)

    def manifold_population(self, f: int, excited: bool = False) -> np.ndarray:
        return _population(self.states, self.scheme.manifold_indices(f, excited=excited))

    def sublevel_population(self, f: int, m: int, excited: bool = False) -> np.ndarray:
        i = self.scheme.index_of(f, m, excited=excited)
        return np.real(self.states[:, i, i])

    def excited_population(self) -> np.ndarray:
        return _population(self.states, self.scheme.excited_mask)

    def fz_ground_expectation(self, ops: OperatorSet) -> np.ndarray:
        return _expectation(self.states, ops.f_z)


def _population(states: np.ndarray, idx) -> np.ndarray:
    """Summed population of the basis states ``idx`` in each of ``states`` (..., n, n)."""
    return np.real(states[..., idx, idx].sum(axis=-1))


def _expectation(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Real part of Tr[rho op] for each rho of ``states`` (..., n, n)."""
    return np.real(np.einsum("...ij,ji->...", states, op))


def _check_states(states: np.ndarray):
    """Return (max trace deviation, min eigenvalue) over stored states.

    The states are exactly Hermitian (``_Coordinates.states``).
    """
    if not np.isfinite(states).all():
        raise StepFailure("a stored density matrix is not finite")
    max_dev = float(np.max(np.abs(np.einsum("...ii->...", states).real - 1.0)))
    min_eig = float(np.min(np.linalg.eigvalsh(states)))
    if min_eig < -_POSITIVITY_ABORT:
        raise PositivityViolation(f"density matrix eigenvalue {min_eig:.3e}")
    if max_dev > _TRACE_ABORT:
        raise StepFailure(f"trace deviation {max_dev:.3e}")
    return max_dev, min_eig


def _solve_batch(
    model: _Operators, rho0, amplitudes: np.ndarray, omega0: float, pulse: PulseSpec, t_eval,
):
    """Evolve one state per drive amplitude through the pulse.

    Each amplitude is a local |M| = sqrt(s / A0): an intensity level of
    the cloud, or the single node of ``integrate_node``.  After the checks
    of ``_checked_state``, Gaussian pulses run DOP853
    (``_integrate_gaussian``) and flat trains exact exponentials
    (``_propagate_train``), both on the generators of ``model.flow`` at
    the pulse's detuning and ``omega0``.  Returns (times,
    states (n_t, n, size, size), overlaps (n,)), with full density
    matrices only at the ``t_eval`` times that fall inside a segment (at
    the end of the pulse when none does).
    """
    rho0 = _checked_state(model, rho0)
    flow = model.flow(rho0)
    r0, r1, d = flow.generators(pulse.detuning, omega0)
    solve = _integrate_gaussian if pulse.shape == "gaussian" else _propagate_train
    times, stored, final = solve(flow.coords.initial(rho0), r0, r1, d, amplitudes, pulse, t_eval)
    if not times:
        times, stored = [pulse.window()[1]], final[None]
    return np.asarray(times), flow.coords.states(stored), flow.coords.decode(final)[:, -1]


def _integrate_gaussian(x0, r0, r1, d, amplitudes, pulse, t_eval):
    """DOP853 (``solve_ivp``) through the Gaussian window, all levels in one level-major state.

    Returns (stored times, coordinates (n_t, levels, n) at each, final
    coordinates (levels, n)).
    """
    t0, t1 = pulse.window()
    inside = {t for t in t_eval if t0 <= t <= t1}
    sol = solve_ivp(
        _linear_rhs(r0, r1, d, amplitudes, _gaussian_envelope(pulse)), (t0, t1),
        np.tile(x0, amplitudes.size), rtol=_RTOL, atol=_ATOL, t_eval=sorted(inside | {t1}),
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    x = sol.y.T.reshape(-1, amplitudes.size, x0.size)
    stored = [k for k, tk in enumerate(sol.t) if tk in inside]
    return [float(sol.t[k]) for k in stored], x[stored], x[-1]


def _gaussian_envelope(pulse: PulseSpec):
    s = pulse.sigma_time
    c = math.pi**-0.25 / math.sqrt(s)
    inv = 1.0 / (2.0 * s * s)

    def envelope(t):
        return c * math.exp(-t * t * inv)

    return envelope


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, the package's one ``scipy.linalg`` call, imported at first use.

    A module-level name, so a caller can substitute it; the lazy import
    keeps ``scipy.linalg`` out of processes that propagate no flat train.
    """
    import scipy.linalg

    return scipy.linalg.expm(a)


def _propagator(cache: dict, generator: np.ndarray, dt: float) -> np.ndarray:
    """expm(generator * dt), computed once per interval length.

    Lengths within ``_SAME_INTERVAL`` of each other share one propagator:
    differences of stored times that are equal in exact arithmetic come
    out a few ulps apart.
    """
    for known, p in cache.items():
        if abs(dt - known) <= _SAME_INTERVAL * known:
            return p
    cache[dt] = p = expm(generator * dt)
    return p


def _propagate_train(x0, r0, r1, d, amplitudes, pulse, t_eval):
    """Exact propagation of a flat train, one level at a time.

    Inside a segment the generator R0 + height (a R1 + D) is constant, so
    each interval between the segment start, the stored times and the
    segment end is one matrix exponential; a gap is the undriven,
    undetected R0, with a propagator shared by every level.  Same return
    value as ``_integrate_gaussian``.
    """
    height = 1.0 / math.sqrt(pulse.train_count * pulse.fwhm)
    segments = pulse.segment_windows()
    marks = [sorted({t for t in t_eval if t0 <= t <= t1}) for t0, t1 in segments]
    times = [float(t) for m in marks for t in m]

    stored = np.zeros((len(times), amplitudes.size, x0.size))
    final = np.zeros((amplitudes.size, x0.size))
    gaps = {}
    for j, a in enumerate(amplitudes):
        lit = r0 + height * (a * r1 + d)
        steps = {}
        x, t, k = x0, segments[0][0], 0
        for (t0, t1), inside in zip(segments, marks):
            if t0 > t:
                x = _propagator(gaps, r0, t0 - t) @ x
            t = t0
            for i, tk in enumerate(inside + [t1]):
                if tk > t:
                    x = _propagator(steps, lit, tk - t) @ x
                    t = tk
                if i < len(inside):
                    stored[k, j] = x
                    k += 1
        final[j] = x
    return times, stored, final


def _default_beam(scheme: LevelScheme) -> BeamGeometry:
    """The beam of a call that passes none: the default waist at the line's wavelength."""
    return BeamGeometry(wavelength=scheme.wavelength)


def integrate_node(
    rho0: np.ndarray,
    pulse: PulseSpec,
    local_intensity_scale: float,
    model: OperatorSet,
    beam: BeamGeometry = None,
    n_stored: int = 200,
) -> Trajectory:
    """Integrate one spatial node through a pulse and store its history.

    ``local_intensity_scale`` is the dimensionless local intensity
    relative to the on-axis focus of ``beam`` (default beam if omitted);
    1.0 means the node sits at the focus on axis.  Raises InvalidConfig
    for a scale outside [0, 1], for an ``n_stored`` that is not an
    integer of at least 1 and for an initial state the model cannot hold
    (see the module docstring), before integrating.
    """
    if not 0.0 <= local_intensity_scale <= 1.0:
        raise InvalidConfig("local_intensity_scale must lie in [0, 1]")
    if not isinstance(n_stored, numbers.Integral) or n_stored < 1:
        raise InvalidConfig(f"n_stored = {n_stored!r} must be an integer of at least 1")
    scheme = model.scheme
    beam = beam or _default_beam(scheme)
    omega0 = drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
    amp = np.array([math.sqrt(local_intensity_scale / beam.effective_area)])

    t_eval = list(np.linspace(*pulse.window(), n_stored))
    times, states, acc = _solve_batch(
        _Operators.production(model), rho0, amp, omega0, pulse, t_eval,
    )
    states = states[:, 0]
    max_dev, min_eig = _check_states(states)
    return Trajectory(
        times=times,
        states=states,
        field=omega0 * amp[0] * pulse.envelope(times),
        overlap=complex(acc[0]),
        local_intensity_scale=local_intensity_scale,
        detuning=pulse.detuning,
        pulse=pulse,
        max_trace_deviation=max_dev,
        min_eigenvalue=min_eig,
        scheme=scheme,
    )


def _intensity_rule(s: np.ndarray, weight: np.ndarray, k: int):
    """At most k intensity levels and weights standing in for the cloud rule.

    The product rule is the discrete measure sum_i w_i delta(s - s_i) in
    local intensity.  Equal intensities are merged first; if at most k
    distinct values remain they are returned with their summed weights,
    exactly.  Otherwise the result is the k-point Gauss rule of that
    measure, which reproduces its moments sum w s^j for j < 2k: Lanczos
    on diag(s) from sqrt(w), with full reorthogonalization, gives the
    k x k Jacobi matrix; its eigenvalues (numpy's dense ``eigh``) are the
    levels and its first eigenvector components give the weights (Golub
    & Welsch, Math. Comp. 23 (1969) 221).  Returns (levels, weights), levels ascending.
    """
    values, inverse = np.unique(s, return_inverse=True)
    mass = np.bincount(inverse, weights=weight)
    if values.size <= k:
        return values, mass
    total = mass.sum()
    basis = np.zeros((k, values.size))
    jacobi = np.zeros((k, k))
    q = np.sqrt(mass / total)
    for j in range(k):
        basis[j] = q
        v = values * q
        jacobi[j, j] = q @ v
        # reorthogonalize twice against every earlier vector: plain Lanczos
        # loses orthogonality as soon as a level converges
        for _ in range(2):
            v -= basis[: j + 1].T @ (basis[: j + 1] @ v)
        if j + 1 < k:
            jacobi[j, j + 1] = jacobi[j + 1, j] = np.linalg.norm(v)
            q = v / jacobi[j + 1, j]
    levels, vectors = np.linalg.eigh(jacobi)
    # the levels lie in the hull of the intensities, [0, 1]; rounding can
    # put the lowest a few ulps below 0 when the intensities span many decades
    return np.maximum(levels, 0.0), total * vectors[0] ** 2


@dataclass
class StokesResult:
    """Detected expectation values and bookkeeping for one pulse."""

    s_x: float
    s_y: float
    rotation: float              # polarization-plane rotation (rad)
    ellipticity: float
    rotation_per_atom: float
    ellipticity_per_atom: float
    damage_mean: float           # density-weighted polarization loss per atom
    damage_detected: float       # mode-weighted loss, what a second probe sees
    n_atoms: float
    pulse: PulseSpec
    grid: QuadratureGrid         # the product rule that defines the cloud measure
    levels: int                  # intensity levels integrated for it
    max_trace_deviation: float
    min_eigenvalue: float
    end_populations: dict


def detected_stokes(
    pulse: PulseSpec,
    beam: BeamGeometry,
    cloud: CloudGeometry,
    model: OperatorSet,
    initial=None,
    n_radial: int = 9,
    n_long: int = 9,
) -> StokesResult:
    """Drive the cloud through the pulse and assemble (S_x, S_y).

    S_x is the input photon number; S_y = rotation * S_x, with the
    rotation given by the time-integrated, mode-matched overlap of the
    first-order dipole response.  Linearity in atom number is exact in
    this first-order scheme.  The n_radial x n_long product rule of the
    cloud quadrature sets the distribution of local intensity; the
    master equation is integrated once per level of its Gauss rule in
    intensity (at most ``_INTENSITY_LEVELS``, exact when the rule has no
    more distinct intensities than that; see the module docstring).

    Raises InvalidConfig, before integrating, when the beam's intensity
    underflows to 0 at every cloud node, and when ``initial`` is not a
    Hermitian, unit-trace, positive 24x24 matrix that is zero outside the
    entries the ground manifolds reach (see the module docstring).
    """
    scheme = model.scheme
    if initial is None:
        initial = initial_state(scheme, 1, 1)
    grid = cloud_quadrature(cloud, n_radial=n_radial, n_long=n_long)
    level, weight = _intensity_rule(
        beam.local_intensity_scale(grid.r, grid.z), grid.weight, _INTENSITY_LEVELS,
    )
    w_mode = weight * level
    if not np.sum(w_mode) > 0.0:
        raise InvalidConfig(
            "the beam reaches no atom: the local intensity underflows to 0 at every cloud node"
        )
    omega0 = drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
    amps = np.sqrt(level / beam.effective_area)

    t_eval = list(np.linspace(*pulse.window(), _CLOUD_SNAPSHOTS))
    times, states, acc = _solve_batch(
        _Operators.production(model), initial, amps, omega0, pulse, t_eval,
    )
    max_dev, min_eig = _check_states(states)

    k = scheme.line.wavenumber
    gamma = scheme.gamma
    overlap = np.sum(weight * amps * acc)
    # polarimeter sign convention: a spin-up stretched sample probed far
    # blue of every line rotates toward positive S_y (matches the
    # perturbative weight difference, so both response coefficients of
    # the saturation model come out positive)
    response = -1j * (6.0 * math.pi * gamma / (k * k * omega0)) * overlap
    rotation_pa = float(np.real(response))
    ellipticity_pa = float(np.imag(response))

    fz0 = float(_expectation(initial, model.f_z))
    end = states[-1]
    fz_end = _expectation(end, model.f_z)
    if abs(fz0) > 1e-12:
        loss = 1.0 - fz_end / fz0
        damage_mean = float(np.sum(weight * loss))
        damage_detected = float(np.sum(w_mode * loss) / np.sum(w_mode))
    else:
        damage_mean = damage_detected = float("nan")

    pops = {
        f"ground_f{f}": float(np.sum(weight * _population(end, scheme.manifold_indices(f))))
        for f in (1, 2)
    }
    pops["excited"] = float(np.sum(weight * _population(end, scheme.excited_mask)))

    n_atoms = cloud.n_atoms
    rotation = rotation_pa * n_atoms
    ellipticity = ellipticity_pa * n_atoms
    return StokesResult(
        s_x=pulse.n_photons,
        s_y=rotation * pulse.n_photons,
        rotation=rotation,
        ellipticity=ellipticity,
        rotation_per_atom=rotation_pa,
        ellipticity_per_atom=ellipticity_pa,
        damage_mean=damage_mean,
        damage_detected=damage_detected,
        n_atoms=n_atoms,
        pulse=pulse,
        grid=grid,
        levels=int(level.size),
        max_trace_deviation=max_dev,
        min_eigenvalue=min_eig,
        end_populations=pops,
    )


def pt_linear_coefficient(
    model: OperatorSet,
    detuning: float,
    beam: BeamGeometry,
    cloud: CloudGeometry,
) -> complex:
    """Second-order (linear) rotation per atom of the |1,+1> state.

    Independent of the integrator: the complex path-weight difference at
    the natural linewidth is assembled with the detection prefactor and
    the exact Gaussian cloud average (transverse closed form, longitudinal
    quadrature).  Real part is the plane rotation per atom, imaginary part
    the ellipticity.  Raises InvalidConfig for a non-finite detuning.
    """
    from numpy.polynomial.hermite import hermgauss

    if not math.isfinite(detuning):
        raise InvalidConfig(f"detuning = {detuning} is not a finite number")
    scheme = model.scheme
    gamma = scheme.gamma
    v = pt_rotation_weight(scheme, model, detuning, scheme.index_of(1, 1), linewidth=gamma)
    k = scheme.line.wavenumber
    t, wt = hermgauss(_PT_LONG_NODES)
    z = cloud.sigma_long * t
    w2 = beam.width(z) ** 2
    msq = np.sum(
        wt / math.sqrt(math.pi) * (2.0 / (math.pi * w2)) / (1.0 + 2.0 * cloud.sigma_trans**2 / w2)
    )
    return 1.5 * math.pi * gamma * v * msq / k**2


def extract_effective_coefficients(
    model: OperatorSet,
    detuning: float,
    beam: BeamGeometry = None,
    cloud: CloudGeometry = None,
) -> EffectiveCoefficients:
    """Extract linear and leading nonlinear response at one detuning.

    alpha1 is the pulse-energy -> 0 limit of the per-atom rotation, beta1
    the slope of the per-atom rotation versus photon number, both from
    the quadratic through ``_PHOTON_LADDER`` of default ``PulseSpec``
    pulses (the 54 ns Gaussian) at ``detuning``.

    Raises InvalidConfig when the detuning sits within 3 Gamma of a bare
    resonance.
    """
    scheme = model.scheme
    gamma = scheme.gamma
    for delta_e in scheme.static_offsets[scheme.excited_mask]:
        if abs(detuning - delta_e) < 3.0 * gamma:
            raise InvalidConfig(
                f"detuning {detuning:.4g} rad/s within 3 Gamma of a resonance"
            )
    beam = beam or _default_beam(scheme)
    cloud = cloud or CloudGeometry()

    ladder = np.asarray(_PHOTON_LADDER)
    phis = [
        detected_stokes(PulseSpec(n_photons=n, detuning=detuning), beam, cloud, model)
        .rotation_per_atom
        for n in _PHOTON_LADDER
    ]
    # three points fix the quadratic exactly: the Vandermonde has rank 3
    design = np.vander(ladder, 3, increasing=True)  # [1, N, N^2]
    coef = np.linalg.lstsq(design, phis, rcond=None)[0]
    return EffectiveCoefficients(detuning=detuning, alpha1=float(coef[0]), beta1=float(coef[1]))


def locate_crossing(
    model: OperatorSet,
    beam: BeamGeometry = None,
    cloud: CloudGeometry = None,
    lo: float = 2 * np.pi * 430e6,
    hi: float = 2 * np.pi * 500e6,
) -> float:
    """Zero of the simulated low-energy rotation versus detuning.

    Probes with default ``PulseSpec`` pulses (the 54 ns Gaussian) of
    ``_CROSSING_PHOTONS`` photons, so the linear term dominates.  The
    root is that of the rotation at this photon number, not of alpha1:
    the residual nonlinear term beta1 * N moves it by about -0.35 MHz at
    the default beam and cloud, 7 times the root tolerance
    ``_CROSSING_XTOL``.
    """
    beam = beam or _default_beam(model.scheme)
    cloud = cloud or CloudGeometry()

    def rot(delta):
        pulse = PulseSpec(n_photons=_CROSSING_PHOTONS, detuning=delta)
        return detected_stokes(pulse, beam, cloud, model).rotation_per_atom

    return brentq(rot, lo, hi, xtol=_CROSSING_XTOL)
