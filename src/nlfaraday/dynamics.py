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

Of the 24 atomic levels, each integrated state holds only two blocks.
The coherent 12x12 block holds ground F=1 and the excited levels the
x-polarized drive reaches from it, F'=0, 1, 2; the drive, the level
energies, the excited-state decay, the recycling into F=1 and the
detection act on it alone.  The 5x5 ground F=2 block has no drive and
only accumulates decay from the excited levels.  Everything else stays
exactly zero for any initial state with zeros there: F'=3 is two units
of F away from F=1, so the drive cannot reach it and nothing else feeds
it; with the emission channels split by destination ground manifold,
decay never builds an F=1-F=2 coherence; and since F=2 is not driven,
no excited-F=2 coherence forms either.  Full 24x24 matrices are rebuilt
from the blocks only at the stored times.

Two solvers advance the states.  Under a flat-train segment the
envelope, and with it the generator, is constant, so each segment and
each gap between segments is advanced by exact matrix exponentials of
the linear generator on a level's blocks and detection accumulator.  A
Gaussian pulse is integrated with DOP853; it is the only use of the
adaptive integrator.

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, expm
from scipy.optimize import brentq

from . import atom as _atom
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
    NonConvergence,
    PositivityViolation,
    QuadratureNotConverged,
    StepFailure,
)
from .geometry import BeamGeometry, CloudGeometry, PulseSpec, QuadratureGrid, cloud_quadrature

_POSITIVITY_ABORT = 1e-6
_TRACE_ABORT = 1e-6
# the integrator of Gaussian pulses, cloud and single-node alike
_METHOD = "DOP853"
_RTOL = 1e-6
_ATOL = 1e-9
# relative difference below which two flat-segment intervals share one
# propagator; consecutive stored times differ by a few ulps
_SAME_INTERVAL = 1e-12
# the two-level oracle runs a different, tighter integrator, so it does
# not share the production settings it validates
_ORACLE_METHOD = "RK45"
_ORACLE_RTOL = 1e-10
_ORACLE_ATOL = 1e-12
# relative S_y change on node and level doubling that verify_quadrature tolerates
_QUADRATURE_RTOL = 5e-3
# Gauss levels of local intensity integrated per pulse; 12 levels match
# the 9x9 product rule to 1.5e-8 in ellipticity at 1e8 photons, 8 do not
_INTENSITY_LEVELS = 12
# Gauss-Hermite nodes in z of the perturbative oracle's cloud average
_PT_LONG_NODES = 33
# locate_crossing: photon number small enough that the linear term
# dominates, and the root tolerance in rad/s
_CROSSING_PHOTONS = 2e5
_CROSSING_XTOL = 2 * np.pi * 5e4


def drive_scale(n_photons: float, gamma: float, wavenumber: float) -> float:
    """omega0 in m/sqrt(s): local Rabi = omega0 * T(t) * |M(r, z)|."""
    return math.sqrt(12.0 * math.pi * n_photons * gamma) / wavenumber


@dataclass(frozen=True)
class _Generator:
    """Precomputed pieces of the batched right-hand side on the two blocks.

    The coherent block lists its ground levels first, then the excited
    levels the drive reaches; ``coherent`` and ``decay_only`` give the
    full-basis indices of the two blocks (``decay_only`` may be empty).
    """

    g: np.ndarray          # coherent block, elementwise: -i(w_i - w_j) - decay
    raising: np.ndarray    # drive raising operator on the coherent block
    gain: np.ndarray       # flat rho_ee (ne*ne,) -> flat gain (ng*ng + nd*nd,), transposed
    n_ground: int          # ground levels of the coherent block
    detect: np.ndarray     # excited-ground detection block (ne, ng)
    coherent: np.ndarray
    decay_only: np.ndarray
    size: int              # levels of the full basis


def _build_generator(ops: OperatorSet, detuning: float) -> _Generator:
    """Generator of the production model, restricted to the levels it fills.

    The probe drives only ground F=1, and by the dipole selection rules
    an x-polarized field reaches only F'=0, 1, 2 from it.  Those twelve
    levels form the coherent block.  Emission channels are split by
    destination ground manifold, so decay feeds ground F=2 populations and
    coherences but never a coherence between F=2 and any other level; with
    no drive and no frequency spread inside F=2, that 5x5 block only
    accumulates decay.  Nothing couples anything into F'=3, into an
    F=1-F=2 coherence or into an excited-F=2 coherence, so these stay
    exact zeros and are not integrated.  The pieces serve both solvers:
    DOP853 through a Gaussian pulse (``_make_rhs``) and the exact matrix
    exponentials of a flat train's segments and gaps
    (``_flat_generators``).
    """
    scheme = ops.scheme
    gamma = scheme.gamma
    diag = scheme.static_offsets - detuning * scheme.excited_mask
    pe = scheme.excited_mask.astype(float)

    # Anticommutator part of the dissipator is gamma * P_excited for this
    # line (verified below); it folds into the elementwise static term.
    jumps = jump_operators(ops, gamma, split_ground_manifolds=True)
    anti = sum(l.conj().T @ l for l in jumps)
    if not np.allclose(anti, np.diag(gamma * pe), atol=1e-10 * gamma):
        raise AssertionError("dissipator anticommutator is not gamma * P_e")

    raising = (excited_projector(scheme) @ ops.d_x @ ground_projector(scheme, f=1)).real
    ground = scheme.manifold_indices(1)
    excited = np.flatnonzero(np.any(raising != 0.0, axis=1))
    coherent = np.concatenate([ground, excited])
    decay_only = scheme.manifold_indices(2)

    g = -1j * (diag[:, None] - diag[None, :]) - 0.5 * gamma * (pe[:, None] + pe[None, :])
    detect = ground_projector(scheme) @ ops.d_y @ excited_projector(scheme)
    return _Generator(
        g=g[np.ix_(coherent, coherent)],
        raising=raising[np.ix_(coherent, coherent)],
        gain=_gain_map([[l[np.ix_(dest, excited)] for l in jumps] for dest in (ground, decay_only)]),
        n_ground=ground.size,
        detect=np.ascontiguousarray(detect.T[np.ix_(excited, ground)]),
        coherent=coherent,
        decay_only=decay_only,
        size=_atom.N_STATES,
    )


def _gain_map(channels) -> np.ndarray:
    """Vectorized emission map into each destination block, side by side.

    ``channels[b]`` holds the emission blocks W (dest_b x excited) of
    destination b; the map sends flat rho_ee to the flat gains
    sum_W W rho_ee W^T of every destination, concatenated.
    """
    cols = []
    for blocks in channels:
        nd, ne = blocks[0].shape
        m = np.zeros((nd * nd, ne * ne))
        for w in blocks:
            # out[a,b] = sum_cd W[a,c] rho[c,d] W[b,d]
            m += np.einsum("ac,bd->abcd", w, w).reshape(nd * nd, ne * ne)
        cols.append(m)
    return np.concatenate(cols).T.astype(complex)  # transposed for row-vector matmul


def _pack(coh: np.ndarray, dec: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Solver state: [coherent blocks, decay-only blocks, accumulators] as floats."""
    return np.concatenate([coh.ravel(), dec.ravel(), acc]).view(float)


def _unpack(gen: _Generator, y: np.ndarray, n_nodes: int):
    """Views (coherent (n, nc, nc), decay-only (n, nd, nd), accumulators (n,)) of ``y``."""
    z = y.view(np.complex128)
    nc, nd = gen.coherent.size, gen.decay_only.size
    a = n_nodes * nc * nc
    b = a + n_nodes * nd * nd
    return z[:a].reshape(n_nodes, nc, nc), z[a:b].reshape(n_nodes, nd, nd), z[b:]


def _from_blocks(gen: _Generator, coh: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """Full density matrices from the two blocks; every other element is zero."""
    out = np.zeros(coh.shape[:-2] + (gen.size, gen.size), dtype=complex)
    out[..., gen.coherent[:, None], gen.coherent] = coh
    out[..., gen.decay_only[:, None], gen.decay_only] = dec
    return out


def _to_blocks(gen: _Generator, rho) -> tuple:
    """Split a full initial density matrix into the two integrated blocks.

    Raises InvalidConfig, before anything is integrated, for a matrix of
    the wrong shape, non-finite, non-Hermitian, off unit trace, negative
    beyond the positivity guard, or nonzero where the blocks cannot hold
    it (F'=3, F=1-F=2 and excited-F=2 elements).
    """
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"initial state is not a numeric matrix: {exc}") from exc
    n = gen.size
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
    coh = rho[np.ix_(gen.coherent, gen.coherent)]
    dec = rho[np.ix_(gen.decay_only, gen.decay_only)]
    if not np.array_equal(_from_blocks(gen, coh, dec), rho):
        raise InvalidConfig(
            "initial state is nonzero outside the driven levels and ground F=2 "
            "(an F'=3 element, or an F=1-F=2 or excited-F=2 coherence)"
        )
    return coh, dec


def _make_rhs(gen: _Generator, amplitudes: np.ndarray, omega0: float, envelope):
    """Vector field over the stacked per-amplitude blocks plus overlap accumulators.

    State layout: see ``_pack``.  The accumulator integrates
    T(t) * Tr[rho d_detect].  Drive amplitudes are real (see the module
    docstring for why a mode phase would cancel).
    """
    n_nodes = amplitudes.shape[0]
    ng = gen.n_ground
    nc = gen.coherent.size
    ne = nc - ng
    # H_drive = -(Omega/2) S with S = R + R^T, so -i[H, rho] = (i Omega/2)[S, rho]
    # and [S, rho] = (rho S)^H - rho S for Hermitian rho
    s = (gen.raising + gen.raising.T).astype(complex)
    drive = 0.5j * omega0 * amplitudes[:, None, None]
    g = gen.g
    gain_t = gen.gain

    def rhs(t, y):
        rho, _, _ = _unpack(gen, y, n_nodes)
        tt = envelope(t)
        out = np.empty_like(y)
        drho, ddec, dacc = _unpack(gen, out, n_nodes)

        np.multiply(g, rho, out=drho)
        c = (rho.reshape(-1, nc) @ s).reshape(n_nodes, nc, nc)
        u = c.conj().transpose(0, 2, 1) - c
        u *= tt * drive
        drho += u

        gain = rho[:, ng:, ng:].reshape(n_nodes, ne * ne) @ gain_t
        drho[:, :ng, :ng] += gain[:, : ng * ng].reshape(n_nodes, ng, ng)
        ddec[:] = gain[:, ng * ng :].reshape(ddec.shape)

        np.einsum("nij,ij->n", rho[:, ng:, :ng], gen.detect, out=dacc)
        dacc *= tt
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
        idx = self.scheme.manifold_indices(f, excited=excited)
        return np.real(self.states[:, idx, idx].sum(axis=1))

    def sublevel_population(self, f: int, m: int, excited: bool = False) -> np.ndarray:
        i = self.scheme.index_of(f, m, excited=excited)
        return np.real(self.states[:, i, i])

    def excited_population(self) -> np.ndarray:
        mask = self.scheme.excited_mask
        return np.real(self.states[:, mask, mask].sum(axis=1))

    def fz_ground_expectation(self, ops: OperatorSet) -> np.ndarray:
        return np.real(np.einsum("tij,ji->t", self.states, ops.f_z))


def _check_states(states: np.ndarray):
    """Return (max trace deviation, min eigenvalue) over stored states."""
    flat = states.reshape(-1, states.shape[-1], states.shape[-1])
    traces = np.einsum("kii->k", flat).real
    max_dev = float(np.max(np.abs(traces - 1.0))) if flat.size else 0.0
    herm = 0.5 * (flat + flat.conj().transpose(0, 2, 1))
    min_eig = float(np.min(np.linalg.eigvalsh(herm))) if flat.size else 0.0
    if min_eig < -_POSITIVITY_ABORT:
        raise PositivityViolation(f"density matrix eigenvalue {min_eig:.3e}")
    if max_dev > _TRACE_ABORT:
        raise StepFailure(f"trace deviation {max_dev:.3e}")
    return max_dev, min_eig


def _solve_batch(
    gen: _Generator,
    rho0: np.ndarray,
    amplitudes: np.ndarray,
    omega0: float,
    pulse: PulseSpec,
    t_eval,
):
    """Evolve one state per drive amplitude through the pulse.

    Each amplitude is a local |M| = sqrt(s / A0): an intensity level of
    the cloud, or the single node of ``integrate_node``.  A Gaussian pulse
    is integrated with DOP853 (``_integrate_gaussian``); the segments and
    gaps of a flat train, where the generator is constant, are advanced
    by exact matrix exponentials (``_propagate_train``).  Returns (times,
    states (n_t, n, size, size), overlaps (n,)), with the full density
    matrices rebuilt from the two blocks only at the ``t_eval`` times that
    fall inside a segment (at the end of the pulse when none does).
    """
    coh, dec = _to_blocks(gen, rho0)
    solve = _integrate_gaussian if pulse.shape == "gaussian" else _propagate_train
    times, blocks, (coh, dec, acc) = solve(gen, coh, dec, amplitudes, omega0, pulse, t_eval)
    if not times:
        times, blocks = [pulse.window()[1]], [(coh, dec)]
    states = np.stack([_from_blocks(gen, c, d) for c, d in blocks])
    return np.asarray(times), states, acc


def _integrate_gaussian(gen, coh, dec, amplitudes, omega0, pulse, t_eval):
    """DOP853 through the Gaussian window, all amplitudes in one state.

    Returns (stored times, (coherent, decay-only) blocks at each, final
    (coherent, decay-only, accumulators)).
    """
    n_nodes = amplitudes.shape[0]
    t0, t1 = pulse.window()
    inside = {t for t in t_eval if t0 <= t <= t1}
    y0 = _pack(
        np.broadcast_to(coh, (n_nodes,) + coh.shape),
        np.broadcast_to(dec, (n_nodes,) + dec.shape),
        np.zeros(n_nodes, dtype=complex),
    )
    sol = solve_ivp(
        _make_rhs(gen, amplitudes, omega0, _gaussian_envelope(pulse)),
        (t0, t1),
        y0,
        method=_METHOD,
        rtol=_RTOL,
        atol=_ATOL,
        t_eval=sorted(inside | {t1}),
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    times, blocks = [], []
    for k, tk in enumerate(sol.t):
        if tk in inside:
            times.append(float(tk))
            blocks.append(_unpack(gen, np.ascontiguousarray(sol.y[:, k]), n_nodes)[:2])
    return times, blocks, _unpack(gen, np.ascontiguousarray(sol.y[:, -1]), n_nodes)


def _gaussian_envelope(pulse: PulseSpec):
    s = pulse.sigma_time
    c = math.pi**-0.25 / math.sqrt(s)
    inv = 1.0 / (2.0 * s * s)

    def envelope(t):
        return c * math.exp(-t * t * inv)

    return envelope


def _flat_generators(gen: _Generator, omega0: float, height: float):
    """(L0, L1): one level's generator in a flat segment is L0 + a * L1.

    Both act complex-linearly on the column vector [coherent block,
    decay-only block, accumulator] of one level, blocks row-major.  L0
    holds the elementwise g, the recycling gain into F=1, the gain into
    F=2 and the accumulator row height * detect; L1 is the drive of unit
    amplitude |M|, (i omega0 height / 2) (S rho - rho S).  The commutator
    is written out: the (rho S)^H shortcut of ``_make_rhs`` holds only for
    Hermitian rho, not for the basis vectors a propagator acts on.
    """
    nc, nd, ng = gen.coherent.size, gen.decay_only.size, gen.n_ground
    coh = np.arange(nc * nc).reshape(nc, nc)
    size = nc * nc + nd * nd + 1
    l0 = np.zeros((size, size), dtype=complex)
    l0[coh.ravel(), coh.ravel()] = gen.g.ravel()
    gained = np.concatenate([coh[:ng, :ng].ravel(), nc * nc + np.arange(nd * nd)])
    l0[np.ix_(gained, coh[ng:, ng:].ravel())] = gen.gain.T
    l0[-1, coh[ng:, :ng].ravel()] = height * gen.detect.ravel()

    s = gen.raising + gen.raising.T
    eye = np.eye(nc)
    l1 = np.zeros_like(l0)
    l1[: nc * nc, : nc * nc] = (0.5j * omega0 * height) * (np.kron(s, eye) - np.kron(eye, s))
    return l0, l1


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


def _reachable(pattern: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Indices a linear flow with nonzero ``pattern`` can fill from ``start``.

    Entry i is filled once some filled j has pattern[i, j]; the entries
    reached are an invariant subspace, and every other entry starts and
    stays exactly zero.
    """
    filled = start
    while True:
        grown = filled | pattern[:, filled].any(axis=1)
        if np.array_equal(grown, filled):
            return np.flatnonzero(filled)
        filled = grown


def _propagate_train(gen, coh, dec, amplitudes, omega0, pulse, t_eval):
    """Exact propagation of a flat train, one level at a time.

    Inside a segment the generator is constant, so each interval between
    the segment start, the stored times and the segment end is one
    matrix exponential; a gap is the zero-drive case, L0 without the
    accumulator row, with a propagator shared by every level.  The
    exponentials act only on the entries the initial state can reach (88
    of 170 for a ground F=1 sample, whose drive and decay conserve a
    parity of the coherences).  Same return value as
    ``_integrate_gaussian``.
    """
    z0 = np.concatenate([coh.ravel(), dec.ravel(), [0.0]])
    l0, l1 = _flat_generators(gen, omega0, 1.0 / math.sqrt(pulse.train_count * pulse.fwhm))
    keep = _reachable((l0 != 0.0) | (l1 != 0.0), z0 != 0.0)
    dark = l0.copy()
    dark[-1] = 0.0  # without light nothing is detected
    sub = np.ix_(keep, keep)
    l0, l1, dark = l0[sub], l1[sub], dark[sub]
    segments = pulse.segment_windows()
    marks = [sorted({t for t in t_eval if t0 <= t <= t1}) for t0, t1 in segments]
    times = [float(t) for m in marks for t in m]

    stored = np.zeros((len(times), amplitudes.size, z0.size), dtype=complex)
    final = np.zeros((amplitudes.size, z0.size), dtype=complex)
    gaps = {}
    for j, a in enumerate(amplitudes):
        lit = l0 + a * l1
        steps = {}
        z, t, k = z0[keep], segments[0][0], 0
        for (t0, t1), inside in zip(segments, marks):
            if t0 > t:
                z = _propagator(gaps, dark, t0 - t) @ z
            t = t0
            for i, tk in enumerate(inside + [t1]):
                if tk > t:
                    z = _propagator(steps, lit, tk - t) @ z
                    t = tk
                if i < len(inside):
                    stored[k, j, keep] = z
                    k += 1
        final[j, keep] = z

    nc, nd = gen.coherent.size, gen.decay_only.size

    def split(z):
        n = z.shape[0]
        return z[:, : nc * nc].reshape(n, nc, nc), z[:, nc * nc : -1].reshape(n, nd, nd)

    return times, [split(z) for z in stored], (*split(final), final[:, -1])


def integrate_node(
    rho0: np.ndarray,
    pulse: PulseSpec,
    local_intensity_scale: float,
    model: OperatorSet,
    beam: BeamGeometry = None,
    t_eval=None,
    n_stored: int = 200,
) -> Trajectory:
    """Integrate one spatial node through a pulse and store its history.

    ``local_intensity_scale`` is the dimensionless local intensity
    relative to the on-axis focus of ``beam`` (default beam if omitted);
    1.0 means the node sits at the focus on axis.  Raises InvalidConfig
    for a scale outside [0, 1] and for an initial state the model cannot
    hold (see the module docstring), before integrating.
    """
    if not 0.0 <= local_intensity_scale <= 1.0:
        raise InvalidConfig("local_intensity_scale must lie in [0, 1]")
    beam = beam or BeamGeometry(wavelength=model.scheme.wavelength)
    scheme = model.scheme
    gen = _build_generator(model, pulse.detuning)
    omega0 = drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
    amp = np.array([math.sqrt(local_intensity_scale / beam.effective_area)])

    t0, t1 = pulse.window()
    if t_eval is None:
        t_eval = np.linspace(t0, t1, n_stored)
    times, states, acc = _solve_batch(gen, rho0, amp, omega0, pulse, list(t_eval))
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
    Jacobi matrix, whose eigenvalues are the levels and whose first
    eigenvector components give the weights (Golub & Welsch, Math. Comp.
    23 (1969) 221).  Returns (levels, weights), levels ascending.
    """
    values, inverse = np.unique(s, return_inverse=True)
    mass = np.bincount(inverse, weights=weight)
    if values.size <= k:
        return values, mass
    total = mass.sum()
    basis = np.zeros((k, values.size))
    alpha = np.zeros(k)
    beta = np.zeros(k - 1)
    q = np.sqrt(mass / total)
    for j in range(k):
        basis[j] = q
        v = values * q
        alpha[j] = q @ v
        # reorthogonalize twice against every earlier vector: plain Lanczos
        # loses orthogonality as soon as a level converges
        for _ in range(2):
            v -= basis[: j + 1].T @ (basis[: j + 1] @ v)
        if j + 1 < k:
            beta[j] = np.linalg.norm(v)
            q = v / beta[j]
    levels, vectors = eigh_tridiagonal(alpha, beta)
    return levels, total * vectors[0] ** 2


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
    verify_quadrature: bool = False,
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

    Raises InvalidConfig, before integrating, when ``initial`` is not a
    Hermitian, unit-trace, positive 24x24 matrix that is zero outside the
    two integrated blocks (see the module docstring).  Raises
    QuadratureNotConverged when ``verify_quadrature`` is set and
    doubling both node counts and the level count moves S_y by more than
    5e-3 relatively (with an absolute floor tied to integration
    tolerance).
    """
    out = _detected_stokes_once(
        pulse, beam, cloud, model, initial, n_radial, n_long, _INTENSITY_LEVELS,
    )
    if verify_quadrature:
        fine = _detected_stokes_once(
            pulse, beam, cloud, model, initial, 2 * n_radial, 2 * n_long,
            2 * _INTENSITY_LEVELS, n_snapshots=2,
        )
        scale = max(abs(out.s_y), abs(fine.s_y), _ATOL * max(out.s_x, 1.0))
        if abs(out.s_y - fine.s_y) > _QUADRATURE_RTOL * scale:
            raise QuadratureNotConverged(
                f"S_y moved {out.s_y:.6e} -> {fine.s_y:.6e} on node and level doubling"
            )
    return out


def _detected_stokes_once(
    pulse, beam, cloud, model, initial, n_radial, n_long, n_levels, n_snapshots=5,
):
    scheme = model.scheme
    if initial is None:
        initial = initial_state(scheme, 1, 1)
    grid = cloud_quadrature(cloud, n_radial=n_radial, n_long=n_long)
    level, weight = _intensity_rule(
        beam.local_intensity_scale(grid.r, grid.z), grid.weight, n_levels,
    )
    gen = _build_generator(model, pulse.detuning)
    omega0 = drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
    amps = np.sqrt(level / beam.effective_area)

    t0, t1 = pulse.window()
    t_eval = list(np.linspace(t0, t1, n_snapshots))
    times, states, acc = _solve_batch(gen, initial, amps, omega0, pulse, t_eval)
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

    fz0 = float(np.real(np.einsum("ij,ji->", initial, model.f_z)))
    end = states[-1]
    fz_end = np.real(np.einsum("nij,ji->n", end, model.f_z))
    if abs(fz0) > 1e-12:
        loss = 1.0 - fz_end / fz0
        w_mode = weight * level
        damage_mean = float(np.sum(weight * loss))
        damage_detected = float(np.sum(w_mode * loss) / np.sum(w_mode))
    else:
        damage_mean = damage_detected = float("nan")

    pops = {}
    for f, excited in ((1, False), (2, False)):
        idx = scheme.manifold_indices(f, excited=excited)
        pops[f"ground_f{f}"] = float(
            np.sum(weight * np.real(end[:, idx, idx].sum(axis=1)))
        )
    mask = scheme.excited_mask
    pops["excited"] = float(np.sum(weight * np.real(end[:, mask, mask].sum(axis=1))))

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
    the ellipticity.
    """
    from numpy.polynomial.hermite import hermgauss

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
    photon_ladder=(2.5e5, 1e6, 4e6),
) -> EffectiveCoefficients:
    """Extract linear and leading nonlinear response at one detuning.

    alpha1 is the pulse-energy -> 0 limit of the per-atom rotation, beta1
    the slope of the per-atom rotation versus photon number, both from a
    quadratic fit over the photon ladder of default ``PulseSpec`` pulses
    (the 54 ns Gaussian) at ``detuning``.

    Raises NonConvergence when the ladder does not resolve a clean
    quadratic (residual above tolerance) and InvalidConfig when the
    detuning sits within 3 Gamma of a bare resonance.
    """
    scheme = model.scheme
    gamma = scheme.gamma
    for delta_e in scheme.static_offsets[scheme.excited_mask]:
        if abs(detuning - delta_e) < 3.0 * gamma:
            raise InvalidConfig(
                f"detuning {detuning:.4g} rad/s within 3 Gamma of a resonance"
            )
    beam = beam or BeamGeometry(wavelength=scheme.wavelength)
    cloud = cloud or CloudGeometry()

    ladder = np.asarray(sorted(photon_ladder), dtype=float)
    if len(ladder) < 3:
        raise InvalidConfig("photon ladder needs at least 3 values")
    phis = []
    for n in ladder:
        pulse = PulseSpec(n_photons=float(n), detuning=detuning)
        res = detected_stokes(pulse, beam, cloud, model)
        phis.append(res.rotation_per_atom)
    phis = np.asarray(phis)

    design = np.vander(ladder, 3, increasing=True)  # [1, N, N^2]
    coef, res_ss, rank, _ = np.linalg.lstsq(design, phis, rcond=None)
    alpha1, beta1 = float(coef[0]), float(coef[1])
    fitted = design @ coef
    resid = float(np.max(np.abs(phis - fitted)))
    scale = max(np.max(np.abs(phis)), 1e3 * _ATOL)
    if rank < 3 or resid > 1e-3 * scale:
        raise NonConvergence(
            f"photon ladder not in the quadratic regime (residual {resid:.3g})"
        )
    return EffectiveCoefficients(detuning=detuning, alpha1=alpha1, beta1=beta1)


def locate_crossing(
    model: OperatorSet,
    beam: BeamGeometry = None,
    cloud: CloudGeometry = None,
    lo: float = 2 * np.pi * 430e6,
    hi: float = 2 * np.pi * 500e6,
) -> float:
    """Zero of the simulated low-energy rotation versus detuning.

    Probes with default ``PulseSpec`` pulses (the 54 ns Gaussian) of
    ``_CROSSING_PHOTONS`` photons, so the linear term dominates; the
    residual nonlinear offset shifts the root by well under the location
    tolerance ``_CROSSING_XTOL`` used in the acceptance checks.
    """
    scheme = model.scheme
    beam = beam or BeamGeometry(wavelength=scheme.wavelength)
    cloud = cloud or CloudGeometry()

    def rot(delta):
        pulse = PulseSpec(n_photons=_CROSSING_PHOTONS, detuning=delta)
        return detected_stokes(pulse, beam, cloud, model).rotation_per_atom

    flo, fhi = rot(lo), rot(hi)
    if flo * fhi > 0:
        raise NonConvergence("rotation does not change sign across the window")
    return float(brentq(rot, lo, hi, xtol=_CROSSING_XTOL))


def damped_rabi_reference(omega: float, gamma: float, t) -> np.ndarray:
    """Closed-form excited population of the resonant two-level atom.

    Exact solution of the optical Bloch equations at zero detuning from
    the ground state: the (population, coherence) pair decays at 3/4 of
    the linewidth while precessing at sqrt(omega^2 - gamma^2/16).
    """
    t = np.asarray(t, dtype=float)
    pinf = omega**2 / (2.0 * omega**2 + gamma**2)
    osc = omega**2 - gamma**2 / 16.0
    if osc <= 0:
        raise ValueError("reference valid for omega > gamma/4")
    od = math.sqrt(osc)
    envelope = np.exp(-0.75 * gamma * t)
    return pinf * (1.0 - envelope * (np.cos(od * t) + 0.75 * gamma / od * np.sin(od * t)))


def _two_level_generator(gamma: float) -> _Generator:
    """The resonant two-level atom (ground 0, excited 1) as a ``_Generator``."""
    return _Generator(
        g=np.array([[0.0, -0.5 * gamma], [-0.5 * gamma, -gamma]], dtype=complex),
        raising=np.array([[0.0, 0.0], [1.0, 0.0]]),
        gain=_gain_map([[np.array([[math.sqrt(gamma)]])]]),
        n_ground=1,
        detect=np.zeros((1, 1), dtype=complex),  # the oracle detects nothing
        coherent=np.arange(2),
        decay_only=np.arange(0),
        size=2,
    )


def integrate_two_level(
    omega: float,
    gamma: float,
    t_final: float,
    n_stored: int = 101,
):
    """Drive a bare two-level atom with the same batched machinery.

    Returns (times, excited populations).  Used to validate the integrator
    core against the closed-form damped Rabi solution.
    """
    gen = _two_level_generator(gamma)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    t_eval = list(np.linspace(0.0, t_final, n_stored))
    # constant unit envelope and unit mode amplitude: drive = omega exactly
    amps = np.array([1.0])
    rhs = _make_rhs(gen, amps, omega, lambda t: 1.0)
    y0 = _pack(*_to_blocks(gen, rho0), np.zeros(1, dtype=complex))
    sol = solve_ivp(
        rhs, (0.0, t_final), y0, method=_ORACLE_METHOD,
        rtol=_ORACLE_RTOL, atol=_ORACLE_ATOL, t_eval=t_eval,
    )
    if not sol.success:
        raise StepFailure(sol.message)
    pops = [_unpack(gen, np.ascontiguousarray(yk), 1)[0][0, 1, 1].real for yk in sol.y.T]
    return np.asarray(sol.t), np.asarray(pops)
