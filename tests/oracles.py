"""Test oracles: slow or independent references the package does not ship.

The package builds only the operators its solver integrates: an
x-polarized drive out of ground F=1 and emission split by destination
ground manifold.  The tests check that model against the general one
here, on the full 24x24 density matrix: a complex Cartesian drive that
may also couple ground F=2, and the Lindblad dissipator with split or
unsplit emission channels.

A drive field is a complex Cartesian 3-vector (Omega_x, Omega_y,
Omega_z) in Rabi units (rad/s, hbar = 1) multiplying the raising part of
d; the coupling is -(field . d_raising + h.c.) / 2.

The resonant two-level atom runs through the production generators and
is checked against its closed-form damped Rabi solution; the sensitivity
crossover is recomputed by root finding; and the cloud quadrature is
checked by doubling its node and level counts.
"""
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from nlfaraday import dynamics as dyn
from nlfaraday.atom import excited_projector, ground_projector, jump_operators


def cartesian_dipoles(ops):
    """(d_x, d_y, d_z), Hermitian with both blocks, from the spherical lowering parts."""
    def full(q):
        return ops.lowering[q] + (-1) ** q * ops.lowering[-q].T

    return (
        (full(-1) - full(1)) / np.sqrt(2.0),
        1j * (full(-1) + full(1)) / np.sqrt(2.0),
        full(0),
    )


def hamiltonian(scheme, ops, detuning, drive, couple_upper_ground=False):
    """Rotating-frame Hamiltonian for a classical drive.

    ``detuning`` is measured from F=1 -> F'=0.  ``couple_upper_ground``
    adds the optical coupling out of ground F=2, which the package drops:
    that manifold is detuned by the full hyperfine splitting, so its
    coupling is secular.  Raises ValueError for a drive that is not a
    finite complex 3-vector.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (3,):
        raise ValueError("drive must be a complex 3-vector")
    if not np.all(np.isfinite(drive.view(float))):
        raise ValueError("drive components must be finite")

    h = np.diag((scheme.static_offsets - detuning * scheme.excited_mask).astype(complex))
    p_e = excited_projector(scheme)
    p_g = ground_projector(scheme, f=None if couple_upper_ground else 1)
    for amp, d_i in zip(drive, cartesian_dipoles(ops)):
        raising = p_e @ d_i @ p_g
        h -= 0.5 * (amp * raising + np.conj(amp) * raising.conj().T)
    return h


def unsplit_jump_operators(ops):
    """The three spherical emission channels, each into both ground manifolds."""
    scale = np.sqrt(2.0 * ops.scheme.gamma)
    return [scale * ops.lowering[q] for q in (-1, 0, 1)]


def liouvillian_dissipator(ops, split_ground_manifolds=True):
    """The dissipator rho -> L(rho) as a callable.

    Standard Lindblad form over the package's split channels
    (``atom.jump_operators``), or over the unsplit ones; trace-free for
    any input and zero on purely ground-state matrices.
    """
    jumps = jump_operators(ops) if split_ground_manifolds else unsplit_jump_operators(ops)
    anticomm = sum(l.conj().T @ l for l in jumps)

    def dissipator(rho):
        out = -0.5 * (anticomm @ rho + rho @ anticomm)
        for l in jumps:
            out += l @ rho @ l.conj().T
        return out

    return dissipator


# the two-level oracle runs a different, tighter integrator, so it does
# not share the production settings it validates
_TWO_LEVEL_METHOD = "RK45"
_TWO_LEVEL_RTOL = 1e-10
_TWO_LEVEL_ATOL = 1e-12


def two_level_operators(gamma):
    """The resonant two-level atom (ground 0, excited 1); it detects nothing."""
    return dyn._Operators(
        h0=np.zeros(2),
        excited=np.array([False, True]),
        s=np.array([[0.0, 1.0], [1.0, 0.0]]),
        jumps=(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),),
        detect=np.zeros((2, 2)),
        manifolds=(np.arange(1),),
    )


def damped_rabi_reference(omega, gamma, t):
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


def integrate_two_level(omega, gamma, t_final, n_stored=101):
    """Drive the two-level atom through the production generator and vector field.

    Returns (times, excited populations), for comparison with
    ``damped_rabi_reference``.
    """
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    flow = dyn._real_generators(two_level_operators(gamma), rho0)
    r0, r1, d = flow.generators(0.0, omega)
    # constant unit envelope and unit mode amplitude: drive = omega exactly
    rhs = dyn._linear_rhs(r0, r1, d, np.array([1.0]), lambda t: 1.0)
    sol = solve_ivp(
        rhs, (0.0, t_final), flow.coords.initial(rho0), method=_TWO_LEVEL_METHOD,
        rtol=_TWO_LEVEL_RTOL, atol=_TWO_LEVEL_ATOL,
        t_eval=list(np.linspace(0.0, t_final, n_stored)),
    )
    assert sol.success, sol.message
    return np.asarray(sol.t), flow.coords.states(sol.y.T)[:, 1, 1].real


def crossover_numeric(model_linear, model_nonlinear, mode="time-limited"):
    """Root-finding cross-check of ``analysis.crossover``'s closed-form point."""
    a, tau_l = (float(v) for v in model_linear)
    b, tau_nl = (float(v) for v in model_nonlinear)
    wl = math.sqrt(tau_l) if mode == "time-limited" else 1.0
    wnl = math.sqrt(tau_nl) if mode == "time-limited" else 1.0

    def gap(log_n):
        n = math.exp(log_n)
        return math.log(wl / (a * math.sqrt(n))) - math.log(wnl / (b * n**1.5))

    root = brentq(gap, math.log(1e-2), math.log(1e18), xtol=1e-14, rtol=8.9e-16)
    return float(math.exp(root))


def quadrature_shift(monkeypatch, pulse, beam, cloud, ops, nodes):
    """Relative S_y change of ``detected_stokes`` on doubling its cloud measure.

    The solve on nodes x nodes cloud nodes is compared with one on twice
    as many nodes each way and twice ``_INTENSITY_LEVELS`` intensity
    levels.  The scale has an absolute floor at the integrator's
    tolerance, so a signal below it does not count as a change.
    """
    coarse = dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=nodes, n_long=nodes)
    with monkeypatch.context() as patch:
        patch.setattr(dyn, "_INTENSITY_LEVELS", 2 * dyn._INTENSITY_LEVELS)
        fine = dyn.detected_stokes(
            pulse, beam, cloud, ops, n_radial=2 * nodes, n_long=2 * nodes,
        )
    scale = max(abs(coarse.s_y), abs(fine.s_y), dyn._ATOL * max(coarse.s_x, 1.0))
    return abs(coarse.s_y - fine.s_y) / scale
