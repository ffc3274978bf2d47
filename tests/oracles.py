"""The general 24-level master equation, kept as a test oracle.

The package builds only the operators its solver integrates: an
x-polarized drive out of ground F=1 and emission split by destination
ground manifold.  The tests check that model against the general one
here, on the full 24x24 density matrix: a complex Cartesian drive that
may also couple ground F=2, and the Lindblad dissipator with split or
unsplit emission channels.

A drive field is a complex Cartesian 3-vector (Omega_x, Omega_y,
Omega_z) in Rabi units (rad/s, hbar = 1) multiplying the raising part of
d; the coupling is -(field . d_raising + h.c.) / 2.
"""
import numpy as np

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
