"""Level scheme, dipole algebra, and the Hamiltonian and dissipator oracle.

The line-strength fractions asserted here were recomputed by hand from
Clebsch-Gordan / 6j tables for a J=1/2 -> J'=3/2 line with nuclear spin
3/2, so they are independent of the sympy evaluation inside the package.
The general Hamiltonian and dissipator live in ``oracles``; their
structure is checked here.
"""
import numpy as np
import pytest
from scipy.optimize import brentq

from nlfaraday.atom import (
    N_STATES,
    build_dipole_operators,
    build_level_scheme,
    excited_projector,
    ground_projector,
    initial_state,
    jump_operators,
    load_line_data,
    mixed_ground_state,
    perturbative_path_weights,
    pt_rotation_weight,
    vector_crossing_detuning,
)
from nlfaraday.exceptions import DataIntegrityError, NonConvergence
from oracles import cartesian_dipoles, hamiltonian, liouvillian_dissipator, unsplit_jump_operators

MHZ = 2e6 * np.pi

# summed line strength S_{F,F'} out of any ground sublevel, in units of
# the reduced J->J' element squared
S_TABLE = {
    (1, 0): 1 / 6,
    (1, 1): 5 / 12,
    (1, 2): 5 / 12,
    (2, 1): 1 / 20,
    (2, 2): 1 / 4,
    (2, 3): 7 / 10,
}


def test_level_ordering_and_counts(scheme):
    # ground F=1, F=2, then excited F'=0..3, m_F ascending in each manifold
    manifolds = (1, 2, 0, 1, 2, 3)
    assert scheme.f_numbers.size == N_STATES == 24
    assert list(scheme.f_numbers) == [f for f in manifolds for _ in range(2 * f + 1)]
    assert list(scheme.m_numbers) == [m for f in manifolds for m in range(-f, f + 1)]
    assert list(scheme.excited_mask) == [False] * 8 + [True] * 16
    assert scheme.index_of(1, 1) == 2
    assert scheme.index_of(2, -2) == 3
    assert scheme.index_of(0, 0, excited=True) == 8
    assert scheme.index_of(3, 3, excited=True) == 23
    assert list(scheme.manifold_indices(2)) == [3, 4, 5, 6, 7]
    assert list(scheme.manifold_indices(3, excited=True)) == list(range(17, 24))
    with pytest.raises(KeyError):
        scheme.index_of(3, 0)


def test_line_constants(scheme):
    line = scheme.line
    assert line.wavelength == pytest.approx(780.241209686e-9, rel=1e-9)
    assert line.gamma == pytest.approx(6.0666 * MHZ, rel=1e-9)
    assert line.ground_splitting == pytest.approx(6834.682610904 * MHZ, rel=1e-9)
    offsets = np.asarray(line.excited_offsets) / MHZ
    assert offsets == pytest.approx([0.0, 72.218, 229.165, 495.815], abs=1e-9)
    assert line.wavenumber == pytest.approx(2 * np.pi / line.wavelength)


def test_detuning_origin_is_lowest_excited_manifold(scheme):
    # static offset of F'=0 must be zero: detunings are measured from it
    assert scheme.static_offsets[scheme.index_of(0, 0, excited=True)] == 0.0
    assert scheme.static_offsets[scheme.index_of(1, 1)] == 0.0
    assert scheme.static_offsets[scheme.index_of(2, 0)] == scheme.line.ground_splitting


def test_selection_rules(scheme, ops):
    for q in (-1, 0, 1):
        low = ops.lowering[q]
        for g in range(N_STATES):
            for e in range(N_STATES):
                if low[g, e] == 0.0:
                    continue
                assert not scheme.excited_mask[g] and scheme.excited_mask[e]
                assert scheme.m_numbers[g] - scheme.m_numbers[e] == q
                assert abs(scheme.f_numbers[g] - scheme.f_numbers[e]) <= 1
    # F=2 -> F'=0 is a double hyperfine step, must vanish identically
    e00 = scheme.index_of(0, 0, excited=True)
    for q in (-1, 0, 1):
        assert np.all(ops.lowering[q][scheme.manifold_indices(2), e00] == 0.0)
    # m=0 -> m'=0 on F -> F'=F is forbidden for pi light
    assert ops.lowering[0][scheme.index_of(1, 0), scheme.index_of(1, 0, excited=True)] == 0.0
    assert ops.lowering[0][scheme.index_of(2, 0), scheme.index_of(2, 0, excited=True)] == 0.0


def test_strength_table_and_sum_rules(scheme, ops):
    for (f, fp), expected in S_TABLE.items():
        cols = scheme.manifold_indices(fp, excited=True)
        for g in scheme.manifold_indices(f):
            total = sum(np.sum(ops.lowering[q][g, cols] ** 2) for q in (-1, 0, 1))
            assert total == pytest.approx(expected, rel=1e-12), (f, fp, g)
    # every ground sublevel couples with unit total strength,
    # every excited sublevel decays with total strength 1/2
    for g in range(8):
        tot = sum(np.sum(ops.lowering[q][g] ** 2) for q in (-1, 0, 1))
        assert tot == pytest.approx(1.0, rel=1e-12)
    for e in range(8, 24):
        tot = sum(np.sum(ops.lowering[q][:, e] ** 2) for q in (-1, 0, 1))
        assert tot == pytest.approx(0.5, rel=1e-12)


def test_stretched_state_channel_strengths(scheme, ops):
    """Explicit fractions for |1,+1>, the pumped state of the experiment."""
    g = scheme.index_of(1, 1)
    plus = ops.lowering[-1][g]   # absorbs sigma+ (m -> m+1)
    minus = ops.lowering[1][g]   # absorbs sigma- (m -> m-1)
    e22 = scheme.index_of(2, 2, excited=True)
    assert plus[e22] ** 2 == pytest.approx(1 / 4, rel=1e-12)
    assert np.sum(plus**2) == pytest.approx(1 / 4, rel=1e-12)
    by_manifold = {
        fp: float(np.sum(minus[scheme.manifold_indices(fp, excited=True)] ** 2))
        for fp in (0, 1, 2)
    }
    assert by_manifold[0] == pytest.approx(1 / 6, rel=1e-12)
    assert by_manifold[1] == pytest.approx(5 / 24, rel=1e-12)
    assert by_manifold[2] == pytest.approx(1 / 24, rel=1e-12)


def test_cartesian_dipoles_hermitian(ops):
    # d_z exists only in the oracle, which drives along any axis
    d_z = cartesian_dipoles(ops)[2]
    for d in (ops.d_x, ops.d_y, d_z):
        assert np.allclose(d, d.conj().T, atol=1e-15)
    # d_z is pure pi, d_x couples only m -> m +- 1
    sch = ops.scheme
    for a in range(N_STATES):
        for b in range(N_STATES):
            if d_z[a, b] != 0:
                assert sch.m_numbers[a] == sch.m_numbers[b]
            if ops.d_x[a, b] != 0:
                assert abs(sch.m_numbers[a] - sch.m_numbers[b]) == 1


def test_fz_is_m_on_ground_f1(ops):
    assert np.all(ops.f_z == np.diag(np.diag(ops.f_z)))
    fz_diag = np.real(np.diag(ops.f_z))
    assert list(fz_diag[:3]) == [-1.0, 0.0, 1.0]
    assert np.all(fz_diag[3:] == 0.0)


def test_hamiltonian_structure(scheme, ops):
    delta = 2 * np.pi * 100e6
    h0 = hamiltonian(scheme, ops, delta, (0, 0, 0))
    diag = np.real(np.diag(h0))
    assert diag[scheme.index_of(1, 0)] == 0.0
    assert diag[scheme.index_of(2, 0)] == scheme.line.ground_splitting
    for fp in range(4):
        e = scheme.index_of(fp, 0, excited=True)
        assert diag[e] == pytest.approx(scheme.line.excited_offsets[fp] - delta)

    h = hamiltonian(scheme, ops, delta, (1e6 + 2e6j, 0.3e6, -0.5e6j))
    assert np.allclose(h, h.conj().T, atol=1e-9)

    # ground F=2 is uncoupled unless explicitly requested
    g2 = scheme.manifold_indices(2)
    exc = np.nonzero(scheme.excited_mask)[0]
    hx = hamiltonian(scheme, ops, delta, (1e6, 0, 0))
    assert np.all(hx[np.ix_(g2, exc)] == 0.0)
    hboth = hamiltonian(scheme, ops, delta, (1e6, 0, 0), couple_upper_ground=True)
    assert np.any(hboth[np.ix_(g2, exc)] != 0.0)


def test_hamiltonian_rejects_bad_drive(scheme, ops):
    with pytest.raises(ValueError):
        hamiltonian(scheme, ops, 0.0, (1.0, 2.0))
    with pytest.raises(ValueError):
        hamiltonian(scheme, ops, 0.0, (np.nan, 0.0, 0.0))
    with pytest.raises(ValueError):
        hamiltonian(scheme, ops, 0.0, (np.inf * 1j, 0.0, 0.0))


def test_jump_operator_shapes(ops):
    split = jump_operators(ops)
    assert len(split) == 6
    unsplit = unsplit_jump_operators(ops)
    assert len(unsplit) == 3
    # channel q into F=1 plus channel q into F=2 is the unsplit channel q
    for k in range(3):
        assert np.array_equal(split[k] + split[3 + k], unsplit[k])


def test_dissipator_trace_free_and_ground_dark(scheme, ops):
    diss = liouvillian_dissipator(ops)
    rng = np.random.default_rng(0)
    gamma = scheme.gamma
    for _ in range(100):
        a = rng.standard_normal((N_STATES, N_STATES)) + 1j * rng.standard_normal(
            (N_STATES, N_STATES)
        )
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = diss(rho)
        assert abs(np.trace(out)) < 1e-12 * gamma
        assert np.allclose(out, out.conj().T, atol=1e-9 * gamma)
    # no decay out of purely ground-state matrices
    assert np.all(diss(mixed_ground_state(scheme)) == 0.0)
    assert np.all(diss(initial_state(scheme, 2, 0)) == 0.0)


def test_stretched_excited_decay_rate(scheme, ops):
    # |e3,+3> can only reach |g2,+2>; its population must leave at Gamma
    diss = liouvillian_dissipator(ops)
    e = scheme.index_of(3, 3, excited=True)
    g = scheme.index_of(2, 2)
    rho = np.zeros((N_STATES, N_STATES), dtype=complex)
    rho[e, e] = 1.0
    out = diss(rho)
    gamma = scheme.gamma
    assert out[e, e].real == pytest.approx(-gamma, rel=1e-12)
    assert out[g, g].real == pytest.approx(gamma, rel=1e-12)


def test_split_dissipator_drops_only_interground_coherence(scheme, ops):
    split = liouvillian_dissipator(ops)
    unsplit = liouvillian_dissipator(ops, split_ground_manifolds=False)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((N_STATES, N_STATES)) + 1j * rng.standard_normal(
        (N_STATES, N_STATES)
    )
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    o_s, o_u = split(rho), unsplit(rho)
    g1, g2 = scheme.manifold_indices(1), scheme.manifold_indices(2)
    assert np.all(o_s[np.ix_(g1, g2)] == 0.0)
    masked = o_u.copy()
    masked[np.ix_(g1, g2)] = 0.0
    masked[np.ix_(g2, g1)] = 0.0
    assert np.allclose(o_s, masked, atol=1e-12 * scheme.gamma)


def test_path_weights_match_fraction_sums(scheme, ops):
    delta = 2 * np.pi * 300e6
    d1, d2, _ = scheme.line.excited_offsets[1:]
    w = perturbative_path_weights(scheme, ops, delta, scheme.index_of(1, 1))
    assert w["plus"] == pytest.approx((1 / 4) / (delta - d2), rel=1e-12)
    expected_minus = (1 / 6) / delta + (5 / 24) / (delta - d1) + (1 / 24) / (delta - d2)
    assert w["minus"] == pytest.approx(expected_minus, rel=1e-12)
    damped = perturbative_path_weights(
        scheme, ops, delta, scheme.index_of(1, 1), linewidth=scheme.gamma
    )
    for key in ("plus", "pi", "minus"):
        assert damped[key].imag < 0.0


def test_rotation_weight_antisymmetric_in_m(scheme, ops):
    for mhz in (300.0, 450.0, 480.0, 1500.0):
        delta = mhz * MHZ
        w_up = pt_rotation_weight(scheme, ops, delta, scheme.index_of(1, 1))
        w_dn = pt_rotation_weight(scheme, ops, delta, scheme.index_of(1, -1))
        assert w_dn == pytest.approx(-w_up, rel=1e-12)


def test_vector_crossing_matches_closed_form(scheme, ops):
    """Root of 4/x + 5/(x-d1) - 5/(x-d2) = 0 from the explicit fractions."""
    d1, d2, _ = scheme.line.excited_offsets[1:]

    def weight(x):
        return (1 / 6) / x + (5 / 24) / (x - d1) + (1 / 24) / (x - d2) - (1 / 4) / (x - d2)

    root = brentq(weight, 440 * MHZ, 500 * MHZ, xtol=1e-6)
    found = vector_crossing_detuning(scheme, ops)
    assert found == pytest.approx(root, abs=1.0)
    assert found / MHZ == pytest.approx(461.723, abs=1e-3)

    # exactly one sign change across the scan window
    grid = np.linspace(430 * MHZ, 500 * MHZ, 200)
    signs = np.sign(
        [np.real(pt_rotation_weight(scheme, ops, d, scheme.index_of(1, 1))) for d in grid]
    )
    assert np.count_nonzero(np.diff(signs)) == 1

    flipped = vector_crossing_detuning(scheme, ops, ground_index=scheme.index_of(1, -1))
    assert flipped == pytest.approx(found, abs=1.0)


def test_vector_crossing_requires_sign_change(scheme, ops):
    with pytest.raises(NonConvergence):
        vector_crossing_detuning(scheme, ops, lo=600 * MHZ, hi=700 * MHZ)


def test_state_builders(scheme):
    rho = initial_state(scheme)
    assert np.trace(rho) == 1.0
    assert rho[scheme.index_of(1, 1), scheme.index_of(1, 1)] == 1.0
    mixed = mixed_ground_state(scheme, 2)
    assert np.trace(mixed).real == pytest.approx(1.0)
    assert np.allclose(np.diag(mixed)[scheme.manifold_indices(2)], 0.2)


def test_projectors(scheme):
    pg, pe = ground_projector(scheme), excited_projector(scheme)
    assert np.trace(pg) == 8 and np.trace(pe) == 16
    assert np.all(pg + pe == np.eye(N_STATES))
    assert np.trace(ground_projector(scheme, f=2)) == 5
    assert np.trace(excited_projector(scheme, f=3)) == 7


def test_load_line_data_error_paths(tmp_path):
    good = (
        "data_version = 1\n"
        "wavelength_nm = 780.241209686\n"
        "natural_linewidth_mhz = 6.065\n"
        "ground_hyperfine_splitting_mhz = 6834.682610904\n"
        "excited_splitting_0_1_mhz = 72.218\n"
        "excited_splitting_1_2_mhz = 156.947\n"
        "excited_splitting_2_3_mhz = 266.650\n"
    )
    p = tmp_path / "line.dat"
    p.write_text(good)
    line = load_line_data(p)
    assert line.excited_offsets[3] == pytest.approx(495.815 * MHZ)

    p.write_text(good + "not a key value pair\n")
    with pytest.raises(DataIntegrityError, match="expected"):
        load_line_data(p)

    p.write_text(good.replace("6.065", "six-ish"))
    with pytest.raises(DataIntegrityError, match="bad number"):
        load_line_data(p)

    p.write_text("data_version = 1\n")
    with pytest.raises(DataIntegrityError, match="missing"):
        load_line_data(p)

    # every constant but the version must be positive and finite, and the
    # error names its key
    for key, bad in [
        ("excited_splitting_1_2_mhz", "-156.947"),
        ("wavelength_nm", "-780"),
        ("wavelength_nm", "0"),
        ("natural_linewidth_mhz", "0"),
        ("natural_linewidth_mhz", "nan"),
        ("ground_hyperfine_splitting_mhz", "-6834.682610904"),
        ("ground_hyperfine_splitting_mhz", "inf"),
    ]:
        lines = [f"{key} = {bad}" if ln.startswith(key) else ln for ln in good.splitlines()]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataIntegrityError, match=f"{key} = .* must be positive"):
            load_line_data(p)


def test_build_scheme_matches_bundled_data(scheme):
    rebuilt = build_level_scheme()
    for name in ("f_numbers", "m_numbers", "excited_mask", "static_offsets"):
        assert np.array_equal(getattr(rebuilt, name), getattr(scheme, name))
    ops = build_dipole_operators(rebuilt)
    assert ops.scheme is rebuilt
