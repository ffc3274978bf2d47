"""Integrator, detection chain, and effective-coefficient checks.

The expensive far-detuned ensemble run and the located sign crossing are
session fixtures (see conftest) because the acceptance tests reuse them.
"""

import dataclasses
import gc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlfaraday import dynamics as dyn
from nlfaraday.atom import initial_state, mixed_ground_state
from nlfaraday.exceptions import InvalidConfig, NonConvergence, StepFailure
from nlfaraday.geometry import CloudGeometry, PulseSpec, cloud_quadrature
from oracles import (
    damped_rabi_reference,
    hamiltonian,
    integrate_two_level,
    liouvillian_dissipator,
    quadrature_shift,
    two_level_operators,
)

MHZ = 2e6 * np.pi


def test_two_level_matches_damped_rabi():
    omega = 2 * np.pi * 40e6
    gamma = 2 * np.pi * 6.065e6
    times, pops = integrate_two_level(omega, gamma, 300e-9)
    ref = damped_rabi_reference(omega, gamma, times)
    assert np.max(np.abs(pops - ref)) < 1e-6
    assert pops[0] == 0.0
    with pytest.raises(ValueError):
        damped_rabi_reference(1e6, 1e7, times)


def test_exact_propagator_matches_damped_rabi():
    # the flat-segment exponential on the two-level generator: a single
    # segment of height 1/sqrt(T) at unit amplitude drives at omega0/sqrt(T)
    omega = 2 * np.pi * 40e6
    gamma = 2 * np.pi * 6.065e6
    t_final = 300e-9
    pulse = PulseSpec(shape="flat-train", fwhm=t_final, n_photons=1.0, detuning=0.0)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    times, states, _ = dyn._solve_batch(
        two_level_operators(gamma), rho0, np.array([1.0]),
        omega * np.sqrt(t_final), pulse, list(np.linspace(0.0, t_final, 101)),
    )
    ref = damped_rabi_reference(omega, gamma, times)
    assert times.size == 101
    assert np.max(np.abs(states[:, 0, 1, 1].real - ref)) < 1e-6
    assert states[0, 0, 1, 1] == 0.0


def test_zero_drive_node_is_static(scheme, ops):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 462e6)
    traj = dyn.integrate_node(mixed_ground_state(scheme), pulse, 0.0, ops)
    assert np.all(traj.states == traj.states[0])
    assert traj.overlap == 0.0
    assert np.all(traj.field == 0.0)


def test_node_trajectory_bookkeeping(scheme, ops):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 470e6)
    traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops)
    total = (
        traj.manifold_population(1)
        + traj.manifold_population(2)
        + traj.excited_population()
    )
    assert np.max(np.abs(total - 1.0)) < 1e-9
    assert traj.max_trace_deviation < 1e-9
    assert traj.min_eigenvalue > -1e-9
    # stretched-state prep: f_z starts at +1 and can only decrease
    fz = traj.fz_ground_expectation(ops)
    assert fz[0] == pytest.approx(1.0, abs=1e-12)
    assert fz[-1] < fz[0]
    assert traj.sublevel_population(1, 1)[0] == pytest.approx(1.0, abs=1e-12)


def test_uncoupled_coherence_blocks_stay_exactly_zero(scheme, ops):
    # without upper-ground coupling, nothing can build coherence between
    # ground F=2 and the rest; those blocks must be exact zeros, not small
    pulse = PulseSpec(fwhm=54e-9, n_photons=4e6, detuning=2 * np.pi * 470e6)
    traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops)
    g1 = scheme.manifold_indices(1)
    g2 = scheme.manifold_indices(2)
    exc = np.nonzero(scheme.excited_mask)[0]
    assert np.all(traj.states[:, np.ix_(g1, g2)[0], np.ix_(g1, g2)[1]] == 0.0)
    assert np.all(traj.states[:, np.ix_(exc, g2)[0], np.ix_(exc, g2)[1]] == 0.0)
    # but decay does populate F=2
    assert traj.manifold_population(2)[-1] > 1e-4


def _no_work(*args, **kwargs):
    raise AssertionError("work started on an invalid argument")


def test_integrate_node_validation(monkeypatch, scheme, ops):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e4)
    monkeypatch.setattr(dyn, "_solve_batch", _no_work)
    for scale, n_stored in [(1.5, 200), (1.0, 0), (1.0, -1), (1.0, 2.5)]:
        with pytest.raises(InvalidConfig):
            dyn.integrate_node(initial_state(scheme), pulse, scale, ops, n_stored=n_stored)


@pytest.mark.parametrize("detuning", [np.nan, np.inf, -np.inf])
def test_pt_linear_coefficient_rejects_non_finite_detuning(monkeypatch, ops, beam, cloud, detuning):
    monkeypatch.setattr(dyn, "pt_rotation_weight", _no_work)
    with pytest.raises(InvalidConfig, match="detuning"):
        dyn.pt_linear_coefficient(ops, detuning, beam, cloud)


def test_flat_train_gap_propagation(scheme, ops):
    # two segments bridged by the exact gap propagator
    train = PulseSpec(
        shape="flat-train",
        fwhm=0.5e-6,
        n_photons=2e4,
        detuning=2 * np.pi * 1.5e9,
        train_count=2,
        train_period=2e-6,
    )
    traj = dyn.integrate_node(initial_state(scheme), train, 1.0, ops)
    assert traj.max_trace_deviation < 1e-9
    assert traj.min_eigenvalue > -1e-9


def test_drive_scale_value(scheme):
    w0 = dyn.drive_scale(1e7, scheme.gamma, scheme.line.wavenumber)
    assert w0 == pytest.approx(14.885972, rel=1e-5)


def test_peak_rabi_consistent_with_saturation_intensity(scheme, ops, beam):
    """Cycling-transition Rabi frequency against the textbook intensity form.

    An x-polarized beam splits evenly into two circular components, so the
    stretched |2,2> -> |3,3> pair sees I/2 and its Rabi frequency must be
    Gamma * sqrt(I / (4 I_sat)) with the tabulated saturation intensity of
    this line.  This ties the photon-flux drive normalization to an
    independently published quantity with no shared bookkeeping.
    """
    from nlfaraday.geometry import peak_intensity

    pulse = PulseSpec(fwhm=54e-9, n_photons=1e7)
    i_pk = peak_intensity(pulse, beam)
    omega_x = (
        dyn.drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
        * pulse.envelope(0.0)
        * np.sqrt(2 / np.pi)
        / beam.waist
    )
    h = hamiltonian(scheme, ops, 2 * np.pi * 462e6, (omega_x, 0, 0), couple_upper_ground=True)
    rabi = 2 * abs(h[scheme.index_of(3, 3, excited=True), scheme.index_of(2, 2)])
    i_sat_cycling = 16.6933  # W/m^2
    assert rabi == pytest.approx(scheme.gamma * np.sqrt(i_pk / (4 * i_sat_cycling)), rel=5e-3)


def test_far_detuned_run_matches_perturbative_coefficient(ops, beam, cloud, far_run):
    # full integration against the independent operator-sum prediction
    pt = dyn.pt_linear_coefficient(ops, 2 * np.pi * 1.5e9, beam, cloud)
    assert far_run.rotation_per_atom == pytest.approx(np.real(pt), rel=0.01)
    assert far_run.rotation_per_atom == pytest.approx(2.1634e-8, rel=1e-3)
    # far from every line the absorptive quadrature is tiny
    assert abs(far_run.ellipticity_per_atom) < 0.02 * abs(far_run.rotation_per_atom)
    assert far_run.s_y == pytest.approx(
        far_run.rotation_per_atom * far_run.n_atoms * far_run.s_x, rel=1e-12
    )


def test_linear_coefficient_scale_matches_published_calibration(ops, beam, cloud):
    # the published linear calibration slope of this experiment is
    # phi = 3.3e-8 * f_z / 2; the model should land within a factor of 2
    pt = dyn.pt_linear_coefficient(ops, 2 * np.pi * 1.5e9, beam, cloud)
    ratio = 2 * abs(np.real(pt)) / 3.3e-8
    assert 0.5 < ratio < 2.0


def test_stokes_linear_in_atom_number(ops, beam):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 470e6)
    runs = {
        n: dyn.detected_stokes(
            pulse, beam, CloudGeometry(n_atoms=n), ops, n_radial=3, n_long=3
        )
        for n in (0.0, 1e5, 7e5)
    }
    assert runs[0.0].s_y == 0.0 and runs[0.0].rotation == 0.0
    assert runs[1e5].rotation_per_atom == runs[7e5].rotation_per_atom
    assert runs[7e5].rotation == pytest.approx(7 * runs[1e5].rotation, rel=1e-12)


def test_rotation_flips_with_spin_orientation(scheme, ops, beam):
    pulse = PulseSpec(fwhm=54e-9, n_photons=2e5, detuning=2 * np.pi * 470e6)
    cloud = CloudGeometry(n_atoms=1e5)
    up = dyn.detected_stokes(
        pulse, beam, cloud, ops, n_radial=1, n_long=1
    )
    down = dyn.detected_stokes(
        pulse, beam, cloud, ops,
        initial=initial_state(scheme, 1, -1), n_radial=1, n_long=1,
    )
    assert down.rotation_per_atom == pytest.approx(-up.rotation_per_atom, rel=1e-4)


def test_unpolarized_sample_rotates_nothing(scheme, ops, beam, cloud):
    pulse = PulseSpec(fwhm=54e-9, n_photons=2e5, detuning=2 * np.pi * 1.5e9)
    mixed = dyn.detected_stokes(
        pulse, beam, cloud, ops,
        initial=mixed_ground_state(scheme), n_radial=3, n_long=3,
    )
    stretched = dyn.detected_stokes(
        pulse, beam, cloud, ops, n_radial=3, n_long=3
    )
    assert abs(mixed.rotation_per_atom) < 1e-4 * abs(stretched.rotation_per_atom)


def test_quadrature_verification(monkeypatch, ops, beam, cloud):
    # doubling the nodes and the levels moves S_y by under 5e-3 at 5x5
    # nodes, and by more at a single node
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 450e6)
    assert quadrature_shift(monkeypatch, pulse, beam, cloud, ops, 5) < 5e-3
    assert quadrature_shift(monkeypatch, pulse, beam, cloud, ops, 1) > 5e-3


@pytest.mark.parametrize("nodes", [5, 9, 18])
def test_intensity_rule_is_gauss_rule_of_cloud_measure(beam, cloud, nodes):
    grid = cloud_quadrature(cloud, n_radial=nodes, n_long=nodes)
    s = beam.local_intensity_scale(grid.r, grid.z)
    levels, weights = dyn._intensity_rule(s, grid.weight, 12)
    assert levels.size == 12
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # a k-point Gauss rule integrates every polynomial of degree < 2k exactly
    for j in range(24):
        exact = np.sum(grid.weight * s**j)
        assert np.sum(weights * levels**j) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("nodes", [5, 9, 18])
def test_intensity_rule_matches_tridiagonal_eigensolver(beam, cloud, nodes, monkeypatch):
    # the rule's eigh of the dense Jacobi matrix against SciPy's
    # tridiagonal eigensolver on the same Jacobi matrix, caught on its way in
    from scipy.linalg import eigh_tridiagonal

    jacobi = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: jacobi.append(a) or eigh(a))
    grid = cloud_quadrature(cloud, n_radial=nodes, n_long=nodes)
    s = beam.local_intensity_scale(grid.r, grid.z)
    levels, weights = dyn._intensity_rule(s, grid.weight, 12)
    [a] = jacobi
    alpha, beta = np.diag(a), np.diag(a, 1)
    assert np.array_equal(a, np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    expected, vectors = eigh_tridiagonal(alpha, beta)
    assert levels == pytest.approx(np.maximum(expected, 0.0), rel=1e-14, abs=0.0)
    assert weights == pytest.approx(grid.weight.sum() * vectors[0] ** 2, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("nodes, distinct", [(1, 1), (3, 6)])
def test_intensity_rule_keeps_a_small_measure_exactly(beam, cloud, nodes, distinct):
    grid = cloud_quadrature(cloud, n_radial=nodes, n_long=nodes)
    s = beam.local_intensity_scale(grid.r, grid.z)
    merged = {}
    for value, w in zip(s, grid.weight):
        merged[value] = merged.get(value, 0.0) + w
    levels, weights = dyn._intensity_rule(s, grid.weight, 12)
    assert levels.size == distinct
    assert list(levels) == sorted(merged)
    assert list(weights) == [merged[v] for v in sorted(merged)]


def test_levels_match_per_node_sum(scheme, ops, beam, cloud):
    # 5x5 nodes hold 15 distinct intensities, more than the 12 levels, so
    # the Gauss reduction is in play; the oracle integrates every node
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e8, detuning=2 * np.pi * 462e6)
    res = dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=5, n_long=5)
    assert res.levels == 12 and res.grid.r.size == 25

    grid = cloud_quadrature(cloud, n_radial=5, n_long=5)
    s = beam.local_intensity_scale(grid.r, grid.z)
    overlap = 0.0
    loss_sum = 0.0
    for w, r, z, si in zip(grid.weight, grid.r, grid.z, s):
        traj = dyn.integrate_node(
            initial_state(scheme), pulse, float(si), ops, beam=beam, n_stored=2,
        )
        overlap += w * beam.mode_amplitude(r, z) * traj.overlap
        fz = traj.fz_ground_expectation(ops)
        loss_sum += w * si * (1.0 - fz[-1] / fz[0])
    k = scheme.line.wavenumber
    omega0 = dyn.drive_scale(pulse.n_photons, scheme.gamma, k)
    response = -1j * (6.0 * np.pi * scheme.gamma / (k * k * omega0)) * overlap
    # abs=0: approx's default absolute floor of 1e-12 would let the
    # ellipticity (~1e-11) through at several percent
    assert res.rotation_per_atom == pytest.approx(response.real, rel=1e-6, abs=0.0)
    assert res.ellipticity_per_atom == pytest.approx(response.imag, rel=1e-6, abs=0.0)
    assert res.damage_detected == pytest.approx(
        loss_sum / np.sum(grid.weight * s), rel=1e-6, abs=0.0
    )


def test_single_node_overlap_pin(scheme, ops):
    # regression pin for the raw detection accumulator
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 1.5e9)
    traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops)
    assert traj.overlap.imag == pytest.approx(6.948503e-07, rel=2e-3)
    assert abs(traj.overlap.real) < 0.01 * abs(traj.overlap.imag)


def test_extract_coefficients_validation(ops):
    with pytest.raises(InvalidConfig):
        dyn.extract_effective_coefficients(ops, 2 * np.pi * 80e6)


def test_locate_crossing_requires_sign_change(ops, beam, cloud):
    with pytest.raises(NonConvergence):
        dyn.locate_crossing(ops, beam, cloud, lo=2 * np.pi * 600e6, hi=2 * np.pi * 700e6)


def test_crossing_sits_near_perturbative_prediction(scheme, ops, sim_crossing):
    from nlfaraday.atom import vector_crossing_detuning

    pt = vector_crossing_detuning(scheme, ops)
    # light shifts displace the dynamical zero from the bare operator sum
    # by well under a megahertz at the probing energies used here
    assert abs(sim_crossing - pt) < 2 * np.pi * 1e6
    assert 2 * np.pi * 440e6 < sim_crossing < 2 * np.pi * 500e6


def _bad_initial_states(scheme):
    n = scheme.m_numbers.size
    g1 = scheme.manifold_indices(1)
    g2 = scheme.manifold_indices(2)
    e1 = scheme.manifold_indices(1, excited=True)
    e3 = scheme.manifold_indices(3, excited=True)
    good = initial_state(scheme)

    def two_level_mix(i, j):
        rho = np.zeros((n, n), dtype=complex)
        rho[i, i] = rho[j, j] = 0.5
        rho[i, j] = rho[j, i] = 0.25
        return rho

    nan = good.copy()
    nan[g1[0], g1[0]] = np.nan
    skew = good.copy()
    skew[g1[0], g1[1]] = 0.1
    negative = np.zeros((n, n), dtype=complex)
    negative[g1[0], g1[0]], negative[g1[1], g1[1]] = 1.5, -0.5
    upper_excited = np.zeros((n, n), dtype=complex)
    upper_excited[e3[0], e3[0]] = 1.0
    return {
        "shape": np.eye(3) / 3.0,
        "nonfinite": nan,
        "non_hermitian": skew,
        "trace": 2.0 * good,
        "negative": negative,
        "f3_element": upper_excited,
        "f1_f2_coherence": two_level_mix(g1[0], g2[0]),
        "excited_f2_coherence": two_level_mix(e1[0], g2[0]),
    }


@pytest.mark.parametrize("case", [
    "shape", "nonfinite", "non_hermitian", "trace", "negative",
    "f3_element", "f1_f2_coherence", "excited_f2_coherence",
])
def test_invalid_initial_state_rejected_before_solving(monkeypatch, scheme, ops, beam, case):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called for an invalid initial state")

    monkeypatch.setattr(dyn, "solve_ivp", no_solve)
    monkeypatch.setattr(dyn, "expm", no_solve)
    rho = _bad_initial_states(scheme)[case]
    for pulse in (
        PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 462e6),
        PulseSpec(
            shape="flat-train", fwhm=37.5e-9, n_photons=2e6, detuning=2 * np.pi * 1.5e9,
            train_count=2, train_period=137.5e-9,
        ),
    ):
        with pytest.raises(InvalidConfig):
            dyn.detected_stokes(
                pulse, beam, CloudGeometry(), ops, initial=rho, n_radial=1, n_long=1
            )
        with pytest.raises(InvalidConfig):
            dyn.integrate_node(rho, pulse, 1.0, ops)


def test_ground_f2_sample_is_dark(scheme, ops):
    # the undriven F=2 block carries its initial content through unchanged
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e7, detuning=2 * np.pi * 462e6)
    rho0 = mixed_ground_state(scheme, f=2)
    traj = dyn.integrate_node(rho0, pulse, 1.0, ops, n_stored=5)
    assert np.all(traj.states == rho0)
    assert traj.overlap == 0.0


def _lindblad_reference(scheme, ops, pulse, local_intensity_scale, times):
    """Brute-force 24-level Lindblad integration of one node.

    Independent of the reduced model in ``dynamics``: the Hamiltonian and
    dissipator of ``oracles`` act on the full density matrix, at tight
    tolerances, through the pulse windows and (undriven) through the gaps
    of a train.  The drive enters H linearly, H = H0 + Omega(t) H1, so both
    are built once.  Returns (states at ``times``, detection overlap).
    """
    from nlfaraday.atom import excited_projector, ground_projector
    from nlfaraday.geometry import BeamGeometry
    from scipy.integrate import solve_ivp

    n = scheme.m_numbers.size
    beam = BeamGeometry(wavelength=scheme.wavelength)
    peak = (
        dyn.drive_scale(pulse.n_photons, scheme.gamma, scheme.line.wavenumber)
        * np.sqrt(2.0 / np.pi) / beam.waist * np.sqrt(local_intensity_scale)
    )
    dissipator = liouvillian_dissipator(ops)
    detect = ground_projector(scheme) @ ops.d_y @ excited_projector(scheme)
    h0 = hamiltonian(scheme, ops, pulse.detuning, (0.0, 0.0, 0.0))
    h1 = hamiltonian(scheme, ops, pulse.detuning, (peak, 0.0, 0.0)) - h0

    if pulse.shape == "gaussian":
        pieces = [(*pulse.window(), lambda t: float(pulse.envelope(t)))]
    else:
        height = 1.0 / np.sqrt(pulse.train_count * pulse.fwhm)
        segs = pulse.segment_windows()
        pieces = []
        for k, (t0, t1) in enumerate(segs):
            pieces.append((t0, t1, lambda t: height))
            if k + 1 < len(segs):
                pieces.append((t1, segs[k + 1][0], lambda t: 0.0))

    def rhs(t, y, envelope):
        rho = y[:-2].view(complex).reshape(n, n)
        tt = envelope(t)
        h = h0 + tt * h1
        drho = -1j * (h @ rho - rho @ h) + dissipator(rho)
        dacc = tt * np.trace(rho @ detect)
        return np.concatenate([drho.ravel(), [dacc]]).view(float)

    y = np.concatenate([initial_state(scheme).ravel(), [0.0]]).view(float)
    found = {}
    for t0, t1, envelope in pieces:
        inside = [t for t in times if t0 <= t <= t1]
        sol = solve_ivp(
            rhs, (t0, t1), y, method="DOP853", rtol=1e-10, atol=1e-13,
            t_eval=sorted(set(inside) | {t1}), args=(envelope,),
        )
        assert sol.success
        for k, tk in enumerate(sol.t):
            found[tk] = np.ascontiguousarray(sol.y[:-2, k]).view(complex).reshape(n, n)
        y = np.ascontiguousarray(sol.y[:, -1])
    return np.stack([found[t] for t in times]), complex(y[-2:].view(complex)[0])


@pytest.mark.parametrize("pulse", [
    PulseSpec(fwhm=54e-9, n_photons=1e8, detuning=2 * np.pi * 462e6),
    PulseSpec(
        shape="flat-train", fwhm=37.5e-9, n_photons=2e6, detuning=2 * np.pi * 1.5e9,
        train_count=2, train_period=87.5e-9,
    ),
], ids=["gaussian-462MHz", "flat-train-1.5GHz"])
def test_node_matches_full_lindblad_reference(monkeypatch, scheme, ops, pulse):
    traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops, n_stored=7)
    ref_states, ref_overlap = _lindblad_reference(scheme, ops, pulse, 1.0, traj.times)
    assert traj.overlap == pytest.approx(ref_overlap, rel=1e-5)
    if pulse.shape == "gaussian":
        # at rtol 1e-6 the DOP853 states carry the solver's ~1e-6 global
        # error; with the solver tightened, what is left is the reduced
        # model (a flat train's exponentials need no tightening)
        monkeypatch.setattr(dyn, "_RTOL", 1e-9)
        monkeypatch.setattr(dyn, "_ATOL", 1e-12)
        traj = dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops, n_stored=7)
    assert np.max(np.abs(traj.states - ref_states)) < 1e-7
    assert traj.overlap == pytest.approx(ref_overlap, rel=1e-5)
    # the blocks the reduced model drops are exact zeros (the reference
    # holds them at rounding level: its dissipator's anticommutator is
    # gamma * P_e only to ~1e-16 relative)
    kept = np.zeros(traj.states.shape[1:], dtype=bool)
    for block in (
        np.concatenate([scheme.manifold_indices(1)]
                       + [scheme.manifold_indices(f, excited=True) for f in (0, 1, 2)]),
        scheme.manifold_indices(2),
    ):
        kept[np.ix_(block, block)] = True
    assert np.all(traj.states[:, ~kept] == 0.0)
    assert traj.manifold_population(2)[-1] > 1e-6


def _train(segments, n_photons=2e6, ghz=1.5):
    """The 75 ns of light of the linear probe, in 1 or 2 segments 100 ns apart."""
    width = 75e-9 / segments
    return PulseSpec(
        shape="flat-train", fwhm=width, n_photons=n_photons, detuning=2 * np.pi * ghz * 1e9,
        train_count=segments, train_period=width + 100e-9,
    )


@pytest.mark.parametrize("ghz", [1.0, 1.5, 2.5, 4.0])
@pytest.mark.parametrize("segments", [1, 2])
def test_flat_train_matches_perturbative_coefficient(ops, beam, cloud, ghz, segments):
    pulse = _train(segments, n_photons=1e6, ghz=ghz)
    res = dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=3, n_long=3)
    pt = dyn.pt_linear_coefficient(ops, pulse.detuning, beam, cloud)
    assert res.rotation_per_atom == pytest.approx(np.real(pt), rel=0.01)
    assert abs(res.ellipticity_per_atom) < 0.02 * abs(res.rotation_per_atom)


_Blocks = namedtuple("_Blocks", "g raising gain n_ground detect coherent decay_only")


def _gain_map(channels):
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
    return np.concatenate(cols)


def _blocks(ops, detuning):
    """The 24-level model on two hand-picked blocks: the oracle's generator.

    The coherent block lists ground F=1, then the excited levels the
    x-polarized drive reaches from it (F'=0, 1, 2); the drive, the level
    energies, the decay, the recycling into F=1 and the detection act on
    it.  The 5x5 ground F=2 block (``decay_only``) only collects decay.
    """
    from nlfaraday.atom import excited_projector, ground_projector, jump_operators

    scheme = ops.scheme
    gamma = scheme.gamma
    diag = scheme.static_offsets - detuning * scheme.excited_mask
    pe = scheme.excited_mask.astype(float)
    # the anticommutator of the dissipator is gamma * P_excited for this
    # line; it folds into the elementwise term g
    jumps = jump_operators(ops)
    anti = sum(l.conj().T @ l for l in jumps)
    assert np.allclose(anti, np.diag(gamma * pe), atol=1e-10 * gamma)

    raising = (excited_projector(scheme) @ ops.d_x @ ground_projector(scheme, f=1)).real
    ground = scheme.manifold_indices(1)
    excited = np.flatnonzero(np.any(raising != 0.0, axis=1))
    coherent = np.concatenate([ground, excited])
    decay_only = scheme.manifold_indices(2)
    g = -1j * (diag[:, None] - diag[None, :]) - 0.5 * gamma * (pe[:, None] + pe[None, :])
    detect = ground_projector(scheme) @ ops.d_y @ excited_projector(scheme)
    return _Blocks(
        g=g[np.ix_(coherent, coherent)],
        raising=raising[np.ix_(coherent, coherent)],
        gain=_gain_map([[l[np.ix_(dest, excited)] for l in jumps] for dest in (ground, decay_only)]),
        n_ground=ground.size,
        detect=np.ascontiguousarray(detect.T[np.ix_(excited, ground)]),
        coherent=coherent,
        decay_only=decay_only,
    )


def _two_level_blocks(gamma):
    """The resonant two-level atom (ground 0, excited 1) as ``_Blocks``; it detects nothing."""
    return _Blocks(
        g=np.array([[0.0, -0.5 * gamma], [-0.5 * gamma, -gamma]], dtype=complex),
        raising=np.array([[0.0, 0.0], [1.0, 0.0]]),
        gain=_gain_map([[np.array([[np.sqrt(gamma)]])]]),
        n_ground=1,
        detect=np.zeros((1, 1), dtype=complex),
        coherent=np.arange(2),
        decay_only=np.arange(0),
    )


def _pack(coh, dec, acc):
    """Oracle state: [coherent blocks, decay-only blocks, accumulators] as floats."""
    return np.concatenate([coh.ravel(), dec.ravel(), acc]).view(float)


def _unpack(gen, y, n_levels):
    """Views (coherent (n, nc, nc), decay-only (n, nd, nd), accumulators (n,)) of ``y``."""
    z = y.view(np.complex128)
    nc, nd = gen.coherent.size, gen.decay_only.size
    a = n_levels * nc * nc
    b = a + n_levels * nd * nd
    return z[:a].reshape(n_levels, nc, nc), z[a:b].reshape(n_levels, nd, nd), z[b:]


def _make_rhs(gen, amplitudes, omega0, envelope):
    """Block right-hand side of the reduced model: the oracle of the real flow.

    Acts on the complex coherent and decay-only blocks (``_blocks``) of
    every level, structural zeros included, with the accumulator
    integrating T(t) * Tr[rho d_detect]; an independent transcription of
    the generator that ``dyn._real_generators`` assembles.
    """
    n = amplitudes.shape[0]
    ng = gen.n_ground
    nc = gen.coherent.size
    ne = nc - ng
    # H_drive = -(Omega/2) S with S = R + R^T, so -i[H, rho] = (i Omega/2)[S, rho]
    # and [S, rho] = (rho S)^H - rho S for Hermitian rho
    s = (gen.raising + gen.raising.T).astype(complex)
    drive = 0.5j * omega0 * amplitudes[:, None, None]
    gain_t = gen.gain.T.astype(complex)  # for the row-vector product

    def rhs(t, y):
        rho, _, _ = _unpack(gen, y, n)
        tt = envelope(t)
        out = np.empty_like(y)
        drho, ddec, dacc = _unpack(gen, out, n)
        np.multiply(gen.g, rho, out=drho)
        c = (rho.reshape(-1, nc) @ s).reshape(n, nc, nc)
        drho += (c.conj().transpose(0, 2, 1) - c) * (tt * drive)
        gain = rho[:, ng:, ng:].reshape(n, ne * ne) @ gain_t
        drho[:, :ng, :ng] += gain[:, : ng * ng].reshape(n, ng, ng)
        ddec[:] = gain[:, ng * ng :].reshape(ddec.shape)
        np.einsum("nij,ij->n", rho[:, ng:, :ng], gen.detect, out=dacc)
        dacc *= tt
        return out

    return rhs


def _tight_dop853_response(scheme, ops, beam, cloud, pulse):
    """Per-atom rotation, ellipticity and damage_detected on the 3x3 cloud by DOP853.

    The block right-hand side ``_make_rhs``, stepped at rtol 1e-10 /
    atol 1e-13 through a Gaussian window, or through every segment of a
    flat train and, undriven, through every gap: an oracle for both of
    ``detected_stokes``'s solvers.
    """
    from scipy.integrate import solve_ivp

    grid = cloud_quadrature(cloud, n_radial=3, n_long=3)
    level, weight = dyn._intensity_rule(
        beam.local_intensity_scale(grid.r, grid.z), grid.weight, dyn._INTENSITY_LEVELS,
    )
    amps = np.sqrt(level / beam.effective_area)
    gen = _blocks(ops, pulse.detuning)
    k = scheme.line.wavenumber
    omega0 = dyn.drive_scale(pulse.n_photons, scheme.gamma, k)
    rho0 = initial_state(scheme)
    n = amps.size
    coh = rho0[np.ix_(gen.coherent, gen.coherent)]
    dec = rho0[np.ix_(gen.decay_only, gen.decay_only)]
    y = _pack(
        np.broadcast_to(coh, (n,) + coh.shape), np.broadcast_to(dec, (n,) + dec.shape),
        np.zeros(n, dtype=complex),
    )
    if pulse.shape == "gaussian":
        pieces = [(_make_rhs(gen, amps, omega0, lambda t: float(pulse.envelope(t))),
                   pulse.window())]
    else:
        height = 1.0 / np.sqrt(pulse.train_count * pulse.fwhm)
        lit = _make_rhs(gen, amps, omega0, lambda t: height)
        dark = _make_rhs(gen, amps, omega0, lambda t: 0.0)
        segments = pulse.segment_windows()
        pieces = [(lit, segments[0])]
        for (_, end), (start, stop) in zip(segments, segments[1:]):
            pieces += [(dark, (end, start)), (lit, (start, stop))]
    for rhs, span in pieces:
        sol = solve_ivp(rhs, span, y, method="DOP853", rtol=1e-10, atol=1e-13)
        assert sol.success
        y = np.ascontiguousarray(sol.y[:, -1])
    coh_end, _, acc = _unpack(gen, y, n)
    overlap = np.sum(weight * amps * acc)
    response = -1j * (6.0 * np.pi * scheme.gamma / (k * k * omega0)) * overlap
    fz = ops.f_z[np.ix_(gen.coherent, gen.coherent)]
    fz0 = np.einsum("ij,ji->", coh, fz).real
    loss = 1.0 - np.einsum("nij,ji->n", coh_end, fz).real / fz0
    w_mode = weight * level
    return response.real, response.imag, np.sum(w_mode * loss) / np.sum(w_mode)


@pytest.mark.parametrize("segments", [1, 2])
def test_flat_train_matches_tight_dop853(scheme, ops, beam, cloud, segments):
    pulse = _train(segments)
    res = dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=3, n_long=3)
    rotation, ellipticity, _ = _tight_dop853_response(scheme, ops, beam, cloud, pulse)
    # abs=0: the per-atom values (~2e-8 and ~1e-10) sit near approx's
    # default absolute floor of 1e-12
    assert res.rotation_per_atom == pytest.approx(rotation, rel=1e-8, abs=0.0)
    assert res.ellipticity_per_atom == pytest.approx(ellipticity, rel=1e-7, abs=0.0)


def test_gaussian_matches_tight_block_dop853(monkeypatch, scheme, ops, beam, cloud):
    # the real flow against the block oracle, both stepped tightly, so
    # what is compared is the generator and not the solver error
    monkeypatch.setattr(dyn, "_RTOL", 1e-10)
    monkeypatch.setattr(dyn, "_ATOL", 1e-13)
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e8, detuning=2 * np.pi * 462e6)
    res = dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=3, n_long=3)
    rotation, ellipticity, damage = _tight_dop853_response(scheme, ops, beam, cloud, pulse)
    assert res.rotation_per_atom == pytest.approx(rotation, rel=1e-8, abs=0.0)
    assert res.ellipticity_per_atom == pytest.approx(ellipticity, rel=1e-8, abs=0.0)
    assert res.damage_detected == pytest.approx(damage, rel=1e-8, abs=0.0)


def _recorded_solves(monkeypatch, run):
    """(fun, t_span, y0, options, solution) of each ``dyn.solve_ivp`` call ``run`` makes."""
    calls = []
    own = dyn.solve_ivp

    def recording(fun, t_span, y0, **options):
        sol = own(fun, t_span, y0, **options)
        calls.append((fun, t_span, y0, options, sol))
        return sol

    monkeypatch.setattr(dyn, "solve_ivp", recording)
    run()
    monkeypatch.setattr(dyn, "solve_ivp", own)
    return calls


def test_production_pulses_need_no_more_rhs_calls(monkeypatch, ops, beam, cloud):
    # the work of the four production pulses on the default 9x9 cloud: a
    # change that costs more right-hand-side calls fails here, free of
    # timing noise; a change that saves some lowers these bounds
    bounds = {(462, 5.7e6): 3605, (462, 1e8): 4457, (1500, 1e6): 8225, (430, 2.5e5): 3125}
    for (mhz, n_photons), bound in bounds.items():
        pulse = PulseSpec(n_photons=n_photons, detuning=2 * np.pi * mhz * 1e6)
        [call] = _recorded_solves(monkeypatch, lambda: dyn.detected_stokes(pulse, beam, cloud, ops))
        assert call[2].size == 12 * 89
        assert call[4].nfev <= bound, (mhz, n_photons)


def test_step_budget_ends_a_solve_as_a_step_failure(monkeypatch, ops, beam, cloud):
    # a real pulse needs more than 5 steps; the work bound ends the solve
    from nlfaraday import _dop853

    monkeypatch.setattr(_dop853, "MAX_STEPS", 5)
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e4, detuning=2 * np.pi * 462e6)
    with pytest.raises(StepFailure, match="Step budget of 5 steps exhausted"):
        dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=1, n_long=1)


def test_own_dop853_matches_scipy(monkeypatch, scheme, ops, beam, cloud):
    from scipy.integrate import solve_ivp
    from scipy.integrate._ivp import dop853_coefficients as ref

    from nlfaraday import _dop853

    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(_dop853, name), getattr(ref, name)), name

    pulse = PulseSpec(fwhm=54e-9, n_photons=1e8, detuning=2 * np.pi * 462e6)
    calls = _recorded_solves(monkeypatch, lambda: (
        dyn.detected_stokes(pulse, beam, cloud, ops),
        dyn.integrate_node(initial_state(scheme), pulse, 1.0, ops, n_stored=200),
    ))
    assert [c[2].size for c in calls] == [12 * 89, 89]  # 12 levels of the 9x9 rule, one node
    for fun, t_span, y0, options, own in calls:
        sol = solve_ivp(fun, t_span, y0, method="DOP853", **options)
        assert own.success and sol.success
        assert own.nfev == sol.nfev
        assert np.array_equal(own.t, sol.t)
        assert np.array_equal(own.y, sol.y)
    assert calls[1][4].t.size == 200
    fun, t_span, y0, options, _ = calls[0]
    with pytest.raises(ValueError):
        dyn.solve_ivp(fun, t_span, y0, **{**options, "t_eval": options["t_eval"][::-1]})

    # a right-hand side that turns NaN mid-pulse shrinks the step below
    # ten ulps on both, and the pulse solve reports it as a StepFailure
    def poisoned(t, y):
        return fun(t, y) if t < 0.0 else np.full_like(y, np.nan)

    own = dyn.solve_ivp(poisoned, t_span, y0, **options)
    sol = solve_ivp(poisoned, t_span, y0, method="DOP853", **options)
    assert not own.success and not sol.success
    assert own.message == sol.message and own.nfev == sol.nfev
    # NaN from the first evaluation gives a NaN step: a failure, not a loop
    nan = dyn.solve_ivp(lambda t, y: y * np.nan, t_span, y0, **options)
    assert not nan.success and nan.nfev == 2

    envelope = dyn._gaussian_envelope
    monkeypatch.setattr(
        dyn, "_gaussian_envelope",
        lambda p: (lambda t, e=envelope(p): e(t) if t < 0.0 else np.nan),
    )
    with pytest.raises(StepFailure, match="integrator failed"):
        dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=1, n_long=1)


def test_gaussian_solve_leaves_no_cyclic_garbage(ops, beam, cloud):
    # what a solve allocates is freed by reference counting as soon as it
    # returns, so peak memory does not wait on the cyclic collector
    pulse = PulseSpec(fwhm=54e-9, n_photons=5.7e6, detuning=2 * np.pi * 462e6)
    gc.collect()
    gc.disable()
    try:
        dyn.detected_stokes(pulse, beam, cloud, ops, n_radial=1, n_long=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_initial_state_support_is_the_driven_block_and_f2(scheme, ops):
    # the entries reachable from the ground-manifold blocks, computed by
    # the flow's own rule: the 12x12 block of F=1 and F'=0, 1, 2, and the
    # 5x5 block of F=2; F'=3 and every coherence between the two blocks
    # stay out
    driven = np.concatenate(
        [scheme.manifold_indices(1)] + [scheme.manifold_indices(f, excited=True) for f in (0, 1, 2)]
    )
    expected = np.zeros((24, 24), dtype=bool)
    for block in (driven, scheme.manifold_indices(2)):
        expected[np.ix_(block, block)] = True
    model = dyn._Operators.production(ops)
    assert np.array_equal(model.admissible, expected)
    assert expected.sum() == 169


_DETUNING = 2 * np.pi * 462e6
_FAR_DETUNING = 2 * np.pi * 1.5e9
_GAMMA = 2 * np.pi * 6.065e6


def _coordinate_cases(scheme, ops):
    """(model, its blocks, initial state, detuning) the properties cover."""
    model = dyn._Operators.production(ops)
    blocks = _blocks(ops, _DETUNING)
    two_level = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return [
        (model, blocks, initial_state(scheme), _DETUNING),
        (model, blocks, initial_state(scheme, 1, -1), _DETUNING),
        (model, blocks, mixed_ground_state(scheme), _DETUNING),
        (model, blocks, mixed_ground_state(scheme, f=2), _DETUNING),
        (two_level_operators(_GAMMA), _two_level_blocks(_GAMMA), two_level, 0.0),
    ]


def _generators(model, rho0, detuning, omega0):
    """(coordinates, R0, R1, D): a fresh build of the flow of ``rho0``'s support."""
    flow = dyn._real_generators(model, rho0)
    return (flow.coords, *flow.generators(detuning, omega0))


def _kept(coords):
    """Masks of the kept density-matrix entries and of a kept accumulator."""
    kept = np.zeros((coords.n_states, coords.n_states), dtype=bool)
    kept[coords.rows, coords.cols] = True
    return kept, coords.rows.size in coords.imag


def test_ground_f1_sample_has_89_coordinates(scheme, ops):
    model, _, rho0, detuning = _coordinate_cases(scheme, ops)[0]
    coords, r0, r1, d = _generators(model, rho0, detuning, 1.0)
    assert r0.shape == r1.shape == d.shape == (89, 89)
    # 87 of the 576 density-matrix entries, and the accumulator
    kept, detected = _kept(coords)
    assert kept.size == 576 and kept.sum() == 87 and detected
    assert coords.real.size + coords.lower.size == 88


def test_rhs_kernel_equals_the_public_sparse_product(scheme, ops):
    # _linear_rhs calls SciPy's private CSR kernel directly, on block CSR
    # arrays it builds itself; it must give the bits of the public
    # csr_matrix @ y of the dense block diagonals, B_j = a_j R1 + D as the
    # flat-train propagator forms them.  The kernel adds its product into
    # its output, so the second product, blockdiag(R0) y added to
    # T(t) blockdiag(B) y, is the public product of [I | blockdiag(R0)]
    # with [T(t) blockdiag(B) y; y].  If this fails on a SciPy release,
    # _linear_rhs goes back to the public product: one path, not two
    from scipy.linalg import block_diag
    from scipy.sparse import csr_matrix

    rng = np.random.default_rng(29)
    model = dyn._Operators.production(ops)
    omega0 = dyn.drive_scale(5.7e6, scheme.gamma, scheme.line.wavenumber)
    cases = [(model, initial_state(scheme), 2 * np.pi * mhz * 1e6, omega0, 12)
             for mhz in (430, 462, 1500)]
    cases.append((two_level_operators(_GAMMA), np.diag([1.0, 0.0]), 0.0, 2 * np.pi * 40e6, 1))
    for model, rho0, detuning, scale, levels in cases:
        _, r0, r1, d = _generators(model, rho0, detuning, scale)
        amplitudes = rng.uniform(0.0, 1.0, levels)
        size = levels * r0.shape[0]
        y = rng.standard_normal(size)
        expected = csr_matrix(block_diag(*(a * r1 + d for a in amplitudes))) @ y
        expected *= 0.7
        free = np.hstack([np.eye(size), block_diag(*[r0] * levels)])
        expected = csr_matrix(free) @ np.concatenate([expected, y])
        rhs = dyn._linear_rhs(r0, r1, d, amplitudes, lambda t: 0.7)
        first, second = rhs(0.0, y), rhs(0.0, y)
        assert np.array_equal(first, expected)
        assert np.array_equal(second, first) and not np.shares_memory(first, second)
        with pytest.raises(ValueError):
            rhs(0.0, y[:-1])


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 4), data=st.data())
def test_coordinate_map_is_exact(scheme, ops, case, data):
    model, blocks, rho0, detuning = _coordinate_cases(scheme, ops)[case]
    coords, r0, r1, d = _generators(model, rho0, detuning, 1.0)
    n = r0.shape[0]
    kept, detected = _kept(coords)

    # a Hermitian matrix on the kept entries, with an accumulator if one
    # is kept, survives rho -> x -> rho bit for bit
    parts = data.draw(hnp.arrays(np.float64, (2,) + kept.shape, elements=_finite))
    full = np.triu(np.where(kept, parts[0] + 1j * parts[1], 0.0), 1)
    full = full + full.conj().T + np.diag(np.where(kept.diagonal(), parts[0].diagonal(), 0.0))
    acc = complex(*data.draw(hnp.arrays(np.float64, 2, elements=_finite))) if detected else 0.0
    x = coords.encode(np.append(full[coords.rows, coords.cols], acc))
    assert np.array_equal(coords.states(x), full)
    assert coords.decode(x)[-1] == acc

    # every real x is an exactly Hermitian state, zero off the kept entries
    x = data.draw(hnp.arrays(np.float64, n, elements=_finite))
    z = coords.decode(x)
    assert np.array_equal(coords.encode(z), x)
    full = coords.states(x)
    assert np.array_equal(full, full.conj().T)
    assert np.all(full[~kept] == 0.0)
    assert detected or z[-1] == 0.0

    # the real flow is the block right-hand side on those states
    a, tt = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.0, 2.0))
    real = dyn._linear_rhs(r0, r1, d, np.array([a]), lambda t: tt)(0.0, x)
    coh, dec = np.ix_(blocks.coherent, blocks.coherent), np.ix_(blocks.decay_only, blocks.decay_only)
    y = _pack(full[coh], full[dec], z[-1:])
    dcoh, ddec, dacc = _unpack(blocks, _make_rhs(blocks, np.array([a]), 1.0, lambda t: tt)(0.0, y), 1)
    expected = np.zeros_like(full)
    expected[coh], expected[dec] = dcoh[0], ddec[0]
    bound = sum(np.abs(r).sum(axis=1).max() for r in (r0, a * tt * r1, tt * d))
    error = max(
        np.max(np.abs(coords.states(real) - expected)), abs(coords.decode(real)[-1] - dacc[0]),
    )
    assert error <= 1e-13 * bound * np.max(np.abs(x))


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(0, 3), rabi=st.floats(0.0, 5e8),
    values=hnp.arrays(np.float64, 89, elements=_finite),
)
# every entry subnormal: the relative bound alone underflows to 0 here
@example(case=0, rabi=0.0, values=np.full(89, 5e-324))
def test_kept_entries_are_closed_under_full_lindblad(scheme, ops, case, rabi, values):
    # the full 24-level right-hand side from the oracle's hamiltonian and
    # liouvillian_dissipator, on a random Hermitian state on the kept
    # entries: at rounding level off them (its anticommutator is diagonal
    # only to ~1e-16 relative), and the real flow on them
    from nlfaraday.atom import excited_projector, ground_projector

    model, _, rho0, detuning = _coordinate_cases(scheme, ops)[case]
    coords, r0, r1, d = _generators(model, rho0, detuning, rabi)
    kept, _ = _kept(coords)
    x = values[: r0.shape[0]]  # 89 coordinates at most
    real = dyn._linear_rhs(r0, r1, d, np.array([1.0]), lambda t: 1.0)(0.0, x)

    rho = coords.states(x)
    h = hamiltonian(scheme, ops, _DETUNING, (rabi, 0.0, 0.0))
    drho = -1j * (h @ rho - rho @ h) + liouvillian_dissipator(ops)(rho)
    dacc = np.trace(rho @ ground_projector(scheme) @ ops.d_y @ excited_projector(scheme))

    norms = sum(np.abs(r).sum(axis=1).max() for r in (r0, r1, d))
    # plus an absolute floor: the oracle's products of subnormal entries
    # round on the grid of the smallest subnormal, scaled by its operators
    scale = 1e-13 * norms * np.max(np.abs(x)) + 4 * np.finfo(float).smallest_subnormal * norms
    assert np.max(np.abs(drho[~kept])) <= scale
    assert np.max(np.abs(coords.states(real)[kept] - drho[kept])) <= scale
    assert abs(coords.decode(real)[-1] - dacc) <= scale


def _fresh_build(model, rho0, detuning, omega0):
    """(coordinates, R0, R1, D) assembled with the detuning in h0 and omega0 in s."""
    fixed = dataclasses.replace(
        model, h0=model.h0 - detuning * model.excited, excited=np.zeros_like(model.excited),
        s=omega0 * model.s,
    )
    flow = dyn._real_generators(fixed, rho0)
    assert not np.any(flow.k)
    return (flow.coords, *flow.generators(0.0, 1.0))


def test_cached_flow_matches_a_fresh_build(scheme, ops):
    model = dyn._Operators.production(ops)
    rho0 = initial_state(scheme)
    flow = model.flow(rho0)
    assert set(np.unique(flow.k)) == {-1.0, 0.0, 1.0}
    for detuning in (2 * np.pi * 462e6, _FAR_DETUNING):
        for n_photons in (1e6, 1e8):
            omega0 = dyn.drive_scale(n_photons, scheme.gamma, scheme.line.wavenumber)
            coords, *fresh = _fresh_build(model, rho0, detuning, omega0)
            assert np.array_equal(coords.rows, flow.coords.rows)
            assert np.array_equal(coords.imag, flow.coords.imag)
            for cached, built in zip(flow.generators(detuning, omega0), fresh):
                assert np.max(np.abs(cached - built)) <= 1e-12 * np.max(np.abs(built))


def test_flows_are_kept_per_support(scheme, ops):
    model = dataclasses.replace(dyn._Operators.production(ops))  # an empty cache
    f1 = model.flow(initial_state(scheme))
    assert model.flow(initial_state(scheme)) is f1
    f2 = model.flow(mixed_ground_state(scheme, f=2))
    assert f1.coords.rows.size == 87 and f2.coords.rows.size == 5
    # a new support replaces the flow of the last one
    assert list(model._flows.values()) == [f2]
    assert model.flow(mixed_ground_state(scheme, f=2)) is f2
    assert model.flow(initial_state(scheme)) is not f1


def test_a_second_operator_set_gets_its_own_flow(scheme, ops):
    # twice the x dipole: twice the drive, the same decay and detection
    doubled = dataclasses.replace(ops, d_x=2.0 * ops.d_x)
    rho0 = initial_state(scheme)
    first = dyn._Operators.production(ops).flow(rho0)
    second = dyn._Operators.production(doubled).flow(rho0)
    assert dyn._Operators.production(doubled) is not dyn._Operators.production(ops)
    assert np.array_equal(second.r1, 2.0 * first.r1)
    assert np.array_equal(second.r0, first.r0) and np.array_equal(second.d, first.d)
    # the cache keeps an operator set's model only while the set lives
    kept = len(dyn._PRODUCTION)
    del doubled, second
    gc.collect()
    assert len(dyn._PRODUCTION) == kept - 1


def test_one_flow_serves_every_pulse(monkeypatch, scheme, ops, beam, cloud):
    built = []
    real_generators = dyn._real_generators
    monkeypatch.setattr(dyn, "_real_generators", lambda *a: built.append(a) or real_generators(*a))
    fresh = dataclasses.replace(ops)  # an operator set no earlier solve has used
    for detuning, n_photons in [(_FAR_DETUNING, 1e6), (2 * np.pi * 2e9, 4e6)]:
        pulse = PulseSpec(shape="flat-train", fwhm=75e-9, n_photons=n_photons, detuning=detuning)
        dyn.detected_stokes(pulse, beam, cloud, fresh, n_radial=1, n_long=1)
    assert len(built) == 1


def test_cloud_the_beam_never_reaches_is_rejected(monkeypatch, ops, beam):
    monkeypatch.setattr(dyn, "_solve_batch", _no_work)
    with pytest.raises(InvalidConfig, match="the beam reaches no atom"):
        dyn.detected_stokes(PulseSpec(), beam, CloudGeometry(sigma_trans=0.5), ops)
