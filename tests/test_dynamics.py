"""Integrator, detection chain, and effective-coefficient checks.

The expensive far-detuned ensemble run and the located sign crossing are
session fixtures (see conftest) because the acceptance tests reuse them.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from nlfaraday import dynamics as dyn
from nlfaraday.atom import initial_state, mixed_ground_state
from nlfaraday.exceptions import (
    InvalidConfig,
    NonConvergence,
    QuadratureNotConverged,
)
from nlfaraday.geometry import CloudGeometry, PulseSpec

MHZ = 2e6 * np.pi


def test_two_level_matches_damped_rabi():
    omega = 2 * np.pi * 40e6
    gamma = 2 * np.pi * 6.065e6
    times, pops = dyn.integrate_two_level(omega, gamma, 300e-9)
    ref = dyn.damped_rabi_reference(omega, gamma, times)
    assert np.max(np.abs(pops - ref)) < 1e-6
    assert pops[0] == 0.0
    with pytest.raises(ValueError):
        dyn.damped_rabi_reference(1e6, 1e7, times)


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


def test_integrate_node_validation(scheme, ops):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e4)
    with pytest.raises(InvalidConfig):
        dyn.integrate_node(initial_state(scheme), pulse, 1.5, ops)


def test_flat_train_gap_propagation(scheme, ops):
    # two segments bridged by the exact free-evolution map
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
    from nlfaraday.atom import hamiltonian
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


def test_quadrature_verification(ops, beam, cloud):
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 450e6)
    res = dyn.detected_stokes(
        pulse, beam, cloud, ops, n_radial=5, n_long=5, verify_quadrature=True
    )
    assert np.isfinite(res.s_y)
    with pytest.raises(QuadratureNotConverged):
        dyn.detected_stokes(
            pulse, beam, cloud, ops, n_radial=1, n_long=1, verify_quadrature=True
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
    with pytest.raises(InvalidConfig):
        dyn.extract_effective_coefficients(
            ops, 2 * np.pi * 462e6, photon_ladder=(1e5, 2e5)
        )


def test_locate_crossing_requires_sign_change(ops, beam, cloud):
    with pytest.raises(NonConvergence):
        dyn.locate_crossing(
            ops, beam, cloud,
            lo=2 * np.pi * 600e6, hi=2 * np.pi * 700e6,
            n_radial=1, n_long=1,
        )


def test_crossing_sits_near_perturbative_prediction(scheme, ops, sim_crossing):
    from nlfaraday.atom import vector_crossing_detuning

    pt = vector_crossing_detuning(scheme, ops)
    # light shifts displace the dynamical zero from the bare operator sum
    # by well under a megahertz at the probing energies used here
    assert abs(sim_crossing - pt) < 2 * np.pi * 1e6
    assert 2 * np.pi * 440e6 < sim_crossing < 2 * np.pi * 500e6


def test_small_angle_warning(monkeypatch, caplog):
    fake = SimpleNamespace(s_x=1.0, s_y=0.5)
    monkeypatch.setattr(dyn, "detected_stokes", lambda *a, **k: fake)
    with caplog.at_level("WARNING", logger="nlfaraday.dynamics"):
        phi = dyn.rotation_angle_model(None, None, None, None)
    assert phi == 0.5
    assert any("small-angle" in rec.message for rec in caplog.records)


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
    rho = _bad_initial_states(scheme)[case]
    pulse = PulseSpec(fwhm=54e-9, n_photons=1e6, detuning=2 * np.pi * 462e6)
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

    Independent of the reduced model in ``dynamics``: the full Hamiltonian
    and dissipator from ``atom`` act on the full density matrix, at tight
    tolerances, through the pulse windows and (undriven) through the gaps
    of a train.  Returns (states at ``times``, detection overlap).
    """
    from nlfaraday.atom import (
        excited_projector,
        ground_projector,
        hamiltonian,
        liouvillian_dissipator,
    )
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
        h = hamiltonian(scheme, ops, pulse.detuning, (peak * tt, 0.0, 0.0))
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
    # at rtol 1e-6 the states themselves carry the solver's ~1e-6 global
    # error; with the solver tightened, what is left is the reduced model
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
