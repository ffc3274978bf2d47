"""Effective rotation coefficients versus probe detuning.

The detected rotation angle per atom decomposes, order by order in the
probe intensity, into a linear coefficient alpha1 (classical Faraday
response) and a photon-number slope beta1 (the nonlinearity that powers
the N^(-3/2) sensitivity scaling).  alpha1 changes sign between the
F=1 -> F'=1 and F=1 -> F'=2 lines; parking the probe on that zero makes
the nonlinear term the leading signal.

This sweep takes about 15 s on one core: each detuning runs a ladder of
pulse energies through the full master-equation solver.

Run:  python demos/coefficient_spectra.py
"""
import numpy as np

from nlfaraday import (
    BeamGeometry,
    CloudGeometry,
    build_dipole_operators,
    build_level_scheme,
    extract_effective_coefficients,
    locate_crossing,
    vector_crossing_detuning,
)

TWO_PI = 2 * np.pi


def main():
    scheme = build_level_scheme()
    ops = build_dipole_operators(scheme)
    beam = BeamGeometry(waist=20e-6, wavelength=scheme.wavelength)
    cloud = CloudGeometry()

    print(f"{'detuning (MHz)':>15} {'alpha1':>13} {'beta1':>13}")
    for mhz in (430.0, 445.0, 460.0, 462.0, 465.0, 476.0):
        coeff = extract_effective_coefficients(ops, TWO_PI * mhz * 1e6, beam=beam, cloud=cloud)
        print(f"{mhz:15.1f} {coeff.alpha1:+13.3e} {coeff.beta1:+13.3e}")

    crossing = locate_crossing(ops, beam, cloud)
    analytic = vector_crossing_detuning(scheme, ops)
    print(f"\nsimulated alpha1 zero crossing: {crossing / TWO_PI / 1e6:.2f} MHz")
    print(f"perturbation-theory crossing:   {analytic / TWO_PI / 1e6:.2f} MHz")

    at_zero = extract_effective_coefficients(ops, crossing, beam=beam, cloud=cloud)
    print(f"residual alpha1 there: {at_zero.alpha1:+.2e}")
    print(f"beta1 there:           {at_zero.beta1:+.2e}  (rad per atom per photon)")


if __name__ == "__main__":
    main()
