"""Brent's bracketing root finder, for the package's few scalar roots.

Brent, *Algorithms for Minimization without Derivatives* (Prentice-Hall
1973), ch. 4: inverse quadratic extrapolation or secant interpolation
while they shrink the bracket fast enough, bisection otherwise.  This is
SciPy's ``scipy.optimize.brentq`` in the form of its C source
``scipy/optimize/Zeros/brentq.c`` (BSD-3-Clause, Copyright (c) 2001-2002
Enthought, Inc. and 2003 SciPy Developers; written by Charles Harris),
ported operation for operation, so the iterates and the root are the
same bits.  The defaults are SciPy's: ``rtol`` = 4 eps and at most
``MAXITER`` = 100 iterations; ``xtol`` has no default, every caller
states its own.

Importing ``scipy.optimize`` for one scalar root would load
``scipy.linalg``, ``special``, ``spatial`` and ``fft`` with it.  Unlike
SciPy's, a bracket whose ends share a sign, a NaN value and an exhausted
iteration budget all raise ``NonConvergence``.
"""
from __future__ import annotations

import math

from .exceptions import NonConvergence

RTOL = 4 * 2.220446049250313e-16
MAXITER = 100


def _negative(x: float) -> bool:
    """C's ``signbit``, as brentq.c tests signs.

    Signs are compared, not multiplied: the product of two tiny values of
    one sign underflows to 0 and would pass for a sign change.
    """
    return math.copysign(1.0, x) < 0


def brentq(f, a: float, b: float, *, xtol: float, rtol: float = RTOL) -> float:
    """A root of ``f`` in [a, b], to within ``xtol + rtol * |root|``.

    ``f(a)`` and ``f(b)`` must differ in sign; a zero at either end is
    returned as the root.  Each end is evaluated once.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NonConvergence(f"root search: the function is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise NonConvergence(
            f"root search: no sign change between f({xpre:.6g}) = {fpre:.3g} "
            f"and f({xcur:.6g}) = {fcur:.3g}"
        )
    # xcur is the estimate, xblk the other end of the bracket, xpre the
    # previous estimate; spre and scur are the previous two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonConvergence(f"root search: no convergence in {MAXITER} iterations (last x = {xcur!r})")
