"""The package's Brent root finder against SciPy's ``brentq``, its oracle.

``nlfaraday._brent.brentq`` is a port of SciPy's C routine, so the
oracle is exact: the same evaluation points, in the same order, and the
same root, bit for bit.  Where SciPy raises ``ValueError`` (no sign
change) or ``RuntimeError`` (iterations exhausted), the port raises
``NonConvergence``.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from nlfaraday import _brent
from nlfaraday import analysis as ana
from nlfaraday import atom
from nlfaraday import dynamics as dyn
from nlfaraday._brent import brentq
from nlfaraday.exceptions import NonConvergence

# smooth increasing functions with their root at c
FAMILIES = {
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
    "cubic": lambda c, s: lambda x: s * (x - c) ** 3 + 1e-3 * (x - c),
    "exp": lambda c, s: lambda x: math.exp(s * x) - math.exp(s * c),
    "sine": lambda c, s: lambda x: math.sin(x - c) + s * (x - c),
    "atan": lambda c, s: lambda x: math.atan(s * (x - c)),
}


def _recorded(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _both(f, a, b, **tols):
    """(port's root or exception type, its points) and the same for SciPy."""
    out = []
    for solver, failures in ((brentq, NonConvergence), (scipy_brentq, (ValueError, RuntimeError))):
        g, calls = _recorded(f)
        try:
            out.append((solver(g, a, b, **tols), calls))
        except failures as exc:
            out.append((type(exc), calls))
    return out


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    c=st.floats(-3.0, 3.0),
    s=st.floats(0.05, 5.0),
    left=st.floats(0.0, 4.0),
    right=st.floats(0.0, 4.0),
    swap=st.booleans(),
    xtol=st.floats(1e-15, 1.0),
    rtol=st.floats(_brent.RTOL, 1e-3),
)
@example(family="tanh", c=0.5, s=1.0, left=0.0, right=1.0, swap=False, xtol=1e-12, rtol=_brent.RTOL)
@example(family="cubic", c=-1.0, s=2.0, left=2.0, right=0.0, swap=True, xtol=1e-14, rtol=_brent.RTOL)
@example(family="exp", c=1.0, s=5.0, left=4.0, right=0.5, swap=False, xtol=1e-15, rtol=_brent.RTOL)
# a step between 3|sbis| - delta and 3|sbis|: the step bound's "- delta" decides
@example(family="sine", c=0.23915598118792047, s=0.3, left=2.7313395176984834, right=2.10052585632034,
         swap=False, xtol=0.042899270974879306, rtol=0.0009840818684528243)
def test_port_iterates_as_scipy(family, c, s, left, right, swap, xtol, rtol):
    """Same points and root as SciPy, an end at the exact root included."""
    f = FAMILIES[family](c, s)
    a, b = c - left, c + right
    if swap:
        a, b = b, a
    (root, calls), (ref_root, ref_calls) = _both(f, a, b, xtol=xtol, rtol=rtol)
    assert calls == ref_calls
    if isinstance(ref_root, float):
        assert math.copysign(1.0, root) == math.copysign(1.0, ref_root)
        assert root == ref_root
    else:
        assert root is NonConvergence


def test_no_sign_change_raises():
    with pytest.raises(NonConvergence, match="no sign change"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    # the product of the end values underflows to 0, their signs still agree
    with pytest.raises(NonConvergence, match="no sign change"):
        brentq(lambda x: 1e-200, 0.0, 1.0, xtol=1e-12)
    # -0.0 at an end is a root, as in SciPy
    assert brentq(lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


def test_exhausted_iterations_raise(monkeypatch):
    f = lambda x: math.atan(x - 0.3)
    assert brentq(f, -50.0, 100.0, xtol=1e-12) == scipy_brentq(f, -50.0, 100.0, xtol=1e-12)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -50.0, 100.0, xtol=1e-12, maxiter=3)
    monkeypatch.setattr(_brent, "MAXITER", 3)
    with pytest.raises(NonConvergence, match="3 iterations"):
        brentq(f, -50.0, 100.0, xtol=1e-12)


def test_nan_raises():
    with pytest.raises(NonConvergence, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, xtol=1e-12)


@pytest.fixture
def against_scipy(monkeypatch):
    """Run each module's ``brentq`` as the port and as SciPy on one memo of f.

    The port evaluates f at every point; SciPy then reads the memo, so a
    point the port never evaluated fails the comparison instead of
    costing a solve.  Returns the roots checked.
    """
    roots = []

    def both(f, a, b, **tols):
        memo, order = {}, []

        def g(x):
            order.append(x)
            if x not in memo:
                memo[x] = f(x)
            return memo[x]

        root = brentq(g, a, b, **tols)
        ours, order[:] = list(order), []
        assert scipy_brentq(g, a, b, **tols) == root
        assert order == ours
        roots.append(root)
        return root

    for module in (ana, atom, dyn):
        monkeypatch.setattr(module, "brentq", both)
    return roots


def test_call_sites_iterate_as_scipy(against_scipy, scheme, ops, beam, cloud):
    n = np.logspace(5.0, 9.0, 9)
    truth = ana.ResponseModel()
    ana.fit_saturation(np.column_stack([n, truth.calibration_slope(n)]), truth.linear_coefficient)
    atom.vector_crossing_detuning(scheme, ops)
    dyn.locate_crossing(ops, beam, cloud, lo=2 * np.pi * 455e6, hi=2 * np.pi * 470e6)
    assert len(against_scipy) == 3
