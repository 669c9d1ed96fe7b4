"""Complex-step reaction derivatives against sympy.

The CLI differentiates reaction expressions by complex step
(``cli._complex_step``).  Here sympy is the reference: ``sympy.diff`` of
the same expression, lambdified for mpmath and evaluated at 30 digits,
so the reference is exact to the double it rounds to and the comparison
measures the complex step alone.  sympy is a test-only dependency.
"""

import warnings

import numpy as np
import pytest

from cylreact import cli

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
# Every reaction expression in the tests, README and benchmark configs
# (-u - u**3 is README's and the benchmark's), then one call of each admitted
# function, powers and the composite cases.
F_CASES = ["-u - u**3", "1", "-u", "-1", "u^3", "-u - u**3 + sin(u)",
           "exp(u)", "log(u)", "sqrt(u)", "sin(2*u)", "cos(u)", "tan(u)",
           "sinh(u)", "cosh(u)", "tanh(u)", "atan(u)", "asin(u)", "acos(u)",
           "asinh(u)", "pi*u/3", "1/(1 + u**2)", "exp(-u**2)*cos(3*u)",
           "u**2.5", "2^u"]
G_CASES = ["y*u", "y*u**2 - exp(-y)*sin(u)", "y**u"]
# Bound on |slope - sympy's| in ulps of the derivative's term sum (0 for a
# constant, so its slope must be exactly 0).  Roundings of the stepped
# evaluation add up; on these samples: at most 2.5 ulps for single calls
# and polynomials, 4.1 for powers taken as exp(p log z) (a non-integer or
# varying exponent; 6.8 on 2000 samples of u**2.5), 5.8 for
# exp(-u**2)*cos(3*u).
ULPS = 8.0


def _oracle(expr: str, y: np.ndarray, u: np.ndarray):
    """(d/du expr, sum of its terms' magnitudes) at (y, u) from sympy; the
    derivative is NaN where it is not real or not defined."""
    U, Y = sympy.symbols("u y")
    d = sympy.diff(sympy.sympify(expr, convert_xor=True), U)
    exact = sympy.lambdify((Y, U), d, "mpmath")
    terms = sympy.lambdify((Y, U), [abs(t) for t in sympy.Add.make_args(d)],
                           "numpy")
    ref = np.empty(u.size)
    with mpmath.workdps(30):
        for i, (yi, ui) in enumerate(zip(y, u)):
            try:
                value = exact(mpmath.mpf(yi), mpmath.mpf(ui))
            except (ZeroDivisionError, ValueError):
                value = mpmath.nan
            ref[i] = float(value) if mpmath.im(value) == 0 else np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scale = sum(np.broadcast_to(t, u.shape) for t in terms(y, u))
    return ref, scale


@pytest.mark.parametrize("expr", F_CASES + G_CASES)
def test_complex_step_matches_sympy(expr):
    rng = np.random.default_rng(7)
    u = rng.uniform(-3.0, 3.0, 400)
    y = rng.uniform(0.0, 3.0, 400)
    if expr in G_CASES:
        spec = cli._reaction_spec({"f": "-u", "g": expr})
        with np.errstate(all="ignore"):
            value, slope = spec.g(y, u), spec.g_u(y, u)
    else:
        spec = cli._reaction_spec({"f": expr})
        with np.errstate(all="ignore"):
            value, slope = spec.f(u), spec.f_prime(u)
    ref, scale = _oracle(expr, y, u)
    # no slope where the reaction has no value (log(u) at u < 0, though
    # sympy's 1/u is real there), and sympy's slope where it has one
    ok = np.isfinite(value)
    assert np.array_equal(np.isnan(slope), ~ok)
    err = np.abs(slope[ok] - ref[ok])
    assert np.all(err <= ULPS * EPS * scale[ok]), \
        f"{np.max(err / (EPS * scale[ok])):.2f} ulps"


def test_slope_is_nan_where_the_reaction_is_not_finite():
    u = np.array([-2.0, -1e-300, 0.0, 0.5, 2.0])
    for expr in ("log(u)", "sqrt(u) + u", "u**0.5", "asin(u)", "1/u"):
        spec = cli._reaction_spec({"f": expr})
        with np.errstate(all="ignore"):
            value, slope = spec.f(u), spec.f_prime(u)
        assert np.array_equal(np.isnan(slope), ~np.isfinite(value)), expr
    # a varying exponent has no real derivative off a positive base, even
    # where the power itself is real (u**u at u = -2 is 1/4)
    spec = cli._reaction_spec({"f": "u**u"})
    assert spec.f(np.array(-2.0)) == 0.25
    assert np.isnan(spec.f_prime(np.array(-2.0)))
