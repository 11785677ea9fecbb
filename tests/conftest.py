import importlib.util
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def oracle_reference():
    """scripts/oracle_reference.py (40-digit mpmath overlaps), loaded as a module."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_reference.py"
    spec = importlib.util.spec_from_file_location("oracle_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def exact_theta():
    """Theta_{k,l} = (1/2) int_-1^1 (2x^2 - 1)^k P_l(x) dx as an exact Fraction, by sympy.

    The antiderivative is taken on sympy Polys: sympy.integrate on the
    expression gives the same rationals but takes ~15 s for k <= 12.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orthopolys import legendre_poly

    x = sympy.Symbol("x")

    @lru_cache(maxsize=None)
    def theta(k: int, l: int) -> Fraction:
        integrand = sympy.Poly(2 * x**2 - 1, x) ** k * legendre_poly(l, x, polys=True)
        antiderivative = integrand.integrate()
        value = (antiderivative.eval(1) - antiderivative.eval(-1)) / 2
        return Fraction(int(value.p), int(value.q))

    return theta


def _laguerre_moment(order: int, alpha: int) -> Fraction:
    """int_0^inf e^-x x^alpha [L_order^alpha(x)]^2 dx from the coefficients of L.

    L_N^a(x) = sum_m (-1)^m C(N + a, N - m) x^m / m! and int e^-x x^p dx = p!;
    the coefficients are scaled by N! to stay integers.
    """
    d = [(-1) ** m * math.comb(order + alpha, order - m) * math.prod(range(m + 1, order + 1))
         for m in range(order + 1)]
    total = sum(
        math.factorial(alpha + s)
        * sum(d[i] * d[s - i] for i in range(max(0, s - order), min(s, order) + 1))
        for s in range(2 * order + 1)
    )
    return Fraction(total, math.factorial(order) ** 2)


@pytest.fixture(scope="session")
def series_reference(exact_theta):
    """Series coefficient (n0, l) of an l0 = 0 source, at 40 digits.

    sum_k s_p^k / k! R(n0, k, l) sqrt(2l + 1) Theta_{k,l}, with the radial
    factor R = sqrt((n0-1)! (n0-l-1)! / [n0! (n0+l)!]^3) ((n0+k)!)^2 M from
    the exact Laguerre moment M, and mpmath square roots.
    """
    mpmath = pytest.importorskip("mpmath")
    mp, mpf = mpmath.mp, mpmath.mpf
    f = math.factorial

    def to_mpf(q: Fraction):
        return mpf(q.numerator) / q.denominator

    def coefficient(n0: int, l: int, s_p: float, k_max: int):
        with mp.workdps(40):
            ratio = Fraction(f(n0 - 1) * f(n0 - l - 1), (f(n0) * f(n0 + l)) ** 3)
            terms = [
                mpf(s_p) ** k / f(k) * mp.sqrt(to_mpf(ratio))
                * to_mpf(f(n0 + k) ** 2 * _laguerre_moment(n0 - l - 1, k + l + 1))
                * mp.sqrt(2 * l + 1) * to_mpf(exact_theta(k, l))
                for k in range(l // 2, k_max + 1)
            ]
            return mp.fsum(terms)

    return coefficient
