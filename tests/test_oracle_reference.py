"""scripts/oracle_reference.py against routes that share none of its shortcuts.

The reference integrates the radial overlap exactly from integer moments and
the x integral by Gauss-Legendre on [0, 1].  Here the radial integral is done
numerically from pointwise radial functions, and the x rule is swapped for
tanh-sinh.
"""

import pytest


def _radial(mp, n, l, r):
    """R_{n,l}(r) from the three-term Laguerre recurrence, at mpmath precision."""
    y = 2 * r / n
    alpha = 2 * l + 1
    prev, cur = mp.mpf(1), 1 + alpha - y
    if n - l - 1 == 0:
        cur = prev
    for k in range(1, n - l - 1):
        prev, cur = cur, ((2 * k + 1 + alpha - y) * cur - (k + alpha) * prev) / (k + 1)
    norm = mp.sqrt((mp.mpf(2) / n) ** 3 * mp.factorial(n - l - 1) / (2 * n * mp.factorial(n + l)))
    return norm * mp.exp(-y / 2) * y**l * cur


def _overlap_2d(mp, target, source, sp):
    """2 pi int_-1^1 Y_t Y_s int_0^inf R_t(r) R_s(r A) r^2 dr dx, both integrals numeric."""
    (nt, lt), (ns, ls) = target, source
    s = mp.mpf(sp)
    ratio = (1 - s) / (1 + s)

    def integrand(x):
        a = (1 - s) / mp.sqrt(x**2 + ratio**2 * (1 - x**2))
        radial = mp.quad(lambda r: _radial(mp, nt, lt, r) * _radial(mp, ns, ls, r * a) * r**2,
                         [0, mp.inf])
        return mp.legendre(lt, x) * mp.legendre(ls, x) * radial

    # the integrand is even in x for even l_t + l_s, and analytic on [0, 1]
    return mp.sqrt((2 * lt + 1) * (2 * ls + 1)) * mp.quad(
        integrand, [0, 1], method="gauss-legendre")


class TestReferenceIndependence:
    # |s_p| = 0.1 keeps |C| >= 5e-3, so 18 digits leave at least 15 after the
    # x integral's cancellation
    @pytest.mark.parametrize(
        "target,source,sp",
        [((4, 2), (3, 0), 0.1), ((3, 2), (3, 0), -0.1), ((2, 1), (3, 1), 0.1)],
        ids=["4d<-3s", "3d<-3s", "2p<-3p"],
    )
    def test_matches_numeric_radial_quadrature(self, oracle_reference, target, source, sp):
        mp = oracle_reference.mp
        expected = oracle_reference.reference_overlap(target, source, sp)
        with mp.workdps(18):
            value = _overlap_2d(mp, target, source, sp)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_odd_parity_is_exactly_zero(self, oracle_reference):
        assert oracle_reference.reference_overlap((4, 1), (3, 0), 0.1) == 0

    def test_x_rule_matches_tanh_sinh(self, oracle_reference, monkeypatch):
        # the golden (3, 1e-5) case, whose x integral cancels 10 digits
        mp = oracle_reference.mp
        value = oracle_reference.reference_overlap((3, 2), (3, 0), 1e-5)
        quad = mp.quad

        def tanh_sinh(f, *intervals, method):
            assert method == "gauss-legendre"
            return quad(f, *intervals, method="tanh-sinh")

        monkeypatch.setattr(mp, "quad", tanh_sinh)
        expected = oracle_reference.reference_overlap((3, 2), (3, 0), 1e-5)
        # both round to DIGITS digits; allow one unit in the last of them
        with mp.workdps(oracle_reference.DIGITS):
            tolerance = mp.mpf(10) ** (1 - oracle_reference.DIGITS) * abs(expected)
            assert abs(value - expected) <= tolerance
