#!/usr/bin/env python3
"""40-digit reference values for the numeric oracle's golden overlaps.

The overlap of a strain-distorted m = 0 state with an unperturbed one is

    C = 2 pi int_{-1}^{1} Y_t(x) Y_s(x) I(A(x)) dx,
    I(A) = int_0^inf R_t(r) R_s(r A) r^2 dr,

with x = cos(theta) and A(x) the strain map.  Each hydrogenic radial function
is a polynomial in r times e^{-r/n}, so I(A) is a finite sum of the exact
moments int_0^inf r^k e^{-c r} dr = k! / c^{k+1}, here grouped by total
power with integer coefficients (radial_moments) and summed by Horner's rule
on integers scaled by a power of two.  Only the x integral is
numeric.  Its integrand is even in x (C is exactly 0 for odd l_t + l_s) and
analytic on [0, 1], so it is done on [0, 1] by mpmath's Gauss-Legendre rule,
with guard digits so the result has 40 significant digits even where C is
~1e-11.  The tests pin this rule to tanh-sinh quadrature, and the moments to
a numeric r integral.

The script does not import gravatom: it is an independent check of the
oracle, not a replay of it.  Run it to print the GOLDEN_ORACLE_OVERLAPS
table of tests/test_acceptance.py:

    python scripts/oracle_reference.py
"""

import math
import sys

from mpmath import mp, mpf

#: Significant digits of the reference values.
DIGITS = 40
#: Extra working digits absorbing the cancellation in the x integral.
GUARD_DIGITS = 20
#: (n0, s_p) cases of the same-n Delta-l = 2 overlap (n0, 2) <- (n0, 0), and
#: one at a Rydberg n0 that the detuning claims name.
GOLDEN_CASES = tuple((n0, sp) for n0 in (3, 5, 8) for sp in (1e-3, 1e-4, 1e-5)) + ((50, 1e-8),)


def radial_norm(n: int, l: int) -> mpf:
    """N_{n,l} with R_{n,l}(r) = N_{n,l} e^{-r/n} (2r/n)^l L_{n-l-1}^{2l+1}(2r/n)."""
    return mp.sqrt((mpf(2) / n) ** 3 * mp.factorial(n - l - 1) / (2 * n * mp.factorial(n + l)))


def radial_moments(target: tuple[int, int], source: tuple[int, int]) -> dict[int, list[int]]:
    """Integers Q[p][ks] with I(A) = N_t N_s sum_p sum_ks Q[p][ks] A^ks / (n_s + n_t A)^(p+3).

    R_{n,l}(r) = N_{n,l} e^{-r/n} sum_m (-1)^m C(n + l, n - l - 1 - m) (2r/n)^(l+m) / m!
    (DLMF 18.5.12), so R_t(r) R_s(r A) r^2 has powers r^(p+2), p = k_t + k_s,
    k = l + m, and decays as e^{-c r} with c = 1/n_t + A/n_s = (n_s + n_t A) /
    (n_t n_s).  Each power integrates to (p + 2)! / c^(p+3), and
    (p + 2)! / (m_t! m_s!) is an integer, so every coefficient is one.
    """
    (nt, lt), (ns, ls) = target, source
    moments: dict[int, list[int]] = {}
    for mt in range(nt - lt):
        kt = lt + mt
        for ms in range(ns - ls):
            ks = ls + ms
            p = kt + ks
            sign = (-1) ** (mt + ms)
            binomials = math.comb(nt + lt, nt - lt - 1 - mt) * math.comb(ns + ls, ns - ls - 1 - ms)
            ratio = math.factorial(p + 2) // (math.factorial(mt) * math.factorial(ms))
            row = moments.setdefault(p, [0] * ns)
            row[ks] += sign * binomials * ratio * 2**p * nt ** (ks + 3) * ns ** (kt + 3)
    return moments


def fixed_legendre(l: int, x: int, bits: int) -> int:
    """P_l(x) by Bonnet's recurrence, on integers scaled by 2^bits."""
    prev, cur = 1 << bits, x
    if l == 0:
        return prev
    for k in range(1, l):
        prev, cur = cur, ((2 * k + 1) * (x * cur >> bits) - k * prev) // (k + 1)
    return cur


def strain_factor(x: mpf, sp: mpf) -> mpf:
    """A(x) = (1 - s_p) / sqrt(x^2 + ((1 - s_p)/(1 + s_p))^2 (1 - x^2))."""
    ratio = (1 - sp) / (1 + sp)
    return (1 - sp) / mp.sqrt(x**2 + ratio**2 * (1 - x**2))


def reference_overlap(target: tuple[int, int], source: tuple[int, int], sp: float) -> mpf:
    """C_{target <- source} at strain sp; states are (n, l) pairs with m = 0.

    sp is taken at its exact binary value, the same number the oracle sees.
    """
    (nt, lt), (ns, ls) = target, source
    if (lt + ls) % 2:
        return mpf(0)  # Y_t Y_s is odd in x and I(A(x)) even
    moments = radial_moments(target, source)
    p_min, p_max = min(moments), max(moments)
    with mp.workdps(DIGITS + GUARD_DIGITS):
        s = mpf(sp)
        # 2 pi int_-1^1 Y_t Y_s dx = sqrt((2 l_t + 1)(2 l_s + 1)) int_0^1 P_lt P_ls dx.
        # The factor stays inside the integrand: mp.quad's convergence test
        # is absolute, and the unscaled moments are large.
        scale = mp.sqrt((2 * lt + 1) * (2 * ls + 1)) * radial_norm(nt, lt) * radial_norm(ns, ls)

        def integrand(x: mpf) -> mpf:
            # Horner sums on integers scaled by 2^bits, at 32 bits beyond the
            # precision mp.quad works at: exact products, one truncation each
            bits = mp.prec + 32
            a = strain_factor(x, s)
            t = 1 / (ns + nt * a)
            fa, ft, fx = (int(mp.ldexp(v, bits)) for v in (a, t, x))
            radial = 0  # sum_p t^(p - p_min) sum_ks Q[p][ks] A^ks
            for p in range(p_max, p_min - 1, -1):
                inner = 0
                for q in reversed(moments[p]):
                    inner = (inner * fa >> bits) + (q << bits)
                radial = (radial * ft >> bits) + inner
            angular = fixed_legendre(lt, fx, bits) * fixed_legendre(ls, fx, bits) >> bits
            return scale * mp.ldexp(radial * angular >> bits, -bits) * t ** (p_min + 3)

        value = mp.quad(integrand, [0, 1], method="gauss-legendre")
    with mp.workdps(DIGITS):
        return +value  # rounded to DIGITS, kept at that precision


def main() -> int:
    print("GOLDEN_ORACLE_OVERLAPS = {")
    for n0, sp in GOLDEN_CASES:
        value = reference_overlap((n0, 2), (n0, 0), sp)
        # repr of the nearest double, then the 40-digit value it rounds from
        print(f"    ({n0}, {sp!r}): {float(value)!r},  # {mp.nstr(value, DIGITS, min_fixed=0, max_fixed=0)}")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
