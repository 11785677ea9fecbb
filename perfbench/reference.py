"""Independent values the benchmark checks gravatom's outputs against.

Nothing here imports gravatom.  Angular integrals, Laguerre moments and the
detuning formula are exact rational arithmetic (fractions.Fraction); square
roots, trigonometry and quadrature are mpmath at a stated working precision.
The numeric-oracle overlaps come from ``reference_overlap`` in
``scripts/oracle_reference.py``, which does not import gravatom either.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from mpmath import mp, mpf

#: CODATA 2018, exact decimal strings.
HARTREE_J = Fraction("4.3597447222071e-18")
PLANCK_J_S = Fraction("6.62607015e-34")
HBAR_J_S = Fraction("1.054571817e-34")
SPEED_OF_LIGHT_M_S = Fraction(299792458)
HARTREE_RAD_S = HARTREE_J / HBAR_J_S
HARTREE_HZ = HARTREE_J / PLANCK_J_S

#: Quantum defects of the bundled species profiles, as written in the profile.
SPECIES_DEFECTS = {
    "hydrogen": {},
    "rb-example": {0: Fraction("3.1311"), 1: Fraction("2.6548"),
                   2: Fraction("1.3479"), 3: Fraction("0.0165")},
}

#: Significant digits asked of scripts/oracle_reference.py.  Its defaults
#: (40 + 20 guard digits) cost ~1 s per large-n overlap; the checks need 9.
ORACLE_DIGITS = 16


def oracle_guard_digits(s_p: float) -> int:
    """Guard digits for the x integral at strain s_p.

    The integral cancels the O(1) part of the radial overlap down to C, and
    the checked entries (|delta l| <= 2) have |C| >~ s_p^2: about
    2 log10(1/|s_p|) digits cancel.  Four more are margin.
    """
    return 2 * math.ceil(-math.log10(abs(s_p))) + 4


def to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


# --- exact angular and radial integrals -------------------------------------------

def _legendre_coefficients(l: int) -> dict[int, Fraction]:
    """P_l(x) = 2^-l sum_j (-1)^j C(l, j) C(2l - 2j, l) x^(l - 2j)."""
    return {
        l - 2 * j: Fraction((-1) ** j * math.comb(l, j) * math.comb(2 * l - 2 * j, l), 2**l)
        for j in range(l // 2 + 1)
    }


@lru_cache(maxsize=None)
def theta_fraction(k: int, l: int) -> Fraction:
    """(1/2) int_-1^1 (2x^2 - 1)^k P_l(x) dx, exactly."""
    total = Fraction(0)
    for i in range(k + 1):  # (2x^2 - 1)^k = sum_i C(k, i) 2^i x^2i (-1)^(k - i)
        a = (-1) ** (k - i) * math.comb(k, i) * 2**i
        for p, c in _legendre_coefficients(l).items():
            if (2 * i + p) % 2 == 0:
                total += a * c * Fraction(2, 2 * i + p + 1)
    return total / 2


def _laguerre_coefficients(order: int, alpha: int) -> list[Fraction]:
    """L_N^a(x) = sum_m (-1)^m C(N + a, N - m) x^m / m!."""
    return [
        Fraction((-1) ** m * math.comb(order + alpha, order - m), math.factorial(m))
        for m in range(order + 1)
    ]


@lru_cache(maxsize=None)
def series_radial_factor(n0: int, k: int, l: int) -> mpf:
    """Radial factor of the published k-expansion, from exact Laguerre moments.

    sqrt((n0-1)! (n0-l-1)! / [n0! (n0+l)!]^3) ((n0+k)!)^2
        * int_0^inf e^-x x^(k+l+1) [L_{n0-l-1}^{k+l+1}(x)]^2 dx,
    with int_0^inf e^-x x^p dx = p!.
    """
    a = _laguerre_coefficients(n0 - l - 1, k + l + 1)
    moment = sum(
        ai * aj * math.factorial(k + l + 1 + i + j)
        for i, ai in enumerate(a) for j, aj in enumerate(a)
    )
    f = math.factorial
    ratio = Fraction(f(n0 - 1) * f(n0 - l - 1), (f(n0) * f(n0 + l)) ** 3)
    with mp.workdps(40):
        return mp.sqrt(to_mpf(ratio)) * to_mpf(f(n0 + k) ** 2 * moment)


def series_coefficient(n0: int, l: int, s_p: float, k_max: int) -> mpf:
    """coefficient(n0, l) = sum_k s^k / k! R(n0, k, l) sqrt(2l + 1) Theta_{k,l}."""
    with mp.workdps(40):
        s = mpf(s_p)
        return mp.fsum(
            s**k / math.factorial(k) * series_radial_factor(n0, k, l)
            * mp.sqrt(2 * l + 1) * to_mpf(theta_fraction(k, l))
            for k in range(l // 2, k_max + 1)
        )


# --- printed first-order closed forms --------------------------------------------

def closed_form_slopes(n0: int, l0: int) -> tuple[mpf, mpf, mpf]:
    """Printed first-order slopes (C0, C+2, C-2); out-of-basis targets give 0."""
    with mp.workdps(40):
        n, l = mpf(n0), mpf(l0)
        zero = mpf(0)
        if l0 == 0:
            c0 = -(n + 1) ** 3 / 3
            cp = (4 * (n + 1) / (3 * (n + 2) ** 2) * mp.sqrt((n**2 - 1) * (n**2 - 4) / 5)
                  if n0 >= 3 else zero)
            return c0, cp, zero
        c0 = -(n + l + 1) ** 3 / ((2 * l - 1) * (2 * l + 3))
        cp = zero
        if l0 + 2 <= n0 - 1:
            cp = 2 * (l + 1) * (l + 2) / (2 * l + 3) * mp.sqrt(
                ((n + l + 1) / (n + l + 2)) ** 3 * (n - l - 1) * (n - l - 2)
                / ((2 * l + 1) * (2 * l + 5))
            )
        cm = zero
        if l0 >= 2:
            cm = 2 * l * (l - 1) * (n + l + 1) ** 3 / (2 * l - 1) * mp.sqrt(
                (n + l) ** 3 * (n + l - 1) ** 3
                / ((n - l) * (n - l + 1) * (2 * l + 1) * (2 * l - 3))
            )
        return c0, cp, cm


# --- energies and the printed detuning formula ------------------------------------

def level_energy(n: int, l: int, species: str) -> Fraction:
    """E = -1 / (2 (n - delta_l)^2) Hartree."""
    n_eff = n - SPECIES_DEFECTS[species].get(l, Fraction(0))
    return -1 / (2 * n_eff**2)


def shift_slope(n: int, l: int, species: str) -> Fraction:
    """Printed per-level slope -2 E (n + l + 1)^3 / ((2l - 1)(2l + 3))."""
    return -2 * level_energy(n, l, species) * (n + l + 1) ** 3 / ((2 * l - 1) * (2 * l + 3))


def detuning_slope(lower: tuple[int, int], upper: tuple[int, int], species: str) -> Fraction:
    """Printed detuning slope in Hartree per unit strain, exactly."""
    return shift_slope(*upper, species) - shift_slope(*lower, species)


# --- Rabi deviation ----------------------------------------------------------------

def deviation_at_cycles(omega: mpf, detuning: mpf, n_cycles: int) -> mpf:
    """sin^2(omega t / 2) - P_e at t = 2 pi N / omega, evaluated directly at 60 digits."""
    with mp.workdps(60):
        omega, detuning = mpf(omega), mpf(detuning)
        t = 2 * mp.pi * n_cycles / omega
        g = mp.sqrt(omega**2 + detuning**2)
        p_e = (omega / g) ** 2 * mp.sin(g * t / 2) ** 2
        return mp.sin(omega * t / 2) ** 2 - p_e


# --- numeric oracle -----------------------------------------------------------------

def strain_factor(x: mpf, s_p: mpf) -> mpf:
    """A(x) = (1 - s_p) / sqrt(x^2 + ((1 - s_p)/(1 + s_p))^2 (1 - x^2))."""
    ratio = (1 - s_p) / (1 + s_p)
    return (1 - s_p) / mp.sqrt(x**2 + ratio**2 * (1 - x**2))


def direct_norm(l: int, s_p: float) -> mpf:
    """2 pi int_-1^1 Y_l(x)^2 A(x)^-3 dx: the r integral of |R(rA)|^2 r^2 is A^-3."""
    with mp.workdps(30):
        s = mpf(s_p)
        return 2 * mp.pi * (2 * l + 1) / (4 * mp.pi) * mp.quad(
            lambda x: mp.legendre(l, x) ** 2 / strain_factor(x, s) ** 3, [-1, 0, 1]
        )


class References:
    """Cached mpmath values shared by every check in one run.

    Overlaps come from reference_overlap in the checkout's
    scripts/oracle_reference.py, at ORACLE_DIGITS significant digits.
    """

    def __init__(self, root: Path):
        path = root / "scripts" / "oracle_reference.py"
        spec = importlib.util.spec_from_file_location("oracle_reference", path)
        self._oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._oracle)
        self._oracle.DIGITS = ORACLE_DIGITS
        self._overlaps: dict[tuple, mpf] = {}
        self._norms: dict[tuple, mpf] = {}

    def overlap(self, target, source, s_p: float) -> mpf:
        key = (tuple(target), tuple(source), s_p)
        if key not in self._overlaps:
            self._oracle.GUARD_DIGITS = oracle_guard_digits(s_p)
            self._overlaps[key] = self._oracle.reference_overlap(*key)
        return self._overlaps[key]

    def direct_norm(self, l: int, s_p: float) -> mpf:
        if (l, s_p) not in self._norms:
            self._norms[(l, s_p)] = direct_norm(l, s_p)
        return self._norms[(l, s_p)]
