"""Strain map, distorted wavefunction and its spectral decomposition.

Three routes to the expansion coefficients are provided and deliberately kept
separate:

* ``numeric`` -- brute-force projection of the exact distorted wavefunction
  on each basis state.  This is the ground truth.  The radial integral has
  no grid: it is a polynomial in beta = n0 / (n0 + n A) with integer
  coefficients, Taylor-shifted about A = 1 in exact integer arithmetic and
  rounded once per coefficient (_radial_taylor).  Only the angular integral
  is numeric, a Gauss-Legendre rule checked by node doubling.
* ``series`` -- the k-expansion obtained from the Laguerre argument-scaling
  identity plus the small-strain approximations.  Its angular components
  (``theta_fraction``) and radial factors (``_series_radial_factor``, a
  Laguerre norm in closed form) are exact rationals rounded once, so this
  route uses no quadrature.
* ``closed form`` -- the printed first-order coefficients C0, C+2, C-2.

The series and closed-form routes agree with each other by construction; the
numeric route measures how much the approximations behind them actually cost.
Discrepancies are reported, never hidden.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hydrogenics import (
    AtomicState,
    QuadratureConvergenceError,
    QuadratureSpec,
    fsum_dot,
    gauss_legendre_nodes,
    laguerre,
    legendre,
    radial_wavefunction,
    spherical_harmonic_m0,
)

__all__ = [
    "Strain",
    "DecompositionMethod",
    "SpectralDecomposition",
    "LinearResponseCoefficient",
    "ClosedFormCoefficients",
    "strain_factor",
    "distorted_wavefunction",
    "overlap_numeric",
    "distorted_norm_numeric",
    "numeric_decomposition",
    "theta_fraction",
    "theta_component",
    "closed_form_coefficients",
    "closed_form_decomposition",
    "series_decomposition",
    "laguerre_shift_identity_check",
]

#: |C| predicted beyond this fraction of unity triggers a linearity warning.
SLOPE_SANITY_LIMIT = 0.1


@dataclass(frozen=True)
class Strain:
    """Dimensionless in-plane strain amplitude."""

    s_p: float

    def __post_init__(self) -> None:
        if not abs(self.s_p) < 0.5:
            raise ValueError(f"strain map degenerates for |s_p| >= 0.5, got {self.s_p}")


class DecompositionMethod(enum.Enum):
    NUMERIC_ORACLE = "numeric_oracle"
    PAPER_SERIES = "paper_series"
    CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class LinearResponseCoefficient:
    """First-order coefficient stored as slope + zeroth order.

    Physical strains (~1e-20) underflow any direct C - 1 subtraction; keeping
    d C / d s_p makes tiny strains exact by construction.
    """

    value_at_unit_strain: float
    zeroth_order: float

    def __post_init__(self) -> None:
        if self.zeroth_order not in (0.0, 1.0):
            raise ValueError(f"zeroth_order must be 0 or 1, got {self.zeroth_order}")

    def at(self, s_p: float) -> float:
        return self.zeroth_order + self.value_at_unit_strain * s_p


@dataclass(frozen=True)
class ClosedFormCoefficients:
    source: AtomicState
    c0: LinearResponseCoefficient
    c_plus2: LinearResponseCoefficient
    c_minus2: LinearResponseCoefficient


@dataclass(frozen=True)
class SpectralDecomposition:
    """Expansion of the distorted wavefunction over unperturbed eigenstates."""

    source: AtomicState
    strain: Strain
    entries: tuple[tuple[AtomicState, float], ...]
    method: DecompositionMethod
    k_max: int
    norm_sum: float
    direct_norm: float | None = None

    def __post_init__(self) -> None:
        if any(state.m != 0 for state, _ in self.entries):
            raise ValueError("decomposition entries must have m = 0")
        if any(not math.isfinite(c) for _, c in self.entries):
            raise ValueError("coefficients must be finite")

    def coefficient(self, state: AtomicState) -> float:
        for s, c in self.entries:
            if s == state:
                return c
        return 0.0

    def dominant_entry(self) -> tuple[AtomicState, float]:
        return max(self.entries, key=lambda e: abs(e[1]))


def strain_factor(theta, strain: Strain):
    """Angular contraction factor A_theta of the in-plane strain map.

    A = (1 - s_p) / sqrt(cos^2 + ratio^2 sin^2), ratio = (1 - s_p) / (1 + s_p),
    evaluated as 1 minus the cancellation-free deviation 1 - A.
    """
    out = 1.0 - _strain_deviation_cos(np.cos(theta), strain.s_p)
    return float(out) if np.isscalar(theta) else out


def _strain_deviation_cos(ct, sp: float):
    """1 - A for the strain map parametrized by cos(theta), without cancellation.

    With D = cos^2 + ratio^2 sin^2 = 1 - 4 s_p sin^2 / (1 + s_p)^2 and
    A = (1 - s_p) / sqrt(D),
        1 - A = (D - (1 - s_p)^2) / (sqrt(D) (sqrt(D) + 1 - s_p))
    and D - (1 - s_p)^2 = s_p (2 - s_p - 4 sin^2 / (1 + s_p)^2) is O(s_p).
    """
    if sp == 0.0:
        return np.zeros_like(ct)
    sin2 = (1.0 - ct) * (1.0 + ct)
    root = np.sqrt(1.0 - 4.0 * sp * sin2 / (1.0 + sp) ** 2)
    return sp * (2.0 - sp - 4.0 * sin2 / (1.0 + sp) ** 2) / (root * (root + 1.0 - sp))


def distorted_wavefunction(source: AtomicState, strain: Strain, r, theta):
    """psi'(r, theta) = R_{n0,l0}(r * A_theta) * Y_{l0}^0(theta).

    The strain substitution applies to the radial argument only; the angles
    are unchanged.
    """
    if source.m != 0:
        raise ValueError("only m = 0 sources are supported (axisymmetric strain map)")
    a = strain_factor(theta, strain)
    return radial_wavefunction(source, np.asarray(r, dtype=float) * a) * spherical_harmonic_m0(
        source.l, theta
    )


def _half_legendre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1] folded onto x >= 0, for even integrands.

    The angular integrals run over x = cos(theta) (int_0^pi f sin dtheta =
    int_-1^1 f dx), and the strain map depends on x^2 only.  The rule is
    symmetric about 0, so the x < 0 half is the mirror of the x > 0 half.
    """
    x, w = gauss_legendre_nodes(m)
    keep = x >= 0.0
    return x[keep], np.where(x > 0.0, 2.0 * w, w)[keep]


@lru_cache(maxsize=256)
def _y_half(l: int, m_ang: int) -> np.ndarray:
    """Y_l^0 on the x >= 0 nodes of the m_ang-node rule (read-only, cached)."""
    x, _ = _half_legendre_nodes(m_ang)
    y = math.sqrt((2 * l + 1) / (4 * math.pi)) * legendre(l, x)
    y.setflags(write=False)
    return y


@lru_cache(maxsize=256)
def _laguerre_integers(n: int, l: int) -> tuple[int, ...]:
    """Integers a_J, J = 0 ... n-1, with N'! y^l L_N'^{2l+1}(y) = sum_J a_J y^J, N' = n-l-1.

    a_{l+m} = (-1)^m C(n + l, N' - m) N'! / m! (DLMF 18.5.12); a_J = 0 for J < l.
    """
    order = n - l - 1
    return (0,) * l + tuple(
        (-1) ** m * math.comb(n + l, order - m) * math.prod(range(m + 1, order + 1))
        for m in range(order + 1)
    )


@lru_cache(maxsize=1024)
def _radial_taylor(n: int, l: int, n0: int, l0: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Taylor coefficients c_k of I(A) - I(1) in d = beta - beta1, and log2 |c_k|.

    I(A) = int R_{n,l}(r) R_{n0,l0}(r A) r^2 dr.  With beta = n0 / (n0 + n A)
    and r = n beta u the two decays combine to e^{-u} and the Laguerre
    arguments become 2 beta u and 2 (1 - beta) u:
        I(A) = N_t N_s n^3 int e^{-u} u^2 beta^3 Q_t(2 beta u) Q_s(2 (1 - beta) u) du,
    Q_l(y) = y^l L_{n-l-1}^{2l+1}(y).  Term by term (int u^p e^{-u} = p!),
        I(A) N_t'! N_s'! / (N_t N_s n^3) = P(beta)
            = sum_{J,K} a_J b_K 2^(J+K) (J+K+2)! beta^(J+3) (1 - beta)^K,
    with a, b from _laguerre_integers: an integer polynomial of degree
    D = n + n0 + 1, built by Horner's rule in (1 - beta) over K.  With
    beta1 = n0 / (n0 + n) = p / q in lowest terms, E(t) = q^D P(t / q) has
    integer coefficients; its Taylor shift by p (von zur Gathen & Gerhard,
    ISSAC 1997) gives E(p + t) = sum_k f_k t^k, t = q d, so
        I(A) - I(1) = sum_{k >= 1} c_k d^k,
        c_k = f_k N_t N_s n^3 / (q^(D-k) N_t'! N_s'!) = 4 n f_k / (q^(D-k) sqrt(M)),
    M = n0^4 (n+l)! N_t'! (n0+l0)! N_s'!.  Everything up to the one division
    is exact integer arithmetic (sqrt(M) to 64 extra bits), so each c_k is
    rounded once; one too large for a double is inf.  For (n, 2) <- (n, 0),
    f_1 and with it c_1 is exactly 0.
    """
    a, b = _laguerre_integers(n, l), _laguerre_integers(n0, l0)
    degree = n + n0 + 1
    fact = [math.factorial(i) for i in range(max(n + n0, n + l, n0 + l0) + 1)]
    a_scaled = [a_j << j for j, a_j in enumerate(a)]
    poly = [0] * (degree + 1)  # P in powers of beta
    for k in reversed(range(n0)):
        for m in range(degree - k, 0, -1):  # poly *= 1 - beta: degree n + n0 + 1 - k
            poly[m] -= poly[m - 1]
        if b[k]:
            b_k = b[k] << k
            for j in range(l, n):
                poly[j + 3] += b_k * a_scaled[j] * fact[j + k + 2]
    g = math.gcd(n0, n0 + n)
    p, q = n0 // g, (n0 + n) // g
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * q)
    e = [c * powers[degree - m] for m, c in enumerate(poly)]
    for i in range(degree):  # Ruffini-Horner: pass i fixes f_i
        for j in range(degree - 1, i - 1, -1):
            e[j] += p * e[j + 1]
    m_norm = (
        n0**4 * fact[n + l] * fact[n - l - 1] * fact[n0 + l0] * fact[n0 - l0 - 1]
    )
    root = math.isqrt(m_norm << 128)
    coeffs, logs = [], []
    for k in range(1, degree + 1):
        num, den = (4 * n * e[k]) << 64, powers[degree - k] * root
        try:
            coeffs.append(num / den)
        except OverflowError:
            coeffs.append(math.inf if num > 0 else -math.inf)
        logs.append(math.log2(abs(num)) - math.log2(den) if num else -math.inf)
    return tuple(coeffs), tuple(logs)


def _radial_deviation(
    n: int, l: int, source: AtomicState, d: np.ndarray, log2_d: float
) -> np.ndarray:
    """I(A) - I(1) for the target (n, l) at d = beta - beta1, max |d| = 2^log2_d.

    Horner's rule on the Taylor coefficients of _radial_taylor, cut after the
    last term that can reach 2^-53 / D of the largest at max |d|: the at most
    D dropped terms move the sum by less than its own rounding.
    """
    coeffs, logs = _radial_taylor(n, l, source.n, source.l)
    sizes = [log2_c + k * log2_d for k, log2_c in enumerate(logs, 1)]
    floor = max(sizes) - 53 - math.log2(len(sizes))
    kept = max(k for k, size in enumerate(sizes, 1) if size >= floor)
    if math.isinf(max(coeffs[:kept], key=abs)):
        raise OverflowError(
            f"overlap {AtomicState(n, l)} <- {source}: a radial Taylor coefficient "
            "overflows a double"
        )
    acc = np.full_like(d, coeffs[kept - 1])
    for c in reversed(coeffs[:kept - 1]):
        acc = acc * d + c
    return acc * d


def _overlaps_on_grid(
    n: int, ls: list[int], source: AtomicState, strain: Strain, m_ang: int
) -> list[float]:
    """Overlaps of the targets (n, l), l in ls, with the distorted source on one grid."""
    # Y_t Y_s is odd in x = cos(theta) for odd l + l0, and I(A(x)) even
    out = [1.0 if (n, l) == (source.n, source.l) else 0.0 for l in ls]
    x, wx = _half_legendre_nodes(m_ang)
    one_minus_a = _strain_deviation_cos(x, strain.s_p)
    # d = beta(A) - beta1 in a form proportional to 1 - A, free of cancellation
    n0 = source.n
    d = (n0 * n / (n0 + n)) * one_minus_a / (n0 + n - n * one_minus_a)
    d_max = float(np.max(np.abs(d)))
    if d_max == 0.0:
        return out
    log2_d = math.log2(d_max)
    # 2 pi int Y_t Y_s I(1) dx = delta_ts exactly, but Gauss-Legendre weights
    # reproduce angular orthogonality only to roundoff, and projecting the
    # O(1) I(1) through them would bias C by ~1e-14 at every strain.  Only
    # the deviation I(A) - I(1) is projected; delta_ts is added analytically.
    weights = 2.0 * math.pi * wx * _y_half(source.l, m_ang)
    for i, l in enumerate(ls):
        if (l + source.l) % 2 == 0:
            rad = _radial_deviation(n, l, source, d, log2_d)
            out[i] += fsum_dot(weights, _y_half(l, m_ang) * rad)
    return out


def _converged_overlaps(
    n: int, ls: list[int], source: AtomicState, strain: Strain, quad: QuadratureSpec
) -> list[float]:
    """Overlaps of the targets (n, l), l in ls, each checked by angular node doubling.

    The radial integral is exact (_radial_taylor), so the coarse and fine
    grids share it; the fine grid doubles the angular rule, which is never
    exact: the angular integrand goes through A(x) and is not a polynomial.
    """
    if source.m != 0:
        raise ValueError("overlap_numeric requires m = 0 states")
    m_ang = quad.angular_node_count
    coarse = _overlaps_on_grid(n, ls, source, strain, m_ang)
    fine = _overlaps_on_grid(n, ls, source, strain, 2 * m_ang)
    for l, c, f in zip(ls, coarse, fine):
        if abs(f - c) > quad.target_abs_tolerance:
            raise QuadratureConvergenceError(
                f"overlap {AtomicState(n, l)} <- {source} did not converge: node doubling "
                f"moved the result by {abs(f - c):.3e} > {quad.target_abs_tolerance:.3e}"
            )
    return fine


def overlap_numeric(
    target: AtomicState,
    source: AtomicState,
    strain: Strain,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Expansion coefficient C = 2 pi iint psi_target psi' r^2 sin(theta) dr dtheta.

    The trivial phi integral is folded into the 2 pi prefactor.  The radial
    integral is exact (_radial_taylor), and only its deviation from the
    identity map (A = 1) is projected on the angular rule; the exact
    projection delta_ts is added analytically, so no angular-weight roundoff
    is carried into small coefficients.  The result is verified by angular
    node doubling (quad.radial_node_count is not used).  Disagreement beyond
    the requested tolerance raises QuadratureConvergenceError rather than
    returning a silent value.
    """
    if target.m != 0:
        raise ValueError("overlap_numeric requires m = 0 states")
    return _converged_overlaps(target.n, [target.l], source, strain, quad)[0]


def _norm_on_grid(source: AtomicState, strain: Strain, m_ang: int) -> float:
    x, wx = _half_legendre_nodes(m_ang)
    one_minus_a = _strain_deviation_cos(x, strain.s_p)
    a = 1.0 - one_minus_a
    # 2 pi int Y^2 dx = 1 exactly, added analytically as delta_ts is for the
    # overlaps: only A^-3 - 1 = (1 - A)(1 + A + A^2) / A^3 meets the weights
    deviation = one_minus_a * (1.0 + a + a * a) / a**3
    return 1.0 + 2.0 * math.pi * fsum_dot(wx, _y_half(source.l, m_ang) ** 2 * deviation)


def distorted_norm_numeric(
    source: AtomicState, strain: Strain, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Direct norm iint |psi'|^2 r^2 sin(theta) dr dtheta dphi.

    The radial integral is exact: int R(r A)^2 r^2 dr = A^-3, so the norm is
    2 pi int Y_l^2 A^-3 d(cos theta), done by Gauss-Legendre quadrature and
    checked by angular node doubling.  The coordinate map is not unitary, so
    this is close to but not exactly 1.
    """
    coarse = _norm_on_grid(source, strain, quad.angular_node_count)
    fine = _norm_on_grid(source, strain, 2 * quad.angular_node_count)
    if abs(fine - coarse) > quad.target_abs_tolerance:
        raise QuadratureConvergenceError(
            f"distorted norm for {source} did not converge ({abs(fine - coarse):.3e})"
        )
    return fine


def numeric_decomposition(
    source: AtomicState,
    strain: Strain,
    quad: QuadratureSpec = QuadratureSpec(),
    delta_n: int = 4,
    l_max: int = 10,
) -> SpectralDecomposition:
    """Brute-force decomposition over a truncated (n, l) window around the source."""
    entries: list[tuple[AtomicState, float]] = []
    for n in range(max(1, source.n - delta_n), source.n + delta_n + 1):
        ls = list(range(0, min(l_max, n - 1) + 1))
        overlaps = _converged_overlaps(n, ls, source, strain, quad)
        entries.extend((AtomicState(n, l), c) for l, c in zip(ls, overlaps))
    norm_sum = math.fsum(c * c for _, c in entries)
    return SpectralDecomposition(
        source=source,
        strain=strain,
        entries=tuple(entries),
        method=DecompositionMethod.NUMERIC_ORACLE,
        k_max=0,
        norm_sum=norm_sum,
        direct_norm=distorted_norm_numeric(source, strain, quad),
    )


@lru_cache(maxsize=None)
def theta_fraction(k: int, l: int) -> Fraction:
    """Angular component Theta_{k,l} = (1/2) int_-1^1 (2x^2 - 1)^k P_l(x) dx, exactly.

    Term by term over (2x^2 - 1)^k = sum_i C(k, i) (-1)^(k-i) 2^i x^(2i) and
    P_l(x) = 2^-l sum_j (-1)^j C(l, j) C(2l - 2j, l) x^(l-2j), with
    (1/2) int_-1^1 x^p dx = 1 / (p + 1) for even p.  Exactly zero for odd l
    (parity) and for l > 2k (orthogonality).
    """
    if k < 0 or k > 12:
        raise ValueError(f"k must be in [0, 12], got {k}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if l % 2 == 1 or l > 2 * k:
        return Fraction(0)
    return sum(
        Fraction(
            (-1) ** (k - i + j) * math.comb(k, i) * 2**i
            * math.comb(l, j) * math.comb(2 * l - 2 * j, l),
            2**l * (2 * i + l - 2 * j + 1),
        )
        for i in range(k + 1)
        for j in range(l // 2 + 1)
    )


@lru_cache(maxsize=None)
def theta_component(k: int, l: int) -> float:
    """Theta_{k,l} correctly rounded to float (see theta_fraction)."""
    return float(theta_fraction(k, l))


def closed_form_coefficients(source: AtomicState, strain: Strain) -> ClosedFormCoefficients:
    """First-order coefficients C0, C+2, C-2 as linear-response slopes.

    The l0 = 0 case follows the dedicated printed forms (negative C0 slope);
    l0 >= 1 follows the general printed forms.  Coefficients whose target l
    falls outside 0 <= l <= n-1 are exactly zero.
    """
    if source.m != 0:
        raise ValueError("closed-form coefficients require an m = 0 source")
    n0, l0 = source.n, source.l

    if l0 == 0:
        c0_slope = -((n0 + 1) ** 3) / 3.0
        if n0 >= 3:  # target (n0, 2) exists
            cp_slope = (
                4.0 * (n0 + 1) / (3.0 * (n0 + 2) ** 2)
                * math.sqrt((n0**2 - 1) * (n0**2 - 4) / 5.0)
            )
        else:
            cp_slope = 0.0
        cm_slope = 0.0
    else:
        denom = (2 * l0 - 1) * (2 * l0 + 3)
        c0_slope = -((n0 + l0 + 1) ** 3) / denom
        if l0 + 2 <= n0 - 1:
            cp_slope = (
                2.0 * (l0 + 1) * (l0 + 2) / (2 * l0 + 3)
                * math.sqrt(
                    ((n0 + l0 + 1) / (n0 + l0 + 2)) ** 3
                    * (n0 - l0 - 1) * (n0 - l0 - 2)
                    / ((2 * l0 + 1) * (2 * l0 + 5))
                )
            )
        else:
            cp_slope = 0.0
        if l0 >= 2:
            cm_slope = (
                2.0 * l0 * (l0 - 1) * (n0 + l0 + 1) ** 3 / (2 * l0 - 1)
                * math.sqrt(
                    (n0 + l0) ** 3 * (n0 + l0 - 1) ** 3
                    / ((n0 - l0) * (n0 - l0 + 1) * (2 * l0 + 1) * (2 * l0 - 3))
                )
            )
        else:
            cm_slope = 0.0

    sp = strain.s_p
    worst = max(abs(c0_slope), abs(cp_slope), abs(cm_slope))
    if worst * abs(sp) > SLOPE_SANITY_LIMIT:
        warnings.warn(
            f"first-order coefficients for {source} at s_p={sp:g} predict a change of "
            f"{worst * abs(sp):.3g}; the linear response is outside its validity range",
            stacklevel=2,
        )
    return ClosedFormCoefficients(
        source=source,
        c0=LinearResponseCoefficient(c0_slope, 1.0),
        c_plus2=LinearResponseCoefficient(cp_slope, 0.0),
        c_minus2=LinearResponseCoefficient(cm_slope, 0.0),
    )


def closed_form_decomposition(source: AtomicState, strain: Strain) -> SpectralDecomposition:
    """Closed-form coefficients packaged as a (at most three entry) decomposition."""
    coeffs = closed_form_coefficients(source, strain)
    sp = strain.s_p
    entries: list[tuple[AtomicState, float]] = []
    if source.l >= 2:
        entries.append((AtomicState(source.n, source.l - 2), coeffs.c_minus2.at(sp)))
    entries.append((AtomicState(source.n, source.l), coeffs.c0.at(sp)))
    if source.l + 2 <= source.n - 1:
        entries.append((AtomicState(source.n, source.l + 2), coeffs.c_plus2.at(sp)))
    entries.sort(key=lambda e: (e[0].n, e[0].l))
    return SpectralDecomposition(
        source=source,
        strain=strain,
        entries=tuple(entries),
        method=DecompositionMethod.CLOSED_FORM,
        k_max=0,
        norm_sum=math.fsum(c * c for _, c in entries),
    )


@lru_cache(maxsize=None)
def _series_radial_factor(n0: int, k: int, l: int) -> float:
    """Radial factor of the k-expansion, published-algebra normalization.

        sqrt((n0-1)! (n0-l-1)! / [n0! (n0+l)!]^3) * ((n0+k)!)^2
            * int_0^inf e^{-x} x^{k+l+1} [L_{n0-l-1}^{k+l+1}(x)]^2 dx
    The integral is the Laguerre norm (n0+k)! / (n0-l-1)! (DLMF 18.3), so the
    factor is P^3 sqrt(F / Q^3) with P = (n0+k)!/n0!, F = (n0-1)!/(n0-l-1)!
    and Q = (n0+l)!/n0!, evaluated as one correctly rounded rational and one
    correctly rounded square root.  F, and with it the factor, is 0 for
    l > n0 - 1.  This is algebraically identical to the published closed-form
    radial result; the honest modern-convention overlap with measure r^2 dr
    does NOT reproduce it, which is exactly the approximation gap the numeric
    oracle route measures.
    """
    p = math.prod(range(n0 + 1, n0 + k + 1))
    f = math.prod(range(n0 - l, n0))
    q = math.prod(range(n0 + 1, n0 + l + 1))
    return math.sqrt(Fraction(p**6 * f, q**3))


def series_decomposition(source: AtomicState, strain: Strain, k_max: int) -> SpectralDecomposition:
    """k-expansion of the decomposition for an l0 = 0 source.

    coefficient(n0, l) = sum_{k >= l/2}^{k_max} (s_p^k / k!)
                         * radial_factor(n0, k, l) * sqrt(2l+1) * Theta_{k,l}
    Odd-l targets vanish identically; only same-n targets appear (the series
    route inherits the published n-conservation approximation).  The terms
    grow like (s_p n0^3)^k / k!, so a first-order term beyond
    SLOPE_SANITY_LIMIT warns that the truncated expansion is meaningless.
    """
    if source.l != 0 or source.m != 0:
        raise ValueError("the series route is developed for l0 = 0 sources only")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    n0 = source.n
    sp = strain.s_p
    entries: list[tuple[AtomicState, float]] = []
    first_order = 0.0
    for l in range(0, min(2 * k_max, n0 - 1) + 1, 2):
        terms = [
            sp**k / math.factorial(k)
            * _series_radial_factor(n0, k, l)
            * math.sqrt(2 * l + 1)
            * theta_component(k, l)
            for k in range(l // 2, k_max + 1)
        ]
        if l <= 2:
            first_order = max(first_order, abs(terms[1 - l // 2]))  # the k = 1 term
        c = math.fsum(terms)
        if l == 0 or c != 0.0:
            entries.append((AtomicState(n0, l), c))
    if first_order > SLOPE_SANITY_LIMIT:
        warnings.warn(
            f"series coefficients for {source} at s_p={sp:g} have a first-order term of "
            f"{first_order:.3g}; the truncated expansion is outside its validity range",
            stacklevel=2,
        )
    entries.sort(key=lambda e: (e[0].n, e[0].l))
    return SpectralDecomposition(
        source=source,
        strain=strain,
        entries=tuple(entries),
        method=DecompositionMethod.PAPER_SERIES,
        k_max=k_max,
        norm_sum=math.fsum(c * c for _, c in entries),
    )


def laguerre_shift_identity_check(
    n0: int, a_factor: float, r: float, truncation_tol: float = 1e-14
) -> tuple[float, float]:
    """Both sides of the Laguerre argument-scaling identity.

    lhs: L^1_{n0-1}(2 r A / n0)
    rhs: e^{-(2r/n0)(1-A)} sum_k ((1-A)^k / k!) (2r/n0)^k L^{1+k}_{n0-1}(2r/n0)
    The sum is truncated once the bound |h^k / k!| C(n0 + k, n0 - 1) e^{x/2}
    on the term's magnitude falls below truncation_tol (|L_N^a(x)| <=
    C(N + a, N) e^{x/2}, DLMF 18.14.8).  The term itself is no stopping signal:
    it vanishes wherever x is a zero of L^{1+k}_{n0-1} (n0 = 2, r = 3, k = 1).
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    x = 2.0 * r / n0
    lhs = laguerre(n0 - 1, 1, x * a_factor)
    h = x * (1.0 - a_factor)
    envelope = math.exp(x / 2.0)
    terms: list[float] = []
    for k in range(0, 400):
        coeff = h**k / math.factorial(k)
        terms.append(coeff * laguerre(n0 - 1, 1 + k, x))
        if k > 0 and abs(coeff) * math.comb(n0 + k, n0 - 1) * envelope < truncation_tol:
            break
    rhs = math.exp(-h) * math.fsum(terms)
    return float(lhs), rhs
