"""Hydrogenic basis functions and quadrature engines.

Everything is in atomic units (a0 = 1).  Radial functions follow the modern
generalized-Laguerre convention (L_0^a = 1, L_1^a = 1 + a - x) with the
normalization fixed by int R_{n,l}^2 r^2 dr = 1.

All quadrature reductions go through math.fsum, so on one platform results
are bit-identical regardless of how callers parallelize.  Across platforms
they agree only to roundoff: the Laguerre nodes come from numpy's LAPACK
symmetric eigensolver (``eigvalsh`` on the Jacobi matrix) and the Legendre
nodes start from numpy's cos, whose last bits can differ between builds.
Only the numeric oracle (the Legendre rule, for its angular integral) and
the ``basis`` verification suite use these rules.  The series route, the
closed forms and the Table-1 angular components need no nodes: the angular
components and series radial factors are exact rationals rounded once, the
same on every platform, and the rest is IEEE double arithmetic, math.sqrt
and the C library's pow.

The Laguerre and Legendre recurrences take a scalar or an array.  A scalar
runs the same loop in Python floats; IEEE +, -, * and / round alike in Python
and numpy, so it gives the same bits as a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_NODE_COUNT",
    "AtomicState",
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "laguerre",
    "legendre",
    "radial_wavefunction",
    "radial_norm_constant",
    "spherical_harmonic_m0",
    "gauss_legendre_nodes",
    "gauss_laguerre_scaled",
    "radial_nodes",
    "fsum_dot",
]


class QuadratureConvergenceError(RuntimeError):
    """A quadrature did not reach its target tolerance within budget."""


@dataclass(frozen=True)
class AtomicState:
    """Hydrogenic eigenstate labelled by quantum numbers (n, l, m)."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"require 0 <= l <= n-1, got n={self.n}, l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"require |m| <= l, got l={self.l}, m={self.m}")

    def __str__(self) -> str:
        return f"({self.n},{self.l},{self.m})"


#: Largest node count a QuadratureSpec accepts.  Node doubling builds the
#: angular rule at twice the count, and building it costs O(m^2) operations.
MAX_NODE_COUNT = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and tolerance for the numeric oracle's quadrature.

    radial_node_count is validated but not used: the oracle's radial integral
    is exact and takes no nodes.
    """

    radial_node_count: int = 200
    angular_node_count: int = 200
    target_abs_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        for count in (self.radial_node_count, self.angular_node_count):
            if not 2 <= count <= MAX_NODE_COUNT:
                raise ValueError(f"node counts must be in [2, {MAX_NODE_COUNT}], got {count}")
        if not 0 < self.target_abs_tolerance < math.inf:
            # nan or inf would switch the node-doubling check off
            raise ValueError("target_abs_tolerance must be finite and > 0")


def fsum_dot(weights: np.ndarray, values: np.ndarray) -> float:
    """Compensated (exactly rounded) dot product; deterministic reduction."""
    return math.fsum((weights * values).tolist())


def _float_or_array(x):
    """x as a Python float (scalar input) or a float ndarray, with the matching 1.

    The recurrences run on either unchanged; a scalar stays a Python float so a
    single value costs no numpy calls.
    """
    if np.isscalar(x):
        return float(x), 1.0
    x = np.asarray(x, dtype=float)
    return x, np.ones_like(x)


def laguerre(order: int, alpha: int, x):
    """Generalized Laguerre polynomial L_order^alpha(x), three-term recurrence.

    Accepts scalar or ndarray x; returns a float or an ndarray to match.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    x, prev = _float_or_array(x)
    if order == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, order):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def legendre(l: int, x):
    """Legendre polynomial P_l(x) by the stable three-term recurrence."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    x, prev = _float_or_array(x)
    if l == 0:
        return prev
    cur = x.copy() if isinstance(x, np.ndarray) else x
    for k in range(1, l):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur


def radial_norm_constant(n: int, l: int) -> float:
    """Prefactor making int R_{n,l}^2 r^2 dr = 1."""
    return math.sqrt(
        (2.0 / n) ** 3 * math.factorial(n - l - 1) / (2 * n * math.factorial(n + l))
    )


def radial_wavefunction(state: AtomicState, r):
    """R_{n,l}(r) in atomic units; r >= 0 in Bohr radii, result in a0^(-3/2)."""
    n, l = state.n, state.l
    x = np.asarray(r, dtype=float) * (2.0 / n)
    body = np.exp(-x / 2.0) * x**l * laguerre(n - l - 1, 2 * l + 1, x)
    out = radial_norm_constant(n, l) * body
    return float(out) if np.isscalar(r) else out


def spherical_harmonic_m0(l: int, theta):
    """Y_l^0(theta) = sqrt((2l+1)/4pi) P_l(cos theta); real convention."""
    ct = np.cos(theta)
    out = math.sqrt((2 * l + 1) / (4 * math.pi)) * legendre(l, ct)
    return float(out) if np.isscalar(theta) else out


@lru_cache(maxsize=32)
def _gauss_laguerre_scaled_cached(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Golub-Welsch nodes for weight e^{-x} (Math. Comp. 23, 221 (1969)): the
    # eigenvalues of the Jacobi matrix with diagonal 2k+1 and off-diagonal k;
    # eigvalsh reads only the lower triangle.
    k = np.arange(m, dtype=float)
    x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], -1))
    # Scaled Christoffel weights w_i * e^{x_i} = 1 / sum_k (L_k(x_i) e^{-x_i/2})^2.
    # The standard Laguerre polynomials are orthonormal for weight e^{-x}; the
    # e^{-x/2} scaling keeps the recurrence in range, with an extra log-space
    # renormalization so node counts of several hundred stay finite.
    logs = -x / 2.0
    q_prev = np.ones_like(x)
    q_cur = 1.0 - x
    tot = q_prev**2 + q_cur**2
    for kk in range(1, m - 1):
        q_next = ((2 * kk + 1 - x) * q_cur - kk * q_prev) / (kk + 1)
        tot = tot + q_next**2
        q_prev, q_cur = q_cur, q_next
        big = tot > 1e200
        if big.any():
            q_prev = np.where(big, q_prev * 1e-100, q_prev)
            q_cur = np.where(big, q_cur * 1e-100, q_cur)
            tot = np.where(big, tot * 1e-200, tot)
            logs = np.where(big, logs + 100.0 * math.log(10.0), logs)
    w = np.exp(-2.0 * logs - np.log(tot))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_laguerre_scaled(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i and scaled weights W_i with int_0^inf f(x) dx ~ sum W_i f(x_i).

    Exact for f = (polynomial of degree <= 2m-1) * e^{-x}; the weights already
    absorb e^{+x_i}, so the integrand is passed as-is (including its decay).
    """
    if m < 2:
        raise ValueError(f"unsupported node count {m}")
    return _gauss_laguerre_scaled_cached(m)


@lru_cache(maxsize=64)
def gauss_legendre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], ascending (read-only, cached per m).

    Newton's method on P_m(x) = 0 from Tricomi's asymptotic guesses
    x_k = (1 - 1/(8 m^2) + 1/(8 m^3)) cos(pi (4k - 1) / (4m + 2)), and the
    weights 2 / ((1 - x^2) P_m'(x)^2) at the converged nodes (Hale &
    Townsend, SIAM J. Sci. Comput. 35, A652 (2013)).  Only the x >= 0 half is
    computed; the x < 0 half is its mirror, so the rule is exactly symmetric.
    numpy's leggauss solves a dense eigenproblem, and its weights leave
    sum_i w_i P_2(x_i) = -5.3e-14 at m = 400; this rule leaves ~1e-16, with
    O(m^2) elementwise work and no matrix.
    """
    if m < 2:
        raise ValueError(f"unsupported node count {m}")
    k = np.arange(1, (m + 1) // 2 + 1)
    x = (1.0 - 1.0 / (8 * m**2) + 1.0 / (8 * m**3)) * np.cos(math.pi * (4 * k - 1) / (4 * m + 2))
    if m % 2:
        x[-1] = 0.0  # P_m is odd
    converged = False
    for _ in range(10):
        p_prev, p = np.ones_like(x), x
        for j in range(1, m):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        slope = m * (x * p - p_prev) / (x * x - 1.0)  # P_m'(x)
        if converged:
            break
        step = p / slope
        x = x - step
        converged = float(np.max(np.abs(step))) <= 1e-15
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope**2)
    odd = m % 2
    x = np.concatenate((-x[:len(x) - odd], x[::-1]))
    w = np.concatenate((w[:len(w) - odd], w[::-1]))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def radial_nodes(m: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-line nodes for integrands decaying like e^{-r/scale}.

    Substitution u = r/scale maps onto the e^{-u}-weighted scheme; returns
    (r_i, W_i) with int_0^inf g(r) dr ~ sum W_i g(r_i).
    """
    x, w = gauss_laguerre_scaled(m)
    return scale * x, scale * w
