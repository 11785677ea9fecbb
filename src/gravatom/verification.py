"""Self-verification suites and the magnitude-claims comparison report.

Each suite returns (rows, ok).  Rows are plain tuples ready for CSV/JSON
emission; `ok` is False when a gated check fails.  The claims suite is
informational only: the published magnitude claims under-specify their
inputs, so we document our assumptions and report ratios instead of gating.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.random import default_rng

from .distortion import (
    Strain,
    closed_form_coefficients,
    laguerre_shift_identity_check,
    overlap_numeric,
    theta_component,
    theta_fraction,
)
from .hydrogenics import (
    AtomicState,
    QuadratureSpec,
    gauss_laguerre_scaled,
    gauss_legendre_nodes,
    legendre,
    radial_wavefunction,
)
from .transitions import (
    DefectTable,
    make_transition,
    transition_detuning,
    wavelength_shift,
)

Row = tuple

#: Angular components as printed in the reference table, k = 0..3, even l.
#: The (3, 0) entry disagrees with its own defining integral (which gives
#: -9/35); it is kept as printed so the check reports the discrepancy
#: honestly instead of papering over it.
PRINTED_THETA_TABLE: dict[tuple[int, int], Fraction] = {
    (0, 0): Fraction(1),
    (0, 2): Fraction(0),
    (0, 4): Fraction(0),
    (0, 6): Fraction(0),
    (1, 0): Fraction(-1, 3),
    (1, 2): Fraction(4, 15),
    (1, 4): Fraction(0),
    (1, 6): Fraction(0),
    (2, 0): Fraction(7, 15),
    (2, 2): Fraction(-8, 105),
    (2, 4): Fraction(32, 315),
    (2, 6): Fraction(0),
    (3, 0): Fraction(-9, 15),
    (3, 2): Fraction(4, 21),
    (3, 4): Fraction(-32, 1155),
    (3, 6): Fraction(128, 3003),
}

THETA_TOLERANCE = 1e-12


def table1_report() -> tuple[list[Row], bool]:
    rows: list[Row] = []
    ok = True
    for (k, l), printed in sorted(PRINTED_THETA_TABLE.items()):
        computed = theta_component(k, l)
        err = abs(computed - float(printed))
        passed = err <= THETA_TOLERANCE
        ok = ok and passed
        note = "" if passed else f"defining integral evaluates to {theta_fraction(k, l)} exactly"
        rows.append(
            ("table1", f"theta_k{k}_l{l}", "pass" if passed else "fail",
             repr(computed), str(printed), repr(err), note)
        )
    return rows, ok


def radial_overlaps(
    n_max: int, l_max: int, nodes: int = 64
) -> dict[tuple[int, int, int], float]:
    """int R_{n,l} R_{n',l} r^2 dr for every l <= l_max and l < n <= n' <= n_max.

    Keyed (n, n', l) in l, n, n' order.  Each pair uses the exact transformed
    Laguerre rule at scale 1/(1/n + 1/n'), and each is reduced by its own
    exactly rounded fsum, so every value is bit-identical to the pair
    evaluated on its own.
    """
    u, w = gauss_laguerre_scaled(nodes)
    out: dict[tuple[int, int, int], float] = {}
    for l in range(min(l_max, n_max - 1) + 1):
        out.update(_radial_overlaps_at(l, n_max, u, w))
    return out


def _radial_overlaps_at(l: int, n_max: int, u: np.ndarray, w: np.ndarray) -> dict:
    """All pairs of one l on one (pairs x nodes) grid.

    R_{n,l} is evaluated once on the rows where n is the first factor and once
    where it is the second.
    """
    pairs = [(n, np_) for n in range(l + 1, n_max + 1) for np_ in range(n, n_max + 1)]
    first, second = np.array(pairs).T
    scale = np.array([1.0 / (1.0 / n + 1.0 / np_) for n, np_ in pairs])[:, None]
    r = scale * u
    left, right = np.empty_like(r), np.empty_like(r)
    for n in range(l + 1, n_max + 1):
        state = AtomicState(n, l)
        for factor, rows in ((left, first == n), (right, second == n)):
            factor[rows] = radial_wavefunction(state, r[rows])
    # w * ((R R') * r^2) as one pair computes it, in place: same bits, less memory
    products = left
    products *= right
    products *= r**2
    products *= scale * w
    return {(n, np_, l): math.fsum(row.tolist()) for (n, np_), row in zip(pairs, products)}


def spherical_overlaps(l_max: int, nodes: int = 64) -> dict[tuple[int, int], float]:
    """2 pi int Y_l^0 Y_l'^0 sin(theta) dtheta for every l <= l' <= l_max.

    Keyed (l, l') in l, l' order.  Each P_l is evaluated once on the
    Gauss-Legendre nodes; each pair is reduced by its own exactly rounded fsum.
    """
    x, w = gauss_legendre_nodes(nodes)
    p = np.array([legendre(l, x) for l in range(l_max + 1)])
    pairs = [(l, lp) for l in range(l_max + 1) for lp in range(l, l_max + 1)]
    first, second = np.array(pairs).T
    # w * (P_l P_l') as one pair computes it, in place
    products = p[first]
    products *= p[second]
    products *= w
    out: dict[tuple[int, int], float] = {}
    for (l, lp), row in zip(pairs, products):
        norm = math.sqrt((2 * l + 1) * (2 * lp + 1)) / (4.0 * math.pi)
        out[(l, lp)] = 2.0 * math.pi * norm * math.fsum(row.tolist())
    return out


def basis_report(
    n_max: int = 20, l_max: int = 5, y_l_max: int = 16, tol: float = 1e-10
) -> tuple[list[Row], bool]:
    rows: list[Row] = []
    worst_r = 0.0
    worst_r_at = ""
    for (n, np_, l), overlap in radial_overlaps(n_max, l_max).items():
        err = abs(overlap - (1.0 if n == np_ else 0.0))
        if err > worst_r:
            worst_r, worst_r_at = err, f"n={n};n'={np_};l={l}"
    ok_r = worst_r <= tol
    rows.append(("basis", "radial_orthonormality", "pass" if ok_r else "fail",
                 repr(worst_r), f"<= {tol!r}", worst_r_at, ""))
    worst_y = 0.0
    worst_y_at = ""
    for (l, lp), overlap in spherical_overlaps(y_l_max).items():
        err = abs(overlap - (1.0 if l == lp else 0.0))
        if err > worst_y:
            worst_y, worst_y_at = err, f"l={l};l'={lp}"
    ok_y = worst_y <= tol
    rows.append(("basis", "spherical_orthonormality", "pass" if ok_y else "fail",
                 repr(worst_y), f"<= {tol!r}", worst_y_at, ""))
    return rows, ok_r and ok_y


def identity_report(
    seed: int = 20260823, points: int = 100, rel_tol: float = 1e-8
) -> tuple[list[Row], bool]:
    """Laguerre argument-scaling identity on a randomized grid."""
    rng = default_rng(seed)
    worst = 0.0
    worst_at = ""
    for _ in range(points):
        n0 = int(rng.integers(1, 9))
        a = float(rng.uniform(0.95, 1.05))
        r = float(rng.uniform(0.0, 20.0))
        lhs, rhs = laguerre_shift_identity_check(n0, a, r, truncation_tol=1e-16)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        if rel > worst:
            worst, worst_at = rel, f"n0={n0};A={a:.6f};r={r:.6f}"
    ok = worst <= rel_tol
    return (
        [("identity", "laguerre_argument_scaling", "pass" if ok else "fail",
          repr(worst), f"<= {rel_tol!r}", worst_at, f"seed={seed};points={points}")],
        ok,
    )


#: Strains used for the linearity sweep; chosen where double precision
#: resolves the response cleanly.
LINEARITY_STRAINS = (1e-3, 1e-4, 1e-5)


def linearity_report(
    sources: tuple[int, ...] = (3, 5, 8),
    quad: QuadratureSpec = QuadratureSpec(),
    spread_tol: float = 0.01,
) -> tuple[list[Row], bool]:
    """Numeric-oracle linearity check plus the closed-form audit ratios."""
    rows: list[Row] = []
    ok = True
    for n0 in sources:
        source = AtomicState(n0, 0)
        target = AtomicState(n0, 2)
        slopes = [
            overlap_numeric(target, source, Strain(sp), quad) / sp
            for sp in LINEARITY_STRAINS
        ]
        spread = (max(slopes) - min(slopes)) / max(abs(s) for s in slopes)
        passed = spread <= spread_tol
        ok = ok and passed
        rows.append(
            ("linearity", f"oracle_slope_n0={n0}", "pass" if passed else "fail",
             repr(slopes[-1]), f"spread <= {spread_tol!r}", repr(spread),
             "slopes at s_p=" + ";".join(f"{s:g}" for s in LINEARITY_STRAINS))
        )
        closed = closed_form_coefficients(source, Strain(0.0)).c_plus2.value_at_unit_strain
        ratio = slopes[-1] / closed if closed else math.nan
        rows.append(
            ("linearity", f"oracle_vs_closed_form_ratio_n0={n0}", "report",
             repr(ratio), "reported, not gated", repr(closed),
             "approximation audit: oracle slope / printed first-order slope")
        )
    return rows, ok


#: Reference magnitudes the report compares against.  The published inputs
#: behind them (strain, angular momentum assignments) are not stated, so the
#: comparisons are order-of-magnitude context, never acceptance gates.
REFERENCE_CLAIMS = {
    "detuning_enhancement_factor": 1e5,
    "rabi_deviation_ratio": 1e4,
    "h110alpha_wavelength_shift_m": 5.6e-16,
}


def claims_report(strain_value: float = 1e-20) -> tuple[list[Row], bool]:
    rows: list[Row] = []
    strain = Strain(strain_value)
    hydrogen = DefectTable()

    t_low = make_transition(AtomicState(1, 0), AtomicState(2, 1), hydrogen)
    t_ryd = make_transition(AtomicState(50, 0), AtomicState(51, 1), hydrogen)
    d_low = transition_detuning(t_low, strain)
    d_ryd = transition_detuning(t_ryd, strain)
    enhancement = abs(d_ryd.slope) / abs(d_low.slope)
    rows.append(
        ("claims", "detuning_enhancement_50S51P_vs_1S2P_absolute", "report",
         repr(enhancement), repr(REFERENCE_CLAIMS["detuning_enhancement_factor"]),
         repr(enhancement / REFERENCE_CLAIMS["detuning_enhancement_factor"]),
         "hydrogenic energies; l=0 lower / l=1 upper; ratio of |detuning slopes|")
    )
    enhancement_frac = (abs(d_ryd.slope) / t_ryd.delta_e) / (abs(d_low.slope) / t_low.delta_e)
    rows.append(
        ("claims", "detuning_enhancement_50S51P_vs_1S2P_fractional", "report",
         repr(enhancement_frac), repr(REFERENCE_CLAIMS["detuning_enhancement_factor"]),
         repr(enhancement_frac / REFERENCE_CLAIMS["detuning_enhancement_factor"]),
         "ratio of fractional detunings delta/DeltaE; matches the claimed order "
         "of magnitude; the absolute-slope ratio does not")
    )

    # deviation scales as detuning^4 at fixed omega and N
    deviation_ratio = (d_ryd.slope / d_low.slope) ** 4
    rows.append(
        ("claims", "rabi_deviation_ratio_50S51P_vs_1S2P", "report",
         repr(deviation_ratio), repr(REFERENCE_CLAIMS["rabi_deviation_ratio"]),
         repr(deviation_ratio / REFERENCE_CLAIMS["rabi_deviation_ratio"]),
         "same drive and cycle count; completed-cycle deviation ratio = (slope ratio)^4")
    )

    t_h110 = make_transition(AtomicState(110, 0), AtomicState(111, 1), hydrogen)
    d_h110 = transition_detuning(t_h110, strain)
    shift = wavelength_shift(4.8e9, d_h110, strain)
    rows.append(
        ("claims", "h110alpha_wavelength_shift_m", "report",
         repr(shift), repr(REFERENCE_CLAIMS["h110alpha_wavelength_shift_m"]),
         repr(shift / REFERENCE_CLAIMS["h110alpha_wavelength_shift_m"]),
         f"nu=4.8 GHz; 110(l=0)->111(l=1); hydrogenic energies; s_p={strain_value:g}")
    )
    return rows, True


SUITES = {
    "table1": table1_report,
    "basis": basis_report,
    "identity": identity_report,
    "linearity": linearity_report,
    "claims": claims_report,
}

#: Suites whose failure is an error exit; `claims` is informational.
GATED_SUITES = ("table1", "basis", "identity", "linearity")
