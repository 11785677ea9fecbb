"""Checks of every command's output against perfbench.reference.

``check(command, result, text, refs)`` returns a list of (kind, message)
failures, empty when the output is right.  Kinds:

* ``traceback`` -- the command raised instead of exiting with a code;
* ``exit``      -- an exit code outside the documented set, or an error exit
  where a result was due;
* ``nonfinite`` -- nan or inf printed on exit 0;
* ``format``    -- the document does not parse, or rows are missing or extra;
* ``value``     -- a number differs from its independent value;
* ``property``  -- a required property (parity zero, Bessel, sign, N^2
  scaling, status) does not hold;
* ``reference`` -- a numeric-oracle entry differs from the mpmath overlap.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

from mpmath import mp, mpf

import reference as ref
from workloads import DELTA_N, L_MAX

#: Numeric oracle against reference_overlap (relative).
ORACLE_RTOL = 1e-8
#: numeric_direct_norm against the 1-D mpmath integral.
NORM_RTOL = 1e-11
#: Closed forms, detuning and unit conversions: a few double roundings.
FORMULA_RTOL = 1e-11
#: Series against its exact evaluation, and the Rabi deviation against mpmath.
SERIES_RTOL = 1e-9
RABI_RTOL = 1e-9
#: Spread of deviation / N^2 allowed in the short-time regime.  The inputs keep
#: h = N pi x^2 / 2 below 1e-3, where sin^2 h departs from h^2 by h^2 / 3.
SCALING_RTOL = 1e-6


class Doc:
    """A CSV document: schema, '# key: value' metadata and data rows."""

    def __init__(self, text: str):
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# schema: "):
            raise ValueError("no '# schema:' first line")
        self.schema = lines[0][len("# schema: "):].split(",")
        self.meta: dict[str, str] = {}
        for line in lines[1:]:
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                self.meta[key] = value
        self.rows: list[list[str]] = []
        #: rows whose field count differs from the schema's; left out of `rows`
        self.malformed: list[str] = []
        for row in csv.reader(line for line in lines[1:] if not line.startswith("# ")):
            if len(row) == len(self.schema):
                self.rows.append(row)
            else:
                self.malformed.append(",".join(row))

    def column(self, name: str) -> int:
        return self.schema.index(name)


def _rel(value: float, expected) -> float:
    with mp.workdps(30):
        expected = mpf(expected)
        if expected == 0:
            return abs(value)
        return float(abs((mpf(value) - expected) / expected))


def _close(failures, what: str, value: float, expected, rtol: float, kind: str = "value"):
    err = _rel(value, expected)
    if not err <= rtol:
        failures.append((kind, f"{what}: {value!r} vs {mp.nstr(mpf(expected), 17)} "
                               f"(rel {err:.2e} > {rtol:g})"))


def _nonfinite(doc: Doc) -> list[str]:
    bad = []
    for field in [*doc.meta.values(), *(f for row in doc.rows for f in row)]:
        try:
            if not math.isfinite(float(field)):
                bad.append(field)
        except ValueError:
            pass
    return bad


def check(command: dict, result: dict, text: str | None, refs: ref.References) -> list[tuple[str, str]]:
    """Failures of one command: its result (exit code, exception) and output text."""
    if result.get("exception"):
        return [("traceback", result["exception"].strip().splitlines()[-1])]
    code = result["code"]
    is_verify = command["kind"] == "verify"
    if code not in ((0, 1, 2, 3) if is_verify else (0, 2, 3)):
        return [("exit", f"exit code {code!r} is not documented for this command")]
    if code in (2, 3):
        # a documented error exit mends a CLI-contract fault; anywhere else
        # it is a missing result
        if command["fault"] in ("traceback", "nonfinite"):
            return []
        return [("exit", f"exit code {code} where a result was due")]
    if text is None:
        return [("format", "no output file")]
    try:
        doc = Doc(text)
    except ValueError as exc:
        return [("format", str(exc))]
    if code == 0:
        bad = _nonfinite(doc)
        if bad:
            return [("nonfinite", f"{len(bad)} non-finite values on exit 0, e.g. {bad[0]}")]
    failures: list[tuple[str, str]] = []
    if doc.malformed:
        failures.append(("format", f"{len(doc.malformed)} rows do not have the schema's "
                                   f"{len(doc.schema)} fields, e.g. {doc.malformed[0]!r}"))
    try:
        CHECKS[command["kind"]](doc, command["params"], code, refs, failures)
    except (ValueError, IndexError, KeyError) as exc:
        failures.append(("format", f"{type(exc).__name__}: {exc}"))
    return failures


# --- decompose --method numeric ------------------------------------------------------

def check_numeric(doc, p, code, refs, failures):
    if code != 0:
        failures.append(("exit", f"exit {code}"))
        return
    n0, l0, s = p["n"], p["l"], p["strain"]
    if doc.schema != ["method", "n", "l", "m", "coefficient"]:
        failures.append(("format", f"schema {doc.schema}"))
        return
    coeffs: dict[tuple[int, int], float] = {}
    for method, n, l, m, c in doc.rows:
        key = (int(n), int(l))
        if method != "numeric_oracle" or m != "0" or key in coeffs:
            failures.append(("format", f"unexpected row {method},{n},{l},{m}"))
        coeffs[key] = float(c)
    window = {
        (n, l)
        for n in range(max(1, n0 - DELTA_N), n0 + DELTA_N + 1)
        for l in range(min(L_MAX, n - 1) + 1)
    }
    if set(coeffs) != window:
        failures.append(("format", f"rows missing {sorted(window - set(coeffs))[:3]} "
                                   f"extra {sorted(set(coeffs) - window)[:3]}"))
        return
    for (n, l), c in coeffs.items():
        if (l + l0) % 2 and c != 0.0:
            failures.append(("property", f"odd-parity entry ({n},{l}) = {c!r}, not 0.0"))
    direct = float(doc.meta["numeric_direct_norm"])
    norm_sum = math.fsum(c * c for c in coeffs.values())
    if not norm_sum <= direct:
        failures.append(("property", f"Bessel: sum C^2 = {norm_sum!r} > direct norm {direct!r}"))
    _close(failures, "numeric_norm_sum", float(doc.meta["numeric_norm_sum"]), norm_sum, 1e-12)
    _close(failures, "numeric_direct_norm", direct, refs.direct_norm(l0, s), NORM_RTOL)
    for n, l in p["entries"]:
        _close(failures, f"C({n},{l})<-({n0},{l0}) at s_p={s!r}", coeffs[(n, l)],
               refs.overlap((n, l), (n0, l0), s), ORACLE_RTOL, kind="reference")


# --- verify --suite all --------------------------------------------------------------

def check_verify(doc, p, code, refs, failures):
    if doc.schema != ["suite", "check", "status", "value", "reference", "detail", "note"]:
        failures.append(("format", f"schema {doc.schema}"))
        return
    by_suite: dict[str, list[list[str]]] = {}
    for row in doc.rows:
        by_suite.setdefault(row[0], []).append(row)
    expected_fail = False

    def status(row, expected: str):
        if row[2] != expected:
            failures.append(("property", f"{row[0]}/{row[1]} status {row[2]}, expected {expected}"))

    table1 = by_suite.get("table1", [])
    if len(table1) != 16:
        failures.append(("format", f"{len(table1)} table1 rows, expected 16"))
    for row in table1:
        k, l = (int(part[1:]) for part in row[1][len("theta_"):].split("_"))
        exact = ref.theta_fraction(k, l)
        printed = Fraction(row[4])
        _close(failures, f"table1 theta_k{k}_l{l}", float(row[3]), ref.to_mpf(exact), 1e-12)
        ok = printed == exact
        expected_fail |= not ok
        status(row, "pass" if ok else "fail")

    basis = {row[1]: row for row in by_suite.get("basis", [])}
    identity = {row[1]: row for row in by_suite.get("identity", [])}
    for group, names, bound in (
        (basis, ("radial_orthonormality", "spherical_orthonormality"), 1e-10),
        (identity, ("laguerre_argument_scaling",), 1e-8),
    ):
        for name in names:
            row = group.get(name)
            if row is None:
                failures.append(("format", f"missing row {name}"))
                continue
            # exact identities: the expected status is pass
            if not float(row[3]) <= bound:
                failures.append(("property", f"{name} residual {row[3]} > {bound:g}"))
            status(row, "pass")

    linearity = {row[1]: row for row in by_suite.get("linearity", [])}
    for n0 in (3, 5, 8):
        row = linearity.get(f"oracle_slope_n0={n0}")
        ratio_row = linearity.get(f"oracle_vs_closed_form_ratio_n0={n0}")
        if row is None:
            failures.append(("format", f"missing row oracle_slope_n0={n0}"))
            continue
        strains = [float(x) for x in row[6][len("slopes at s_p="):].split(";")]
        slopes = [refs.overlap((n0, 2), (n0, 0), s) / mpf(s) for s in strains]
        spread = (max(slopes) - min(slopes)) / max(abs(x) for x in slopes)
        ok = spread <= 0.01
        expected_fail |= not ok
        status(row, "pass" if ok else "fail")
        _close(failures, f"oracle slope n0={n0}", float(row[3]), slopes[-1], ORACLE_RTOL,
               kind="reference")
        if ratio_row is None:
            failures.append(("format", f"missing row oracle_vs_closed_form_ratio_n0={n0}"))
            continue
        printed = ref.closed_form_slopes(n0, 0)[1]
        status(ratio_row, "report")
        _close(failures, f"printed C+2 slope n0={n0}", float(ratio_row[5]), printed, FORMULA_RTOL)
        _close(failures, f"oracle/closed ratio n0={n0}", float(ratio_row[3]),
               slopes[-1] / printed, ORACLE_RTOL, kind="reference")

    claims = {row[1]: row for row in by_suite.get("claims", [])}
    low = ref.detuning_slope((1, 0), (2, 1), "hydrogen")
    ryd = ref.detuning_slope((50, 0), (51, 1), "hydrogen")
    h110 = ref.detuning_slope((110, 0), (111, 1), "hydrogen")

    def delta_e(lower, upper):
        return ref.level_energy(*upper, "hydrogen") - ref.level_energy(*lower, "hydrogen")

    nu = Fraction("4.8e9")
    expected_claims = {
        "detuning_enhancement_50S51P_vs_1S2P_absolute": abs(ryd) / abs(low),
        "detuning_enhancement_50S51P_vs_1S2P_fractional":
            (abs(ryd) / delta_e((50, 0), (51, 1))) / (abs(low) / delta_e((1, 0), (2, 1))),
        "rabi_deviation_ratio_50S51P_vs_1S2P": (ryd / low) ** 4,
        "h110alpha_wavelength_shift_m":
            ref.SPEED_OF_LIGHT_M_S / nu**2 * h110 * Fraction(1e-20) * ref.HARTREE_HZ,
    }
    for name, value in expected_claims.items():
        row = claims.get(name)
        if row is None:
            failures.append(("format", f"missing claims row {name}"))
            continue
        status(row, "report")
        _close(failures, f"claims {name}", float(row[3]), ref.to_mpf(value), FORMULA_RTOL)

    suites = ",".join(("table1", "basis", "identity", "linearity", "claims"))
    if doc.meta.get("suites") != suites:
        failures.append(("format", f"suites {doc.meta.get('suites')!r}"))
    want_code, want_status = (1, "fail") if expected_fail else (0, "pass")
    if code != want_code or doc.meta.get("status") != want_status:
        failures.append(("property", f"exit {code} status {doc.meta.get('status')}, "
                                     f"expected exit {want_code} status {want_status}"))


# --- decompose --method series / closed-form -----------------------------------------

def check_series(doc, p, code, refs, failures):
    if code != 0:
        failures.append(("exit", f"exit {code}"))
        return
    n0, s, k_max = p["n"], p["strain"], p["k_max"]
    got = {}
    for method, n, l, m, c in doc.rows:
        if method != "paper_series" or int(n) != n0 or m != "0":
            failures.append(("format", f"unexpected row {method},{n},{l},{m}"))
        got[int(l)] = float(c)
    expected_l = list(range(0, min(2 * k_max, n0 - 1) + 1, 2))
    if sorted(got) != expected_l:
        failures.append(("format", f"series rows l={sorted(got)}, expected {expected_l}"))
        return
    for l, c in got.items():
        _close(failures, f"series ({n0},{l}) k_max={k_max}", c,
               ref.series_coefficient(n0, l, s, k_max), SERIES_RTOL)
    if k_max == 1:
        c0, cp, _ = ref.closed_form_slopes(n0, 0)
        _close(failures, f"series k_max=1 C0 vs printed slope n0={n0}", got[0], 1 + c0 * mpf(s),
               SERIES_RTOL)
        if 2 in got:
            _close(failures, f"series k_max=1 C+2 vs printed slope n0={n0}", got[2],
                   cp * mpf(s), SERIES_RTOL)
    if int(doc.meta["series_k_max"]) != k_max:
        failures.append(("format", f"series_k_max {doc.meta['series_k_max']}"))
    _close(failures, "series_norm_sum", float(doc.meta["series_norm_sum"]),
           math.fsum(c * c for c in got.values()), 1e-12)


def check_closed_form(doc, p, code, refs, failures):
    if code != 0:
        failures.append(("exit", f"exit {code}"))
        return
    n0, l0, s = p["n"], p["l"], p["strain"]
    c0, cp, cm = ref.closed_form_slopes(n0, l0)
    sp = mpf(s)
    expected = [(l0 - 2, cm * sp), (l0, 1 + c0 * sp), (l0 + 2, cp * sp)]
    if len(doc.rows) != 3:
        failures.append(("format", f"{len(doc.rows)} closed-form rows, expected 3"))
        return
    for row, (l, value) in zip(doc.rows, expected):
        if row[:4] != ["closed-form", str(n0), str(l), "0"]:
            failures.append(("format", f"unexpected row {','.join(row[:4])}"))
            continue
        got = float(row[4])
        if value == 0:
            if got != 0.0:
                failures.append(("property", f"out-of-basis ({n0},{l}) = {got!r}, not 0.0"))
        else:
            _close(failures, f"closed form ({n0},{l})<-({n0},{l0})", got, value, FORMULA_RTOL)


# --- detuning, rabi, figure2 ---------------------------------------------------------

def _detuning_rad_s(p) -> Fraction:
    slope = ref.detuning_slope(tuple(p["lower"]), tuple(p["upper"]), p["species"])
    return slope * Fraction(p["strain"]) * ref.HARTREE_RAD_S


def check_detuning(doc, p, code, refs, failures):
    lower, upper, species = tuple(p["lower"]), tuple(p["upper"]), p["species"]
    if len(doc.rows) != 1:
        failures.append(("format", f"{len(doc.rows)} detuning rows, expected 1"))
        return
    row = dict(zip(doc.schema, doc.rows[0]))
    e1, e2 = ref.level_energy(*lower, species), ref.level_energy(*upper, species)
    slope = ref.detuning_slope(lower, upper, species)
    strain = Fraction(p["strain"])
    expected = {
        "lower_energy_hartree": e1,
        "upper_energy_hartree": e2,
        "delta_e_hartree": e2 - e1,
        "lower_shift_slope": ref.shift_slope(*lower, species),
        "upper_shift_slope": ref.shift_slope(*upper, species),
        "detuning_slope_hartree": slope,
        "detuning_hartree": slope * strain,
        "detuning_rad_s": slope * strain * ref.HARTREE_RAD_S,
    }
    for name, value in expected.items():
        _close(failures, f"detuning {name}", float(row[name]), ref.to_mpf(value), FORMULA_RTOL)
    reference = ref.detuning_slope((1, 0), (2, 1), "hydrogen")
    ref_delta_e = ref.level_energy(2, 1, "hydrogen") - ref.level_energy(1, 0, "hydrogen")
    enhancement = (abs(slope) / (e2 - e1)) / (abs(reference) / ref_delta_e)
    _close(failures, "fractional_enhancement_vs_1s2p",
           float(doc.meta["fractional_enhancement_vs_1s2p"]), ref.to_mpf(enhancement), FORMULA_RTOL)


def _check_cycle_rows(doc, p, failures, cycles: list[int], deviations: list[float]):
    """Sign, N^2 scaling and sampled mpmath values of completed-cycle deviations."""
    omega = 2 * mp.pi * mpf(p["khz"]) * 1000
    detuning = ref.to_mpf(_detuning_rad_s(p))
    _close(failures, "metadata detuning_rad_s", float(doc.meta["detuning_rad_s"]), detuning,
           FORMULA_RTOL)
    positive = [n for n, d in zip(cycles, deviations) if not d <= 0.0]
    if positive:
        failures.append(("property", f"deviation > 0 at {len(positive)} completed cycles, "
                                     f"first N={positive[0]}"))
    regime = doc.column("regime")
    base = deviations[0] / cycles[0] ** 2
    for row, n, d in zip(doc.rows, cycles, deviations):
        if row[regime] == "short_time" and not abs(d / n**2 - base) <= SCALING_RTOL * abs(base):
            failures.append(("property", f"deviation/N^2 at N={n} is {d / n**2!r}, "
                                         f"{base!r} at N={cycles[0]}"))
            break
    rng = random.Random(p["sample_seed"])
    for i in sorted({0, len(cycles) - 1, *rng.sample(range(len(cycles)), min(2, len(cycles)))}):
        _close(failures, f"deviation_exact at N={cycles[i]}", deviations[i],
               ref.deviation_at_cycles(omega, detuning, cycles[i]), RABI_RTOL)


def check_rabi(doc, p, code, refs, failures):
    n_max = p["cycles"]
    col = doc.column
    cycles = [int(row[col("cycles")]) for row in doc.rows]
    if not cycles or cycles[0] != 1 or cycles[-1] != n_max or any(
            b <= a for a, b in zip(cycles, cycles[1:])):
        failures.append(("format", f"cycle samples {cycles[:3]}...{cycles[-2:]} do not "
                                   f"rise strictly from 1 to {n_max}"))
        return
    if len(cycles) > 200 or (n_max <= 200 and len(cycles) != n_max):
        failures.append(("format", f"{len(cycles)} cycle samples for --cycles {n_max}"))
    for row, n in zip(doc.rows, cycles):
        t = float(row[col("time_s")])
        if _rel(t, mpf(n) / (mpf(p["khz"]) * 1000)) > 1e-12:  # t = 2 pi N / omega
            failures.append(("value", f"time_s {t!r} at N={n}"))
            break
        if not 0.0 <= float(row[col("excited_probability")]) <= 1.0:
            failures.append(("property", f"excited_probability outside [0, 1] at N={n}"))
            break
    deviations = [float(row[col("deviation_exact")]) for row in doc.rows]
    _check_cycle_rows(doc, p, failures, cycles, deviations)


def check_figure2(doc, p, code, refs, failures):
    n_max = p["cycles"]
    col = doc.column
    cycles = [int(row[col("cycles")]) for row in doc.rows]
    if cycles != list(range(1, n_max + 1)):
        failures.append(("format", f"{len(cycles)} rows, expected one per cycle 1..{n_max}"))
        return
    deviations = [float(row[col("deviation_exact")]) for row in doc.rows]
    _check_cycle_rows(doc, p, failures, cycles, deviations)


def check_contract(doc, p, code, refs, failures):
    """Kept CLI-contract operations: exit code, traceback and finiteness only."""


CHECKS = {
    "numeric": check_numeric,
    "verify": check_verify,
    "series": check_series,
    "closed_form": check_closed_form,
    "detuning": check_detuning,
    "rabi": check_rabi,
    "figure2": check_figure2,
    "contract": check_contract,
}
