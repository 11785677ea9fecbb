"""Batch command-line interface.

Subcommands: decompose, detuning, rabi, figure2, verify.  Output is CSV
(default) or JSON; every document starts with a ``# schema:`` line (CSV) or a
``schema`` key (JSON), floats are serialized with ``repr`` so they round-trip
bit-exactly, and reruns with identical inputs produce byte-identical output
unless ``--stamp`` is given.  CSV rows are written as they are computed, so
``figure2`` runs in memory that does not grow with ``--cycles``; JSON output
holds every row before it is written.  A run that fails writes nothing: every
error is raised before the output is opened.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import __version__, constants
from .config import load_defect_table, parse_frequency, parse_state_token, state_token
from .distortion import (
    SpectralDecomposition,
    Strain,
    closed_form_coefficients,
    numeric_decomposition,
    series_decomposition,
)
from .hydrogenics import AtomicState, QuadratureConvergenceError, QuadratureSpec
from .rabi import (
    RabiConfig,
    deviation_exact,
    deviation_exact_at_cycles,
    deviation_short_time,
    deviation_small_detuning,
    excited_probability,
    figure2_config,
    figure2_rows,
)
from .transitions import (
    DefectTable,
    make_transition,
    shifted_energy,
    transition_detuning,
    wavelength_shift,
)
from .verification import GATED_SUITES, SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(value) -> str:
    """_fmt, quoted the way csv.writer quotes (QUOTE_MINIMAL).

    A field holding a comma, a quote or a line break (\\n or \\r) is wrapped
    in quotes with inner quotes doubled, so every row keeps the schema's
    width.  Floats never need it; joining by hand keeps 1e5-row output about
    twice as fast as csv.writer.
    """
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


#: A command's columns: (name, spec) pairs.  The spec is the column's field
#: in the CSV row template: "%r" for numbers (repr, so floats round-trip),
#: "%d" for columns whose every value is an int, "%s" for text, which is
#: quoted as _csv_field quotes it.
Columns = Sequence[tuple[str, str]]

#: Rows formatted at a time; one chunk is all a streamed document holds.
_CSV_CHUNK_ROWS = 1024


def _csv_lines(specs: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """CSV text of `rows`, one chunk of rows at a time: byte for byte the
    _csv_field of every field joined by commas, one line per row."""
    template = ",".join(specs) + "\n"
    text = [i for i, spec in enumerate(specs) if spec == "%s"]
    rows = iter(rows)
    while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
        out = "".join(map(template.__mod__, chunk))
        # numbers print no comma, quote or line break, so unless a text field
        # holds one, the chunk's only ones are its separators and line ends
        if text and (
            out.count(",") != len(chunk) * (len(specs) - 1)
            or out.count("\n") != len(chunk)
            or '"' in out
            or "\r" in out
        ):
            out = "".join(
                template % tuple(_csv_field(v) if i in text else v for i, v in enumerate(row))
                for row in chunk
            )
        yield out


def _emit(args, columns: Columns, metadata: dict, rows: Iterable[Sequence]) -> None:
    """Write a document.  CSV rows are written as `rows` yields them, a chunk
    at a time, so a generator's rows are never all held; JSON collects them."""
    schema = [name for name, _ in columns]
    metadata = dict(metadata)
    if args.stamp:
        metadata["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        # every value is serialized exactly as in the CSV so the two formats
        # mirror each other byte-for-byte at the field level
        doc = {
            "schema": schema,
            "metadata": {k: _fmt(v) for k, v in metadata.items()},
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        header, lines = json.dumps(doc, indent=2) + "\n", ()
    else:
        header = "".join([
            "# schema: " + ",".join(schema) + "\n",
            *(f"# {k}: {_fmt(v)}\n" for k, v in metadata.items()),
        ])
        lines = _csv_lines([spec for _, spec in columns], rows)
    with nullcontext(sys.stdout) if args.output == "-" else open(args.output, "w") as fh:
        fh.write(header)
        fh.writelines(lines)


def _quad_from_args(args) -> QuadratureSpec:
    return QuadratureSpec(
        radial_node_count=args.radial_nodes,
        angular_node_count=args.angular_nodes,
        target_abs_tolerance=args.tol,
    )


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", metavar="PATH", help="output file, '-' for stdout")
    p.add_argument(
        "--stamp", action="store_true",
        help="include a generation timestamp (breaks byte-identical reruns)",
    )


def _add_quadrature_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radial-nodes", type=int, default=200)
    p.add_argument("--angular-nodes", type=int, default=200)
    p.add_argument(
        "--tol", type=_positive_float, default=1e-10, help="absolute quadrature tolerance"
    )


def _add_species_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--species", default="hydrogen")
    p.add_argument("--defects", default=None, metavar="FILE", help="species config file")


def _decomposition_rows(dec: SpectralDecomposition) -> list[tuple]:
    return [
        (dec.method.value, state.n, state.l, state.m, coeff)
        for state, coeff in dec.entries
    ]


_DECOMPOSE_COLUMNS = (
    ("method", "%s"), ("n", "%d"), ("l", "%d"), ("m", "%d"), ("coefficient", "%r"),
)


def cmd_decompose(args) -> int:
    source = AtomicState(args.n, args.l)
    strain = Strain(args.strain)
    quad = _quad_from_args(args)
    methods = (
        ("closed-form", "series", "numeric") if args.method == "all" else (args.method,)
    )
    if "numeric" in methods:
        for option, value in (("--delta-n", args.delta_n), ("--l-max", args.l_max)):
            if value < 0:
                raise ValueError(f"{option} must be >= 0, got {value}")
    rows: list[tuple] = []
    metadata: dict = {
        "command": "decompose",
        "version": __version__,
        "source": str(source),
        "strain": args.strain,
        "tolerance": quad.target_abs_tolerance,
    }
    for method in methods:
        if method == "numeric":
            dec = numeric_decomposition(
                source, strain, quad, delta_n=args.delta_n, l_max=args.l_max
            )
            metadata["numeric_direct_norm"] = dec.direct_norm
            metadata["numeric_norm_sum"] = dec.norm_sum
            rows.extend(_decomposition_rows(dec))
        elif method == "series":
            dec = series_decomposition(source, strain, k_max=args.k_max)
            metadata["series_k_max"] = dec.k_max
            metadata["series_norm_sum"] = dec.norm_sum
            rows.extend(_decomposition_rows(dec))
        else:
            # three rows (C-2, C0, C+2); out-of-basis targets are reported
            # with their nominal l and an exactly zero coefficient.  At zero
            # strain the map is the identity and only the source row remains.
            coeffs = closed_form_coefficients(source, strain)
            sp = strain.s_p
            if sp == 0.0:
                rows.append(("closed-form", source.n, source.l, 0, coeffs.c0.at(sp)))
            else:
                rows.extend([
                    ("closed-form", source.n, source.l - 2, 0, coeffs.c_minus2.at(sp)),
                    ("closed-form", source.n, source.l, 0, coeffs.c0.at(sp)),
                    ("closed-form", source.n, source.l + 2, 0, coeffs.c_plus2.at(sp)),
                ])
    _emit(args, _DECOMPOSE_COLUMNS, metadata, rows)
    return EXIT_OK


def cmd_detuning(args) -> int:
    defects = load_defect_table(args.species, args.defects)
    lower = parse_state_token(args.lower)
    upper = parse_state_token(args.upper)
    strain = Strain(args.strain)
    transition = make_transition(lower, upper, defects)
    det = transition_detuning(transition, strain)
    lower_shift = shifted_energy(lower, strain, defects)
    upper_shift = shifted_energy(upper, strain, defects)
    columns = (
        ("lower", "%s"), ("upper", "%s"), ("species", "%s"), ("strain", "%r"),
        *((name, "%r") for name in (
            "lower_energy_hartree", "upper_energy_hartree", "delta_e_hartree",
            "lower_shift_slope", "upper_shift_slope",
            "detuning_slope_hartree", "detuning_hartree", "detuning_rad_s",
            "lower_kappa", "upper_kappa",
        )),
    )
    row = (
        state_token(lower), state_token(upper), args.species, args.strain,
        transition.lower_energy, transition.upper_energy, transition.delta_e,
        det.per_level_shift_slopes[0], det.per_level_shift_slopes[1],
        det.slope, det.at_strain,
        constants.hartree_to_rad_per_s(det.at_strain),
        lower_shift.kappa, upper_shift.kappa,
    )
    metadata = {"command": "detuning", "version": __version__}
    # comparison against the claimed 1e5 enhancement over the hydrogen 1S-2P
    # reference, using fractional detunings delta/DeltaE
    reference = make_transition(AtomicState(1, 0), AtomicState(2, 1), DefectTable())
    ref_slope = transition_detuning(reference, strain).slope
    enhancement = (abs(det.slope) / transition.delta_e) / (abs(ref_slope) / reference.delta_e)
    metadata["fractional_enhancement_vs_1s2p"] = enhancement
    metadata["claim_reference"] = 1e5
    metadata["claim_ratio"] = enhancement / 1e5
    rows = [row]
    if args.frequency is not None:
        metadata["reference_frequency_hz"] = args.frequency
        metadata["wavelength_shift_m"] = wavelength_shift(args.frequency, det, strain)
    _emit(args, columns, metadata, rows)
    return EXIT_OK


def _rabi_config(args) -> tuple[RabiConfig, dict]:
    omega = parse_frequency(args.omega)
    metadata: dict = {"omega_rad_s": omega}
    if args.detuning_rad_s is not None:
        detuning = args.detuning_rad_s
        metadata["detuning_rad_s"] = detuning
    else:
        if args.detuning_from is None:
            raise ValueError("provide either --detuning-rad-s or --detuning-from LOWER:UPPER")
        lower_token, sep, upper_token = args.detuning_from.partition(":")
        if not sep:
            raise ValueError(
                f"malformed --detuning-from {args.detuning_from!r}; expected e.g. '50s:51p'"
            )
        defects = load_defect_table(args.species, args.defects)
        transition = make_transition(
            parse_state_token(lower_token), parse_state_token(upper_token), defects
        )
        det = transition_detuning(transition, Strain(args.strain))
        detuning = constants.hartree_to_rad_per_s(det.at_strain)
        metadata.update(
            lower=str(transition.lower),
            upper=str(transition.upper),
            species=args.species,
            strain=args.strain,
            detuning_slope_hartree=det.slope,
            detuning_rad_s=detuning,
        )
    return RabiConfig(omega=omega, detuning=detuning), metadata


def _cycle_samples(n_max: int, max_points: int = 200) -> list[int]:
    """Integer cycle counts, log-spaced from 1 to n_max, deduplicated."""
    if n_max <= max_points:
        return list(range(1, n_max + 1))
    samples = {
        int(round(math.exp(math.log(n_max) * i / (max_points - 1))))
        for i in range(max_points)
    }
    return sorted(samples)


@contextmanager
def _overflow_names(option: str, value: float):
    """Re-raise an OverflowError with the option and value it came from."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(f"{option} {value!r} overflows: {_error_text(exc)}") from None


def cmd_rabi(args) -> int:
    cfg, metadata = _rabi_config(args)
    metadata = {"command": "rabi", "version": __version__, **metadata}
    # cycles is a float for --time rows and an int for --cycles rows
    columns = (
        ("cycles", "%r"), ("time_s", "%r"), ("excited_probability", "%r"),
        ("deviation_exact", "%r"), ("deviation_small_detuning", "%r"),
        ("deviation_short_time", "%r"), ("regime", "%s"),
    )
    rows: list[tuple] = []
    for t in args.time or ():
        with _overflow_names("--time", t):
            rows.append((
                t * cfg.omega / (2.0 * math.pi), t,
                excited_probability(cfg, t),
                deviation_exact(cfg, t),
                deviation_small_detuning(cfg, t),
                deviation_short_time(cfg, t),
                cfg.regime(t).value,
            ))
    if args.cycles is not None:
        n_max = int(args.cycles)
        if n_max < 0:
            raise ValueError(f"--cycles must be >= 0, got {args.cycles:g}")
        metadata["cycle_samples"] = "log-spaced" if n_max > 200 else "dense"
        with _overflow_names("--cycles", args.cycles):
            for n in _cycle_samples(n_max):
                t = 2.0 * math.pi * n / cfg.omega
                rows.append((
                    n, t,
                    excited_probability(cfg, t),
                    deviation_exact_at_cycles(cfg, n),
                    deviation_small_detuning(cfg, t),
                    deviation_short_time(cfg, t),
                    cfg.regime(t).value,
                ))
    if not rows and args.cycles is None:
        raise ValueError("provide at least one --time or a --cycles count")
    _emit(args, columns, metadata, rows)
    return EXIT_OK


_FIGURE2_COLUMNS = (
    ("cycles", "%d"), ("time_s", "%r"), ("deviation_at_cycles", "%r"),
    ("deviation_exact", "%r"), ("deviation_small_detuning", "%r"),
    ("deviation_short_time", "%r"), ("regime", "%s"),
)


def _named_figure2_rows(args, cfg: RabiConfig):
    """figure2_rows, with an overflow named after its input: --cycles when a
    single cycle is in range, else --omega at the given --strain."""
    try:
        return figure2_rows(cfg, args.cycles)
    except (OverflowError, ValueError) as exc:
        # figure2_rows raises ValueError only for math domain errors here:
        # the cycle count is checked first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                figure2_rows(cfg, 1)
            except (OverflowError, ValueError):
                option = f"--omega {args.omega!r} at --strain {args.strain!r}"
            else:
                option = f"--cycles {args.cycles!r}"
        raise OverflowError(f"{option} overflows: {_error_text(exc)}") from None


def cmd_figure2(args) -> int:
    defects = load_defect_table(args.species, args.defects)
    transition = make_transition(
        parse_state_token(args.lower), parse_state_token(args.upper), defects
    )
    strain = Strain(args.strain)
    omega = parse_frequency(args.omega)
    if args.cycles < 0:
        raise ValueError(f"--cycles must be >= 0, got {args.cycles}")
    cfg, series_metadata = figure2_config(transition, strain, omega)
    metadata = {"command": "figure2", "version": __version__, "species": args.species}
    metadata.update(series_metadata)
    # every error is raised here, before the output is opened
    rows = _named_figure2_rows(args, cfg)
    _emit(args, _FIGURE2_COLUMNS, metadata, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    rows: list[tuple] = []
    gate_failed = False
    for name in suites:
        suite_rows, ok = SUITES[name]()
        rows.extend(suite_rows)
        if name in GATED_SUITES and not ok:
            gate_failed = True
    metadata = {
        "command": "verify",
        "version": __version__,
        "suites": ",".join(suites),
        "status": "fail" if gate_failed else "pass",
    }
    columns = tuple((name, "%s") for name in (
        "suite", "check", "status", "value", "reference", "detail", "note"))
    _emit(args, columns, metadata, rows)
    return EXIT_VERIFY_FAILED if gate_failed else EXIT_OK


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes exponent-form negatives such as -2e-3 as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (before Python 3.13) has no exponent, so it
        # read "--strain -2e-3" as two option names
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="gravatom",
        description="Hydrogen-like atoms under a weak gravitational-wave strain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="spectral decomposition of the distorted state")
    p.add_argument("--n", type=int, required=True, help="source principal quantum number")
    p.add_argument("--l", type=int, required=True, help="source azimuthal quantum number")
    p.add_argument("--strain", type=_finite_float, required=True)
    p.add_argument(
        "--method", choices=("numeric", "series", "closed-form", "all"),
        default="closed-form",
    )
    p.add_argument("--k-max", type=int, default=3, help="series truncation order")
    p.add_argument("--delta-n", type=int, default=4, help="numeric n window half-width")
    p.add_argument("--l-max", type=int, default=10, help="numeric l cutoff")
    _add_quadrature_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("detuning", help="strain-induced transition detuning")
    p.add_argument("--lower", required=True, help="lower state token, e.g. 50s")
    p.add_argument("--upper", required=True, help="upper state token, e.g. 51p")
    p.add_argument("--strain", type=_finite_float, required=True)
    p.add_argument(
        "--frequency", type=_finite_float, default=None, metavar="HZ",
        help="also report the wavelength shift at this transition frequency",
    )
    _add_species_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_detuning)

    p = sub.add_parser("rabi", help="Rabi deviation at explicit times or cycle counts")
    p.add_argument("--omega", required=True, help="Rabi frequency, e.g. 47kHz or 2.9e5rad/s")
    p.add_argument("--detuning-rad-s", type=_finite_float, default=None)
    p.add_argument(
        "--detuning-from", default=None, metavar="LOWER:UPPER",
        help="derive the detuning from a strained transition, e.g. 50s:51p",
    )
    p.add_argument("--strain", type=_finite_float, default=0.0)
    p.add_argument("--time", type=_finite_float, action="append", metavar="SECONDS")
    p.add_argument(
        "--cycles", type=_finite_float, default=None, metavar="N",
        help="emit a deviation series up to N completed cycles (log-sampled above 200)",
    )
    _add_species_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_rabi)

    p = sub.add_parser("figure2", help="deviation-vs-completed-cycles curves")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper", required=True)
    p.add_argument("--strain", type=_finite_float, required=True)
    p.add_argument("--omega", required=True, help="Rabi frequency, e.g. 47kHz")
    p.add_argument("--cycles", type=int, required=True, help="number of completed cycles")
    _add_species_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument(
        "--suite", choices=(*SUITES, "all"), default="all"
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _error_text(exc: Exception) -> str:
    """An error's message: str() quotes a KeyError's, and float ** raises
    OverflowError(errno, strerror), whose text is the second argument."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    if isinstance(exc, OverflowError) and len(exc.args) == 2:
        return str(exc.args[1])
    return str(exc)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuadratureConvergenceError as exc:
        print(f"gravatom: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OverflowError, KeyError, FileNotFoundError) as exc:
        print(f"gravatom: {_error_text(exc)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
