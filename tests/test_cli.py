import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gravatom
from gravatom.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _csv_field,
    _csv_lines,
    main,
)
from gravatom.config import load_defect_table, parse_frequency, parse_state_token
from gravatom.constants import hartree_to_rad_per_s
from gravatom import distortion
from gravatom.distortion import Strain
from gravatom.rabi import (
    RabiConfig,
    deviation_at_cycles,
    deviation_exact_at_cycles,
    deviation_short_time,
    deviation_small_detuning,
)
from gravatom.transitions import make_transition, transition_detuning


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


class TestOutputContract:
    def test_schema_first_line(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "3", "--l", "0", "--strain", "1e-3")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("# schema: ")

    def test_byte_identical_reruns(self, capsys):
        argv = ("figure2", "--lower", "50s", "--upper", "51p",
                "--strain", "1e-20", "--omega", "47kHz", "--cycles", "20")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_stamp_adds_timestamp_only_in_header(self, capsys):
        argv = ("detuning", "--lower", "1s", "--upper", "2p", "--strain", "1e-20")
        _, plain, _ = run(capsys, *argv)
        _, stamped, _ = run(capsys, *argv, "--stamp")
        assert "generated_at" not in plain
        assert "# generated_at: " in stamped
        # data section identical
        assert data_rows(plain) == data_rows(stamped)

    def test_json_mirror(self, capsys):
        argv = ("detuning", "--lower", "1s", "--upper", "2p", "--strain", "1e-20")
        _, csv_out, _ = run(capsys, *argv)
        code, json_out, _ = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(json_out)
        schema_line = csv_out.splitlines()[0]
        assert doc["schema"] == schema_line[len("# schema: "):].split(",")
        assert doc["rows"] == data_rows(csv_out)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "detuning", "--lower", "1s", "--upper", "2p",
            "--strain", "1e-20", "--output", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("# schema: ")

    def test_floats_roundtrip(self, capsys):
        _, out, _ = run(capsys, "detuning", "--lower", "1s", "--upper", "2p",
                        "--strain", "1e-20")
        row = data_rows(out)[0]
        slope = float(row[9])
        assert repr(slope) == row[9]
        assert slope == pytest.approx(88.0 / 15.0, rel=1e-15)

    def test_verify_rows_have_schema_width(self, capsys):
        # the linearity report rows carry a field with a comma in it
        _, out, _ = run(capsys, "verify", "--suite", "all")
        lines = out.splitlines()
        width = len(lines[0][len("# schema: "):].split(","))
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert width == 7 and len(rows) > 16
        assert [len(row) for row in rows] == [width] * len(rows)
        assert "reported, not gated" in {field for row in rows for field in row}

    @pytest.mark.parametrize("special", ["", "a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_streamed_rows_are_csv_field_joined(self, special):
        # three chunks of rows; one text field in the second needs quoting
        rows = [("plain", k, 0.1 * k, special if k == 1500 else "t") for k in range(2500)]
        expected = "".join(",".join(_csv_field(v) for v in row) + "\n" for row in rows)
        assert "".join(_csv_lines(["%s", "%d", "%r", "%s"], rows)) == expected

    @pytest.mark.parametrize("row", [
        ("plain", 3, 0.1, -2.5e-300),
        ("reported, not gated", 'say "hi"', "two\nlines", ""),
    ])
    def test_csv_field_quotes_as_csv_writer(self, row):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerow(row)
        assert ",".join(_csv_field(v) for v in row) + "\n" == expected.getvalue()


class TestDecompose:
    def test_closed_form_three_rows(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "3", "--l", "0",
                           "--strain", "1e-3", "--method", "closed-form")
        assert code == EXIT_OK
        rows = data_rows(out)
        assert len(rows) == 3
        by_l = {int(r[2]): float(r[4]) for r in rows}
        assert by_l[-2] == 0.0
        assert by_l[0] == pytest.approx(1.0 - 1e-3 * 64.0 / 3.0, rel=1e-12)
        assert by_l[2] == pytest.approx(6.033977866125207e-4, rel=1e-12)

    def test_zero_strain_single_row(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "1", "--l", "0", "--strain", "0")
        assert code == EXIT_OK
        rows = data_rows(out)
        assert len(rows) == 1
        assert float(rows[0][4]) == 1.0

    def test_invalid_quantum_numbers_exit_2(self, capsys):
        code, out, err = run(capsys, "decompose", "--n", "2", "--l", "5", "--strain", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "l" in err

    def test_series_method(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "4", "--l", "0",
                           "--strain", "1e-4", "--method", "series", "--k-max", "2")
        assert code == EXIT_OK
        rows = data_rows(out)
        assert [int(r[2]) for r in rows] == [0, 2]

    def test_series_n175_is_exact(self, capsys, series_reference):
        # the radial factor's factorials overflowed float here before it was
        # taken in closed form
        with pytest.warns(UserWarning, match="outside its validity range"):
            code, out, err = run(capsys, "decompose", "--n", "175", "--l", "0",
                                 "--strain", "1e-3", "--method", "series")
        assert code == EXIT_OK and err == ""
        rows = data_rows(out)
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("paper_series", "175", str(l)) for l in (0, 2, 4, 6)]
        for r in rows:
            c = float(r[4])
            assert math.isfinite(c)
            ref = series_reference(175, int(r[2]), 1e-3, 3)
            assert abs(c - ref) <= 1e-12 * abs(ref), r

    def test_numeric_nonconvergence_exit_3(self, capsys):
        code, _, err = run(capsys, "decompose", "--n", "6", "--l", "0",
                           "--strain", "1e-2", "--method", "numeric",
                           "--angular-nodes", "4", "--tol", "1e-16")
        assert code == EXIT_NO_CONVERGENCE
        assert "converge" in err

    def test_numeric_nonconvergence_names_first_target(self, capsys):
        # targets are checked in (n, l) order; (2,1) is the first that fails
        code, out, err = run(capsys, "decompose", "--n", "6", "--l", "1", "--strain=0.2",
                             "--method", "numeric", "--angular-nodes", "2", "--tol", "1e-16")
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == (
            "gravatom: quadrature did not converge: overlap (2,1,0) <- (6,1,0) did not "
            "converge: node doubling moved the result by 2.169e-02 > 1.000e-16\n"
        )

    def test_numeric_at_a_rydberg_n(self, capsys):
        # the radial Taylor coefficients reach 1e217 here; the sum is cut
        # where its terms no longer count, so none is turned into a float inf
        code, out, err = run(capsys, "decompose", "--n", "175", "--l", "0", "--strain", "1e-3",
                             "--method", "numeric", "--delta-n", "0", "--l-max", "2")
        assert (code, err) == (EXIT_OK, "")
        rows = data_rows(out)
        assert [(r[1], r[2]) for r in rows] == [("175", "0"), ("175", "1"), ("175", "2")]
        assert all(math.isfinite(float(r[4])) for r in rows)

    def test_numeric_overflow_names_n(self, capsys, monkeypatch):
        coeffs, logs = distortion._radial_taylor(3, 0, 3, 0)
        monkeypatch.setattr(distortion, "_radial_taylor", lambda *args: (
            (math.inf, *coeffs[1:]), (1100.0, *logs[1:])))
        code, out, err = run(capsys, "decompose", "--n", "3", "--l", "0", "--strain", "1e-3",
                             "--method", "numeric", "--delta-n", "0")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("gravatom: --n 3 overflows: overlap (3,0,0) <- (3,0,0): a radial "
                       "Taylor coefficient overflows a double\n")


class TestDetuning:
    def test_golden_1s2p(self, capsys):
        code, out, _ = run(capsys, "detuning", "--lower", "1s", "--upper", "2p",
                           "--strain", "1e-20")
        assert code == EXIT_OK
        row = data_rows(out)[0]
        assert float(row[9]) == pytest.approx(88.0 / 15.0, rel=1e-15)
        assert float(row[10]) == pytest.approx(88.0 / 15.0 * 1e-20, rel=1e-15)

    def test_zero_strain_zero_detuning(self, capsys):
        _, out, _ = run(capsys, "detuning", "--lower", "1s", "--upper", "2p",
                        "--strain", "0")
        assert float(data_rows(out)[0][10]) == 0.0

    def test_species_and_defects_file(self, capsys, tmp_path):
        cfg = tmp_path / "rb.cfg"
        cfg.write_text("[rb]\ns = 3.1311\np = 2.6548\n")
        code, out, _ = run(capsys, "detuning", "--lower", "50s", "--upper", "51p",
                           "--strain", "1e-20", "--species", "rb",
                           "--defects", str(cfg))
        assert code == EXIT_OK
        assert "# fractional_enhancement_vs_1s2p: " in out
        row = data_rows(out)[0]
        n_eff = 50 - 3.1311
        assert float(row[4]) == pytest.approx(-0.5 / n_eff**2, rel=1e-12)

    def test_unknown_species_exit_2(self, capsys):
        code, _, err = run(capsys, "detuning", "--lower", "1s", "--upper", "2p",
                           "--strain", "0", "--species", "nope")
        assert code == EXIT_USAGE
        assert "unknown species" in err


class TestRabi:
    def test_cycle_series_slope(self, capsys):
        code, out, _ = run(capsys, "rabi", "--omega", "47kHz",
                           "--detuning-from", "50s:51p", "--strain", "1e-20",
                           "--cycles", "1e6")
        assert code == EXIT_OK
        rows = data_rows(out)
        n = np.array([float(r[0]) for r in rows])
        dev = np.abs(np.array([float(r[3]) for r in rows]))
        slope = np.polyfit(np.log(n), np.log(dev), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-3)

    def test_explicit_times(self, capsys):
        code, out, _ = run(capsys, "rabi", "--omega", "1rad/s",
                           "--detuning-rad-s", "0.01",
                           "--time", "1.0", "--time", "2.0")
        assert code == EXIT_OK
        assert len(data_rows(out)) == 2

    def test_requires_detuning_source(self, capsys):
        code, _, err = run(capsys, "rabi", "--omega", "47kHz", "--cycles", "5")
        assert code == EXIT_USAGE

    def test_malformed_pair_exit_2(self, capsys):
        code, _, err = run(capsys, "rabi", "--omega", "47kHz",
                           "--detuning-from", "50s-51p", "--cycles", "5")
        assert code == EXIT_USAGE


class TestFigure2:
    def test_zero_cycles_header_only(self, capsys):
        code, out, _ = run(capsys, "figure2", "--lower", "50s", "--upper", "51p",
                           "--strain", "1e-20", "--omega", "47kHz", "--cycles", "0")
        assert code == EXIT_OK
        assert all(line.startswith("#") for line in out.splitlines())
        assert out.splitlines()[0].startswith("# schema: ")

    def test_rows_and_regime_column(self, capsys):
        code, out, _ = run(capsys, "figure2", "--lower", "50s", "--upper", "51p",
                           "--strain", "1e-20", "--omega", "47kHz", "--cycles", "10")
        assert code == EXIT_OK
        rows = data_rows(out)
        assert len(rows) == 10
        assert all(r[6] == "short_time" for r in rows)


def _field(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _figure2_expected(lower, upper, strain, omega, cycles, species, fmt):
    """The figure2 document, written from the scalar deviation_* functions."""
    defects = load_defect_table(species, None)
    transition = make_transition(parse_state_token(lower), parse_state_token(upper), defects)
    det = transition_detuning(transition, Strain(strain))
    omega_rad_s = parse_frequency(omega)
    detuning = hartree_to_rad_per_s(det.slope * strain)
    cfg = RabiConfig(omega=omega_rad_s, detuning=detuning)
    schema = ["cycles", "time_s", "deviation_at_cycles", "deviation_exact",
              "deviation_small_detuning", "deviation_short_time", "regime"]
    metadata = {
        "command": "figure2", "version": gravatom.__version__, "species": species,
        "lower": str(transition.lower), "upper": str(transition.upper), "strain": strain,
        "omega_rad_s": omega_rad_s, "detuning_slope_hartree": det.slope,
        "detuning_rad_s": detuning,
    }
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in range(1, cycles + 1):
            t = 2.0 * math.pi * n / omega_rad_s
            rows.append((
                n, t, deviation_at_cycles(cfg, n), deviation_exact_at_cycles(cfg, n),
                deviation_small_detuning(cfg, t), deviation_short_time(cfg, t),
                cfg.regime(t).value,
            ))
    if fmt == "json":
        doc = {
            "schema": schema,
            "metadata": {k: _field(v) for k, v in metadata.items()},
            "rows": [[_field(v) for v in row] for row in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["# schema: " + ",".join(schema)]
    lines += [f"# {k}: {_field(v)}" for k, v in metadata.items()]
    lines += [",".join(_csv_field(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


FIGURE2_CONFIGS = {
    "hydrogen": ("50s", "51p", 1e-20, "47kHz", "hydrogen"),
    "rb-example": ("40d", "41f", 1e-18, "30.25kHz", "rb-example"),
    "zero-strain": ("50s", "51p", 0.0, "47kHz", "hydrogen"),
    "all-long-time": ("50s", "51p", 1e-3, "1Hz", "hydrogen"),
    "mixed-regime": ("50s", "51p", -5e-15, "47kHz", "rb-example"),
    "ratio-above-0.1": ("50s", "51p", 1e-13, "47kHz", "hydrogen"),
}


def _figure2_argv(config, cycles):
    lower, upper, strain, omega, species = FIGURE2_CONFIGS[config]
    return ["figure2", "--lower", lower, "--upper", upper, f"--strain={strain!r}",
            "--omega", omega, "--cycles", str(cycles), "--species", species]


@pytest.mark.filterwarnings("ignore:small-detuning approximation")
class TestFigure2Stream:
    """figure2 streams its rows; the bytes are those of the scalar functions."""

    @pytest.mark.parametrize("cycles", [0, 1, 200, 5000])
    @pytest.mark.parametrize("config", sorted(FIGURE2_CONFIGS))
    def test_exact_bytes(self, capsys, tmp_path, config, cycles):
        for fmt in ("csv", "json"):
            expected = _figure2_expected(*FIGURE2_CONFIGS[config][:4], cycles,
                                         FIGURE2_CONFIGS[config][4], fmt)
            argv = [*_figure2_argv(config, cycles), "--format", fmt]
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert out == expected
            path = tmp_path / f"out.{fmt}"
            code, out, _ = run(capsys, *argv, "--output", str(path))
            assert code == EXIT_OK and out == ""
            assert path.read_bytes() == expected.encode()

    def test_regimes_switch_once(self, capsys):
        _, out, _ = run(capsys, *_figure2_argv("mixed-regime", 5000))
        regimes = [r[6] for r in data_rows(out)]
        switch = regimes.index("long_time")
        assert 0 < switch and set(regimes[switch:]) == {"long_time"}

    @pytest.mark.parametrize("cycles", [0, 1, 200])
    def test_domain_warning_once(self, capsys, cycles):
        cfg = RabiConfig(omega=1.0, detuning=0.408)
        with warnings.catch_warnings(record=True) as scalar:
            warnings.simplefilter("always")
            deviation_small_detuning(cfg, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, *_figure2_argv("ratio-above-0.1", cycles))
        assert code == EXIT_OK
        texts = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        assert texts == ([str(scalar[0].message)] if cycles else [])

    @pytest.mark.parametrize("argv,named", [
        # row 1 is in range; the magnitudes overflow part-way through the rows
        (("--omega", "7.7e-59Hz", "--strain", "0.4", "--cycles", "20000"),
         "--cycles 20000 overflows: Numerical result out of range"),
        (("--omega", "1e-60Hz", "--strain", "0.4", "--cycles", "5"),
         "--cycles 5 overflows: Numerical result out of range"),
        # a single cycle is already out of range
        (("--omega", "1e-310Hz", "--strain", "1e-20", "--cycles", "5"),
         "--omega '1e-310Hz' at --strain 1e-20 overflows: Numerical result out of range"),
        (("--omega", "1e-310Hz", "--strain", "0", "--cycles", "5"),
         "--omega '1e-310Hz' at --strain 0.0 overflows: math domain error"),
        (("--omega", "47kHz", "--strain", "1e-20", "--cycles", "-3"),
         "--cycles must be >= 0, got -3"),
    ], ids=["cycles-overflow", "cycles-overflow-early", "omega-overflow", "omega-domain",
            "cycles-negative"])
    def test_errors_name_their_input_and_leave_no_output(self, capsys, tmp_path, argv, named):
        base = ("figure2", "--lower", "50s", "--upper", "51p", *argv)
        code, out, err = run(capsys, *base)
        assert (code, out, err) == (EXIT_USAGE, "", f"gravatom: {named}\n")
        path = tmp_path / "F.csv"
        code, out, err = run(capsys, *base, "--output", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert not path.exists()

    def test_detuning_square_underflow_is_short_time(self, capsys):
        # |Delta| ~ 1e-162 rad/s: Delta^2 underflows to 0, as zero detuning
        code, out, err = run(capsys, "figure2", "--lower", "50s", "--upper", "51p",
                             "--strain", "1e-180", "--omega", "47kHz", "--cycles", "3")
        assert (code, err) == (EXIT_OK, "")
        assert [r[6] for r in data_rows(out)] == ["short_time"] * 3

    def test_memory_does_not_grow_with_cycles(self, tmp_path):
        # no timing: the traced peak of a 20000-row run to a file.  Collecting
        # the rows first peaked at about 15 MB.
        argv = [*_figure2_argv("hydrogen", 20000), "--output", str(tmp_path / "F.csv")]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak
        assert (tmp_path / "F.csv").stat().st_size > 20000 * 100


class TestVerify:
    def test_table1_reports_the_printed_discrepancy(self, capsys):
        # the (3,0) cell of the printed table disagrees with its defining
        # integral; the suite reports it honestly and exits 1
        code, out, _ = run(capsys, "verify", "--suite", "table1")
        assert code == EXIT_VERIFY_FAILED
        rows = data_rows(out)
        assert len(rows) == 16
        failing = [r for r in rows if r[2] == "fail"]
        assert [(r[1]) for r in failing] == ["theta_k3_l0"]
        assert "-9/35" in failing[0][6]

    def test_table1_residuals_exact(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "table1")
        rows = {r[1]: r for r in data_rows(out)}
        failing = rows.pop("theta_k3_l0")
        assert failing[2] == "fail" and float(failing[5]) == abs(-9 / 35 + 9 / 15)
        assert len(rows) == 15
        assert all(r[2] == "pass" and r[5] == "0.0" for r in rows.values())

    def test_basis_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "basis")
        assert code == EXIT_OK
        assert all(r[2] == "pass" for r in data_rows(out))

    def test_identity_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == EXIT_OK

    def test_claims_suite_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "claims")
        assert code == EXIT_OK
        assert all(r[2] == "report" for r in data_rows(out))

    def test_linearity_fails_honestly(self, capsys):
        # the same-n Delta-l = 2 response is quadratic in strain (see the
        # project ledger); the gated 1% constancy check fails, exit 1
        code, out, _ = run(capsys, "verify", "--suite", "linearity")
        assert code == EXIT_VERIFY_FAILED


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_state_token(self, capsys):
        code, _, err = run(capsys, "detuning", "--lower", "xx", "--upper", "2p",
                           "--strain", "0")
        assert code == EXIT_USAGE

    def test_bad_frequency(self, capsys):
        code, _, _ = run(capsys, "rabi", "--omega", "47", "--detuning-rad-s", "0",
                         "--time", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,named", [
        (("rabi", "--omega", "47kHz", "--detuning-rad-s", "1e-3", "--cycles", "1e400"),
         "argument --cycles: expected a finite number, got '1e400'"),
        (("rabi", "--omega", "1e400Hz", "--detuning-rad-s", "1e-3", "--cycles", "10"),
         "frequency '1e400Hz'"),
        (("rabi", "--omega", "47kHz", "--detuning-rad-s", "nan", "--cycles", "10"),
         "argument --detuning-rad-s"),
        (("rabi", "--omega", "47kHz", "--detuning-rad-s", "1e-3", "--time", "inf"),
         "argument --time"),
        (("decompose", "--n", "2", "--l", "0", "--strain", "1e-3", "--method", "numeric",
          "--tol", "nan"), "argument --tol"),
        (("rabi", "--omega", "47kHz", "--detuning-rad-s", "1e-3", "--time", "1e300"),
         "--time 1e+300 overflows"),
        (("rabi", "--omega", "47kHz", "--detuning-rad-s", "1e-3", "--cycles", "1e300"),
         "--cycles 1e+300 overflows"),
    ], ids=["cycles-overflow", "omega-inf", "detuning-nan", "time-inf", "tol-nan",
            "time-overflow", "cycles-rows-overflow"])
    def test_overflow_and_non_finite_exit_2(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip() and "Traceback" not in err
        # the message is the error's text, not the errno float ** carries,
        # and it names the input it is about
        assert not re.fullmatch(r"gravatom: -?\d+", err.strip().splitlines()[-1])
        assert named in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("omega,cycles,message", [
        ("1e-310Hz", "3", "--omega '1e-310Hz' overflows: one cycle lasts inf s"),
        ("1e-300Hz", "1e12",
         "--cycles 1000000000000.0 overflows: 2 pi n / omega is inf at n = 182518349"),
    ], ids=["one-cycle", "many-cycles"])
    def test_rabi_cycles_with_tiny_omega_names_its_input(self, capsys, omega, cycles, message):
        # 2 pi n / omega overflows to inf, and math.sin(inf) is a domain error
        code, out, err = run(capsys, "rabi", "--omega", omega, "--detuning-rad-s", "0",
                             "--cycles", cycles)
        assert (code, out, err) == (EXIT_USAGE, "", f"gravatom: {message}\n")

    @pytest.mark.parametrize("timing", [("--cycles=3",), ("--time=1e300",)])
    def test_rabi_detuning_phase_overflow_names_omega(self, capsys, timing):
        # Delta^2 t / (4 omega) overflows while t stays finite, and math.sin(inf)
        # raises a bare "math domain error"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # |Delta| / omega > 0.1
            code, out, err = run(capsys, "rabi", "--omega=1e-300Hz", "--detuning-rad-s=0.001",
                                 *timing)
        assert (code, out, err) == (EXIT_USAGE, "", (
            "gravatom: --omega '1e-300Hz' overflows: Delta^2 t / (4 omega) is inf "
            "at t = 1e+300 s\n"))

    @pytest.mark.parametrize("output,reason", [
        (".", "Is a directory"),
        ("missing/out.csv", "No such file or directory"),
    ], ids=["directory", "missing-directory"])
    def test_unwritable_output_names_output(self, capsys, tmp_path, output, reason):
        path = tmp_path / output
        code, out, err = run(capsys, "detuning", "--lower", "1s", "--upper", "2p",
                             "--strain", "0", "--output", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"gravatom: --output {str(path)!r}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_positive_and_finite(self, capsys, value):
        code, out, err = run(capsys, "decompose", "--n", "2", "--l", "0", "--strain", "1e-3",
                             "--method", "numeric", f"--tol={value}")
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument --tol: expected a finite number" in err and f"got '{value}'" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("decompose", "--n", "2", "--l", "0"),
        ("detuning", "--lower", "1s", "--upper", "2p"),
        ("rabi", "--omega", "47kHz", "--detuning-from", "50s:51p", "--cycles", "5"),
        ("figure2", "--lower", "50s", "--upper", "51p", "--omega", "47kHz", "--cycles", "5"),
    ], ids=lambda argv: argv[0])
    def test_non_finite_strain_names_strain(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, f"--strain={value}")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --strain: expected a finite number, got '{value}'" in err

    @pytest.mark.parametrize("option", ["--l-max", "--delta-n"])
    def test_negative_numeric_window_names_option(self, capsys, option):
        code, out, err = run(capsys, "decompose", "--n", "3", "--l", "0", "--strain", "1e-3",
                             "--method", "numeric", f"{option}=-1")
        assert (code, out, err) == (EXIT_USAGE, "", f"gravatom: {option} must be >= 0, got -1\n")

    @pytest.mark.parametrize("nodes", [("1025",), ("1",)])
    def test_node_counts_bounded(self, capsys, nodes):
        code, out, err = run(capsys, "decompose", "--n", "2", "--l", "0", "--strain", "1e-3",
                             "--method", "numeric", "--angular-nodes", nodes[0])
        assert code == EXIT_USAGE
        assert out == ""
        assert "1024" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,spaced", [
        (("decompose", "--n", "3", "--l", "0"), ("--strain", "-2e-3")),
        (("rabi", "--omega", "47kHz", "--cycles", "5"), ("--detuning-rad-s", "-1E+2")),
    ])
    def test_exponent_form_negative_values(self, capsys, argv, spaced):
        code, out, _ = run(capsys, *argv, *spaced)
        _, joined, _ = run(capsys, *argv, "=".join(spaced))
        assert code == EXIT_OK
        assert out == joined


_LOWER = st.sampled_from(["1s", "2s", "2p", "3p", "2d", "x"])
_UPPER = st.sampled_from(["3s", "3d", "4f", "5g", "6h", "1s"])
_STRAINS = st.one_of(
    st.floats(-0.49, 0.49, allow_nan=False),
    st.sampled_from([0.0, 1e-300, -1e-20, 0.5, -0.5, 1e300]),
)
_OMEGAS = st.sampled_from(["47kHz", "2.9e5rad/s", "1MHz", "1e-300Hz", "0Hz", "-3kHz", "1e300Hz"])


def _opt(name, values):
    """["--name=value"], or [] to leave the option at its default."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v!r}" if isinstance(v, float)
                                                        else f"{name}={v}"]))


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["decompose", "detuning", "rabi", "figure2", "verify"]))
    argv = [command]
    if command == "decompose":
        # invalid values last: hypothesis leans towards the first ones
        n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 0]))
        argv += ["--n", str(n), "--l", str(draw(st.sampled_from([*range(n), -1]))),
                 f"--strain={draw(_STRAINS)!r}"]
        argv += draw(_opt("--method", st.sampled_from(["numeric", "series", "closed-form", "all"])))
        argv += draw(_opt("--k-max", st.integers(0, 4)))
        argv += draw(_opt("--delta-n", st.integers(-1, 2)))
        argv += draw(_opt("--l-max", st.integers(-1, 6)))
        argv += ["--angular-nodes", str(draw(st.sampled_from([*range(2, 17), 1])))]
        argv += draw(_opt("--tol", st.sampled_from([1e-16, 1e-10, 1e-3, 1.0, 0.0])))
    elif command in ("detuning", "figure2"):
        argv += ["--lower", draw(_LOWER), "--upper", draw(_UPPER),
                 f"--strain={draw(_STRAINS)!r}"]
        argv += draw(_opt("--species", st.sampled_from(["hydrogen", "rb-example", "x"])))
        if command == "figure2":
            argv += [f"--omega={draw(_OMEGAS)}", "--cycles", str(draw(st.integers(-1, 50)))]
        else:
            argv += draw(_opt("--frequency", st.sampled_from([0.0, 6.8e9, -1.0, 1e300])))
    elif command == "rabi":
        argv += [f"--omega={draw(_OMEGAS)}"]
        argv += draw(st.one_of(
            _opt("--detuning-rad-s", st.sampled_from([0.0, 1e-3, -2e2, 1e300])),
            st.tuples(_LOWER, _UPPER).map(lambda pair: [f"--detuning-from={pair[0]}:{pair[1]}"]),
        ))
        argv += draw(_opt("--strain", _STRAINS))
        argv += draw(st.one_of(
            _opt("--cycles", st.sampled_from([0.0, 3.0, 50.0, 250.0, -1.0])),
            st.lists(st.sampled_from([0.0, 1e-6, 2.5, -1.0, 1e300]), max_size=2).map(
                lambda times: [f"--time={t!r}" for t in times]),
        ))
    else:
        argv += draw(_opt("--suite", st.sampled_from(["table1", "identity", "claims", "all"])))
    argv += draw(_opt("--format", st.sampled_from(["csv", "json"])))
    return argv


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


class TestFuzz:
    """Small inputs through main: a documented exit code, never a traceback,
    and no non-finite number on a successful run."""

    @given(_fuzz_argv())
    @example(["rabi", "--omega=1e-300Hz", "--detuning-rad-s=0.001", "--time=0.0"])
    @settings(max_examples=150, deadline=None)
    def test_exit_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(argv)  # an exception here is the traceback a user would see
        allowed = {EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE}
        if argv[0] == "verify":
            allowed.add(EXIT_VERIFY_FAILED)
        assert code in allowed, (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == EXIT_OK:
            assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())


def test_cli_import_does_not_load_scipy():
    src = str(Path(gravatom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, gravatom.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
