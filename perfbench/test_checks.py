"""Each output check rejects a wrong output.

    PYTHONPATH=src python3 -m pytest perfbench -q

Outputs are made by gravatom.cli.main exactly as a pass makes them, checked
as they are (they pass), then broken three ways: one number changed in its
ninth significant digit, one row turned to nan, one row removed.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import checks
import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
cli = pytest.importorskip("gravatom.cli")


@pytest.fixture(scope="module")
def refs():
    return reference.References(ROOT)


def produce(tmp_path_factory, argv) -> tuple[dict, str]:
    out = tmp_path_factory.mktemp("out") / "out.csv"
    code = cli.main(argv + ["--output", str(out)])
    return {"code": code, "exception": None}, out.read_text()


def ninth_digit(text: str) -> str:
    """The number plus 5 units in its ninth significant digit."""
    value = float(text)
    return repr(value + 5 * 10 ** (math.floor(math.log10(abs(value))) - 8))


def edit_row(text: str, index: int, field: int, change) -> str:
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[rows[index]].split(",")
    cells[field] = change(cells[field])
    lines[rows[index]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_row(text: str, index: int) -> str:
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    del lines[rows[index]]
    return "\n".join(lines) + "\n"


def row_index(text: str, prefix: str) -> int:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return next(i for i, line in enumerate(rows) if line.startswith(prefix))


def kinds(failures) -> set[str]:
    return {kind for kind, _ in failures}


CASES = {
    # name: (command, row prefix of the number to perturb, its field, kind caught)
    "numeric": (
        {"argv": ["decompose", "--n", "3", "--l", "0", "--strain=0.001", "--method", "numeric"],
         "kind": "numeric", "fault": None,
         # C(3,2) ~ 2.7e-7: five ninth-digit units are 1.9e-8 of it, over the 1e-8 bound
         "params": {"n": 3, "l": 0, "strain": 1e-3, "entries": [[3, 2], [4, 0]]}},
        "numeric_oracle,3,2,", 4, "reference"),
    "series": (
        {"argv": ["decompose", "--n", "5", "--l", "0", "--strain=-2e-06", "--method", "series",
                  "--k-max", "1"],
         "kind": "series", "fault": None, "params": {"n": 5, "strain": -2e-6, "k_max": 1}},
        "paper_series,5,2,", 4, "value"),
    "closed_form": (
        {"argv": ["decompose", "--n", "7", "--l", "2", "--strain=3e-12", "--method",
                  "closed-form"],
         "kind": "closed_form", "fault": None, "params": {"n": 7, "l": 2, "strain": 3e-12}},
        "closed-form,7,4,", 4, "value"),
    "detuning": (
        {"argv": ["detuning", "--lower", "50s", "--upper", "51p", "--strain=1e-20",
                  "--species", "rb-example"],
         "kind": "detuning", "fault": None,
         "params": {"lower": [50, 0], "upper": [51, 1], "species": "rb-example",
                    "strain": 1e-20}},
        "50s,", 9, "value"),
    "rabi": (
        {"argv": ["rabi", "--omega", "47.5kHz", "--detuning-from", "60p:61d", "--cycles", "150",
                  "--strain=1e-18", "--species", "hydrogen"],
         "kind": "rabi", "fault": None,
         "params": {"lower": [60, 1], "upper": [61, 2], "species": "hydrogen", "strain": 1e-18,
                    "khz": 47.5, "cycles": 150, "sample_seed": 3}},
        "1,", 3, "value"),
    "figure2": (
        {"argv": ["figure2", "--lower", "40d", "--upper", "41f", "--omega", "30.25kHz",
                  "--cycles", "400", "--strain=5e-19", "--species", "rb-example"],
         "kind": "figure2", "fault": None,
         "params": {"lower": [40, 2], "upper": [41, 3], "species": "rb-example", "strain": 5e-19,
                    "khz": 30.25, "cycles": 400, "sample_seed": 4}},
        "1,", 3, "value"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    command, prefix, field, kind = CASES[request.param]
    result, text = produce(tmp_path_factory, command["argv"])
    return command, result, text, prefix, field, kind


def test_correct_output_passes(case, refs):
    command, result, text, *_ = case
    assert checks.check(command, result, text, refs) == []


def test_ninth_digit_is_rejected(case, refs):
    command, result, text, prefix, field, kind = case
    broken = edit_row(text, row_index(text, prefix), field, ninth_digit)
    assert kind in kinds(checks.check(command, result, broken, refs))


def test_nan_row_is_rejected(case, refs):
    command, result, text, prefix, field, _ = case
    broken = edit_row(text, row_index(text, prefix), field, lambda _: "nan")
    assert kinds(checks.check(command, result, broken, refs)) == {"nonfinite"}


def test_missing_row_is_rejected(case, refs):
    command, result, text, prefix, *_ = case
    broken = drop_row(text, row_index(text, prefix))
    assert "format" in kinds(checks.check(command, result, broken, refs))


class TestVerify:
    @pytest.fixture(scope="class")
    def output(self, tmp_path_factory):
        return produce(tmp_path_factory, ["verify", "--suite", "all"])

    def test_only_the_kept_fault_fails(self, output, refs):
        result, text = output
        failures = checks.check(workloads.KEPT_VERIFY_SUITE, result, text, refs)
        # the three malformed rows, then the same rows reported missing
        assert kinds(failures) == {"format"}
        assert "3 rows do not have the schema's 7 fields" in failures[0][1]
        assert all("oracle_vs_closed_form_ratio" in message for _, message in failures)

    def test_quoting_the_field_mends_the_kept_fault(self, output, refs):
        result, text = output
        quoted = text.replace("reported, not gated", '"reported, not gated"')
        assert checks.check(workloads.KEPT_VERIFY_SUITE, result, quoted, refs) == []

    # the n0 = 3 slope is 2.7e-6: five ninth-digit units are 1.9e-8 of it
    @pytest.mark.parametrize("prefix", ["table1,theta_k2_l2,", "linearity,oracle_slope_n0=3,"])
    def test_ninth_digit_is_rejected(self, output, refs, prefix):
        result, text = output
        broken = edit_row(text, row_index(text, prefix), 3, ninth_digit)
        assert kinds(checks.check(workloads.KEPT_VERIFY_SUITE, result, broken, refs)) - {"format"}

    def test_nan_row_is_rejected(self, output, refs):
        result, text = output
        broken = edit_row(text, row_index(text, "basis,radial"), 3, lambda _: "nan")
        assert kinds(checks.check(workloads.KEPT_VERIFY_SUITE, result, broken, refs)) - {"format"}

    def test_missing_row_is_rejected(self, output, refs):
        result, text = output
        broken = drop_row(text, row_index(text, "table1,theta_k3_l0,"))
        messages = [m for _, m in checks.check(workloads.KEPT_VERIFY_SUITE, result, broken, refs)]
        assert any("15 table1 rows" in m for m in messages)

    def test_status_must_follow_the_exact_fraction(self, output, refs):
        result, text = output
        # (3, 0) is printed -9/15 but is -9/35 exactly: its row must say fail
        broken = edit_row(text, row_index(text, "table1,theta_k3_l0,"), 2, lambda _: "pass")
        assert "property" in kinds(checks.check(workloads.KEPT_VERIFY_SUITE, result, broken,
                                                refs))


def test_kept_contract_faults_fail_for_their_reason(tmp_path_factory, refs):
    overflow, nan = workloads.KEPT_SPECTROSCOPY
    traceback = {"code": None, "exception": "Traceback ...\nOverflowError: boom\n"}
    assert kinds(checks.check(overflow, traceback, None, refs)) == {"traceback"}
    result, text = produce(tmp_path_factory, nan["argv"])
    assert kinds(checks.check(nan, result, text, refs)) == {"nonfinite"}
    # a documented usage exit mends them
    assert checks.check(overflow, {"code": 2, "exception": None}, None, refs) == []


def test_importtime_totals_take_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       100 |        150 |   scipy.linalg",
        "import time:        10 |        500 | gravatom.hydrogenics",
    ])
    totals = run.importtime_totals(text, ("gravatom", "scipy", "numpy"))
    assert totals == pytest.approx({"gravatom": 500e-6, "scipy": 150e-6, "numpy": 350e-6})


def test_summarize_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["distortion.numeric_decomposition", 1.0, 9.0, 0],
        ["distortion.overlap_numeric", 2.0, 6.0, 1],
        ["hydrogenics.laguerre", 3.0, 4.0, 2],
        ["hydrogenics.fsum_dot", 4.0, 4.5, 2],
        ["distortion.distorted_norm_numeric", 6.0, 8.0, 1],
        ["hydrogenics.gauss_legendre_nodes", 6.5, 7.5, 5],
        ["hydrogenics.leggauss", 6.6, 7.4, 6],
    ]
    counts = {"grid_overlaps": 1, "grid_points": 200_000, "grid_bytes_max": 1_280_000}
    out = tracing.summarize(spans, counts)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["distortion.self_s"] == pytest.approx(2.0 + 2.5 + 1.0)
    assert out["distortion.norm_s"] == pytest.approx(2.0)
    assert out["hydrogenics.rules_s"] == pytest.approx(1.0)
    assert (out["hydrogenics.basis_s"], out["hydrogenics.reduce_s"]) == pytest.approx((1.0, 0.5))
    assert (out["hydrogenics.rule_calls"], out["hydrogenics.rule_builds"]) == (1, 1)
    assert (out["distortion.overlaps"], out["cli.commands"]) == (1, 1)
    assert out["distortion.grid_mb"] == pytest.approx(1.28)
