"""Seeded command lines for each workload, one pass at a time.

A pass is one whole round: the same make-up of commands every time, with
fresh inputs drawn from Random(f"{workload}/{seed}/{pass_index}").  The
make-up is fixed so that every pass does about the same work whatever the
seed, and every pass includes the workload's kept failing operations, whose
inputs do not depend on the seed, so the failed share of attempted operations
is the same in every run.

Each command is a dict: ``argv`` (without --output), ``kind`` (which check
applies), ``params`` (the inputs the check needs) and ``fault`` (None, or the
failure kind a known program fault produces on this command).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("oracle", "verify", "spectroscopy")

#: Documented defaults of `decompose --method numeric` (--delta-n, --l-max).
DELTA_N = 4
L_MAX = 10

# Operations kept because a program fault makes them fail every time.  The
# CLI-contract ones pass once the command exits with a documented code and
# no traceback, or prints finite values.
KEPT_ORACLE = {
    # same-n Delta-l = 2 entry at s_p = 1e-10 is 3.3e-5 relative off
    # (absolute error ~ eps * s_p in _radial_deviation_transformed)
    "argv": ["decompose", "--n", "3", "--l", "0", "--strain", "1e-10", "--method", "numeric"],
    "kind": "numeric",
    "params": {"n": 3, "l": 0, "strain": 1e-10, "entries": [[3, 2]]},
    "fault": "reference",
}
KEPT_VERIFY_SUITE = {
    # the linearity report rows print the field "reported, not gated" unquoted,
    # so they have 8 comma-separated fields under a 7-field schema
    "argv": ["verify", "--suite", "all"],
    "kind": "verify",
    "params": {},
    "fault": "format",
}
KEPT_VERIFY = {
    # factorials overflow float in the series radial factor: OverflowError
    "argv": ["decompose", "--n", "175", "--l", "0", "--strain", "1e-3",
             "--method", "series"],
    "kind": "series",
    "params": {"n": 175, "strain": 1e-3, "k_max": 3},
    "fault": "traceback",
}
KEPT_SPECTROSCOPY = [
    {
        # int(float("1e400")) raises OverflowError
        "argv": ["rabi", "--omega", "47kHz", "--detuning-rad-s", "1e-3", "--cycles", "1e400"],
        "kind": "contract",
        "params": {},
        "fault": "traceback",
    },
    {
        # an infinite Rabi frequency is accepted and gives nan rows with exit 0
        "argv": ["rabi", "--omega", "1e400Hz", "--detuning-rad-s", "1e-3", "--cycles", "10"],
        "kind": "contract",
        "params": {},
        "fault": "nonfinite",
    },
]

#: figure2 cycle count in every spectroscopy pass (fixed: the work is per cycle).
FIGURE2_CYCLES = 100_000


def _strain(value: float) -> float:
    """Round to 5 significant digits so the command line carries the exact input."""
    return float(f"{value:.4e}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _strain_arg(value: float) -> str:
    # --strain=VALUE: argparse takes "-2e-3" after a space for an option name
    return f"--strain={value!r}"


def oracle_pass(rng: random.Random) -> list[dict]:
    """One numeric decomposition for every n from 2 to 12 (random l and strain)."""
    commands = []
    for n in range(2, 13):
        l = rng.randrange(n)
        strain = _strain(rng.choice((-1, 1)) * _log_uniform(rng, 1e-5, 2e-2))
        l_cap = min(L_MAX, n - 1)
        # one same-n |delta l| = 2 entry (the diagonal when neither exists) ...
        same_n = [(n, lt) for lt in (l + 2, l - 2) if 0 <= lt <= l_cap] or [(n, l)]
        # ... and one even-parity cross-n entry with |delta l| <= 2
        cross_n = [
            (nt, lt)
            for nt in range(max(1, n - DELTA_N), n + DELTA_N + 1) if nt != n
            for lt in (l - 2, l, l + 2) if 0 <= lt <= min(L_MAX, nt - 1)
        ]
        entries = [list(same_n[0]), list(rng.choice(cross_n))]
        commands.append({
            "argv": ["decompose", "--n", str(n), "--l", str(l), _strain_arg(strain),
                     "--method", "numeric"],
            "kind": "numeric",
            "params": {"n": n, "l": l, "strain": strain, "entries": entries},
            "fault": None,
        })
    rng.shuffle(commands)
    return commands + [KEPT_ORACLE]


def verify_pass(rng: random.Random) -> list[dict]:
    """verify --suite all, three series and three closed-form decompositions."""
    commands = []
    for k_max in (1, 2, 3):
        n = rng.randint(2, 30)
        # keep the first-order change s_p (n+1)^3 / 3 below 1%
        strain = _strain(rng.choice((-1, 1)) * _log_uniform(rng, 1e-9, 0.03 / (n + 1) ** 3))
        commands.append({
            "argv": ["decompose", "--n", str(n), "--l", "0", _strain_arg(strain),
                     "--method", "series", "--k-max", str(k_max)],
            "kind": "series",
            "params": {"n": n, "strain": strain, "k_max": k_max},
            "fault": None,
        })
    for _ in range(3):
        n = rng.randint(2, 20)
        l = rng.randrange(n)
        # well inside the linear-response range of every printed slope at n <= 20
        strain = _strain(rng.choice((-1, 1)) * _log_uniform(rng, 1e-14, 1e-11))
        commands.append({
            "argv": ["decompose", "--n", str(n), "--l", str(l), _strain_arg(strain),
                     "--method", "closed-form"],
            "kind": "closed_form",
            "params": {"n": n, "l": l, "strain": strain},
            "fault": None,
        })
    rng.shuffle(commands)
    return [KEPT_VERIFY_SUITE] + commands + [KEPT_VERIFY]


_LETTERS = "spdf"


def _transition(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int], str]:
    """(n, l) -> (n + 1, l + 1) Rydberg transition, n in 30..80, l in 0..2."""
    n, l = rng.randint(30, 80), rng.randint(0, 2)
    return (n, l), (n + 1, l + 1), rng.choice(("hydrogen", "rb-example"))


def _token(state: tuple[int, int]) -> str:
    return f"{state[0]}{_LETTERS[state[1]]}"


def spectroscopy_pass(rng: random.Random) -> list[dict]:
    """Two detuning, two rabi and one figure2 command on Rydberg transitions."""
    commands = []
    for _ in range(2):
        lower, upper, species = _transition(rng)
        strain = _strain(_log_uniform(rng, 1e-21, 1e-18))
        commands.append({
            "argv": ["detuning", "--lower", _token(lower), "--upper", _token(upper),
                     _strain_arg(strain), "--species", species],
            "kind": "detuning",
            "params": {"lower": lower, "upper": upper, "species": species, "strain": strain},
            "fault": None,
        })
    for kind in ("rabi", "rabi", "figure2"):
        lower, upper, species = _transition(rng)
        strain = _strain(_log_uniform(rng, 1e-21, 1e-18))
        khz = round(rng.uniform(20.0, 100.0), 3)
        # rabi prints at most 200 log-spaced rows whatever the count
        cycles = round(_log_uniform(rng, 10, 1e6)) if kind == "rabi" else FIGURE2_CYCLES
        if kind == "rabi":
            argv = ["rabi", "--omega", f"{khz!r}kHz", "--detuning-from",
                    f"{_token(lower)}:{_token(upper)}", "--cycles", str(cycles)]
        else:
            argv = ["figure2", "--lower", _token(lower), "--upper", _token(upper),
                    "--omega", f"{khz!r}kHz", "--cycles", str(cycles)]
        commands.append({
            "argv": argv + [_strain_arg(strain), "--species", species],
            "kind": kind,
            "params": {"lower": lower, "upper": upper, "species": species, "strain": strain,
                       "khz": khz, "cycles": cycles, "sample_seed": rng.getrandbits(32)},
            "fault": None,
        })
    rng.shuffle(commands)
    return commands + KEPT_SPECTROSCOPY


PASSES = {"oracle": oracle_pass, "verify": verify_pass, "spectroscopy": spectroscopy_pass}


def pass_commands(workload: str, seed: int, index: int) -> list[dict]:
    """The commands of pass `index` of `workload` under `seed`."""
    return PASSES[workload](random.Random(f"{workload}/{seed}/{index}"))
