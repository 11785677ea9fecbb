"""Run configuration: species files, state tokens and unit-suffixed numbers.

The math core is unit-free (atomic units); every conversion from user-facing
units happens here or in the CLI.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from importlib import resources
from pathlib import Path

from .hydrogenics import AtomicState
from .transitions import DefectTable

__all__ = [
    "load_defect_table",
    "available_species",
    "parse_state_token",
    "state_token",
    "parse_frequency",
    "parse_energy",
    "ORBITAL_LETTERS",
    "CONFIG_ENV_VAR",
]

CONFIG_ENV_VAR = "GRAVATOM_CONFIG"

# spectroscopic letter sequence (j is skipped by convention; p/s reused later
# letters are omitted rather than guessed)
ORBITAL_LETTERS = "spdfghiklmnoqrtuvwxyz"
_L_BY_LETTER = {c: i for i, c in enumerate(ORBITAL_LETTERS)}


def _config_paths(explicit: str | None) -> list[Path]:
    paths: list[Path] = []
    if explicit:
        paths.append(Path(explicit))
    env = os.environ.get(CONFIG_ENV_VAR)
    if env:
        paths.extend(Path(p) for p in env.split(os.pathsep) if p)
    return paths


def _read_config(explicit: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read_any = False
    for path in _config_paths(explicit):
        if not path.is_file():
            raise FileNotFoundError(f"species config file not found: {path}")
        parser.read(path)
        read_any = True
    if not read_any:
        bundled = resources.files("gravatom.data").joinpath("species.cfg")
        parser.read_string(bundled.read_text())
    return parser


def available_species(config_file: str | None = None) -> list[str]:
    return _read_config(config_file).sections()


def load_defect_table(species: str, config_file: str | None = None) -> DefectTable:
    """Defect table for `species` from the config search path.

    Search order: explicit file argument, then $GRAVATOM_CONFIG, then the
    bundled profiles (hydrogen, rb-example).
    """
    parser = _read_config(config_file)
    if not parser.has_section(species):
        raise KeyError(
            f"unknown species {species!r}; available: {', '.join(parser.sections())}"
        )
    defects: dict[int, float] = {}
    for key, raw in parser.items(species):
        key = key.strip().lower()
        if key in _L_BY_LETTER:
            l = _L_BY_LETTER[key]
        elif key.isdigit():
            l = int(key)
        else:
            raise ValueError(f"unrecognized orbital key {key!r} in species {species!r}")
        value = float(raw)
        if value < 0:
            raise ValueError(f"quantum defect for l={l} must be >= 0, got {value}")
        defects[l] = value
    return DefectTable(species=species, defects=defects)


_STATE_RE = re.compile(r"^(\d+)([a-z])$")


def parse_state_token(token: str) -> AtomicState:
    """Parse shorthand like ``50s``, ``51p``, ``110g`` into an AtomicState."""
    m = _STATE_RE.match(token.strip().lower())
    if not m:
        raise ValueError(f"malformed state token {token!r}; expected e.g. '50s'")
    n = int(m.group(1))
    letter = m.group(2)
    if letter not in _L_BY_LETTER:
        raise ValueError(f"unknown orbital letter {letter!r} in state token {token!r}")
    return AtomicState(n=n, l=_L_BY_LETTER[letter])


def state_token(state: AtomicState) -> str:
    """Inverse of parse_state_token: AtomicState(50, 0) -> ``50s``."""
    if state.l >= len(ORBITAL_LETTERS):
        raise ValueError(f"no spectroscopic letter for l={state.l}")
    return f"{state.n}{ORBITAL_LETTERS[state.l]}"


_FREQ_RE = re.compile(r"^([-+0-9.eE]+)\s*(rad/s|GHz|MHz|kHz|Hz)$")


def parse_frequency(text: str) -> float:
    """Frequency with unit suffix -> angular frequency in rad/s.

    Cyclic units (Hz, kHz, MHz, GHz) are multiplied by 2 pi; ``rad/s`` is
    taken as-is.  A bare number is rejected: the suffix is what removes the
    cyclic/angular ambiguity.
    """
    m = _FREQ_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"malformed frequency {text!r}; expected a number with Hz/kHz/MHz/GHz/rad/s suffix"
        )
    value = float(m.group(1))
    unit = m.group(2)
    if unit != "rad/s":
        value = 2.0 * math.pi * value * {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[unit]
    if not math.isfinite(value):
        raise ValueError(f"frequency {text!r} is not a finite number")
    return value


_ENERGY_RE = re.compile(r"^([-+0-9.eE]+)\s*(Hartree|hartree|eV|ev)$")


def parse_energy(text: str) -> float:
    """Energy with unit suffix (eV or Hartree) -> Hartree."""
    from . import constants

    m = _ENERGY_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed energy {text!r}; expected a number with eV/Hartree suffix")
    value = float(m.group(1))
    if m.group(2).lower() == "ev":
        return value / constants.HARTREE_EV
    return value
