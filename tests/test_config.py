import math

import pytest

from gravatom.config import (
    CONFIG_ENV_VAR,
    available_species,
    load_defect_table,
    parse_energy,
    parse_frequency,
    parse_state_token,
)
from gravatom.hydrogenics import AtomicState


class TestStateTokens:
    @pytest.mark.parametrize("token,expected", [
        ("1s", (1, 0)),
        ("50s", (50, 0)),
        ("51p", (51, 1)),
        ("110g", (110, 4)),
        ("6D", (6, 2)),  # case-insensitive
    ])
    def test_parse(self, token, expected):
        state = parse_state_token(token)
        assert (state.n, state.l) == expected
        assert state.m == 0

    @pytest.mark.parametrize("token", ["", "s", "50", "3j", "2z9", "1s2p", "-1s"])
    def test_rejects_malformed(self, token):
        with pytest.raises(ValueError):
            parse_state_token(token)

    def test_rejects_invalid_quantum_numbers(self):
        with pytest.raises(ValueError):
            parse_state_token("1p")  # l = 1 needs n >= 2


class TestFrequencyParsing:
    def test_cyclic_units_multiplied_by_2pi(self):
        assert parse_frequency("47kHz") == pytest.approx(2 * math.pi * 47e3, rel=1e-15)
        assert parse_frequency("1Hz") == pytest.approx(2 * math.pi, rel=1e-15)
        assert parse_frequency("4.8GHz") == pytest.approx(2 * math.pi * 4.8e9, rel=1e-15)

    def test_angular_passthrough(self):
        assert parse_frequency("123.5rad/s") == 123.5

    @pytest.mark.parametrize("text", ["47", "47 khz", "kHz", "47mHz"])
    def test_rejects_ambiguous(self, text):
        with pytest.raises(ValueError):
            parse_frequency(text)

    @pytest.mark.parametrize("text", ["1e400Hz", "1e300GHz", "-1e400rad/s"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_frequency(text)


class TestEnergyParsing:
    def test_hartree(self):
        assert parse_energy("0.5Hartree") == 0.5

    def test_ev(self):
        assert parse_energy("27.211386245988eV") == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bare(self):
        with pytest.raises(ValueError):
            parse_energy("1.5")


class TestSpeciesConfig:
    def test_bundled_profiles(self):
        species = available_species()
        assert "hydrogen" in species
        assert "rb-example" in species

    def test_hydrogen_empty(self):
        table = load_defect_table("hydrogen")
        assert table.defects == {}

    def test_rb_example_values(self):
        table = load_defect_table("rb-example")
        assert table.defect(0) == pytest.approx(3.1311)
        assert table.defect(1) == pytest.approx(2.6548)
        assert table.defect(2) == pytest.approx(1.3479)
        assert table.defect(3) == pytest.approx(0.0165)
        assert table.defect(4) == 0.0

    def test_unknown_species(self):
        with pytest.raises(KeyError):
            load_defect_table("unobtainium")

    def test_explicit_file(self, tmp_path):
        cfg = tmp_path / "species.cfg"
        cfg.write_text("[cs]\ns = 4.05\n1 = 3.59\n")
        table = load_defect_table("cs", str(cfg))
        assert table.defect(0) == 4.05
        assert table.defect(1) == 3.59

    def test_env_var_search_path(self, tmp_path, monkeypatch):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text("[custom]\nd = 1.0\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        table = load_defect_table("custom")
        assert table.defect(2) == 1.0

    def test_missing_file_errors(self):
        with pytest.raises(FileNotFoundError):
            load_defect_table("hydrogen", "/nonexistent/species.cfg")

    def test_negative_defect_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[bad]\ns = -0.5\n")
        with pytest.raises(ValueError):
            load_defect_table("bad", str(cfg))

    def test_unknown_orbital_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[bad]\nj = 0.5\n")
        with pytest.raises(ValueError):
            load_defect_table("bad", str(cfg))
