import math
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravatom.distortion import Strain
from gravatom.hydrogenics import AtomicState
from gravatom.rabi import (
    DETUNING_RATIO_SERIES_THRESHOLD,
    RabiConfig,
    Regime,
    deviation_at_cycles,
    deviation_exact,
    deviation_exact_at_cycles,
    deviation_short_time,
    deviation_small_detuning,
    excited_probability,
    figure2_rows,
    figure2_series,
)
from gravatom.transitions import make_transition


class TestExcitedProbability:
    @given(st.floats(1e-3, 1e3), st.floats(0.0, 100.0))
    @settings(max_examples=100)
    def test_bounded(self, omega, t):
        cfg = RabiConfig(omega=omega, detuning=0.3 * omega)
        p = excited_probability(cfg, t)
        assert 0.0 <= p <= 1.0

    def test_resonant_full_transfer(self):
        cfg = RabiConfig(omega=1.0)
        assert excited_probability(cfg, math.pi) == pytest.approx(1.0, abs=1e-15)
        assert excited_probability(cfg, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_detuned_amplitude_suppressed(self):
        cfg = RabiConfig(omega=1.0, detuning=1.0)
        g = math.sqrt(2.0)
        assert excited_probability(cfg, math.pi / g) == pytest.approx(0.5, abs=1e-14)

    def test_guards(self):
        with pytest.raises(ValueError):
            RabiConfig(omega=0.0)
        with pytest.raises(ValueError):
            excited_probability(RabiConfig(omega=1.0), -1.0)


class TestDeviationExact:
    def test_zero_detuning_identically_zero(self):
        cfg = RabiConfig(omega=1.0, detuning=0.0)
        assert deviation_exact(cfg, 12.34) == 0.0

    @given(st.floats(1e-7, 0.3), st.floats(0.0, 50.0))
    @settings(max_examples=100)
    def test_matches_direct_difference_when_resolvable(self, x, t):
        cfg = RabiConfig(omega=1.0, detuning=x)
        direct = math.sin(cfg.omega * t / 2) ** 2 - excited_probability(cfg, t)
        assert deviation_exact(cfg, t) == pytest.approx(direct, abs=1e-12)

    def test_branch_continuity_at_threshold(self):
        t = 7.7
        below = RabiConfig(omega=1.0, detuning=0.99e-6)
        above = RabiConfig(omega=1.0, detuning=1.01e-6)
        d_below = deviation_exact(below, t)
        d_above = deviation_exact(above, t)
        # values straddle the branch switch; they must agree to ~x^2 scale
        assert d_below == pytest.approx(d_above, rel=0.05)

    def test_cancellation_safety_tiny_ratio(self):
        # at x = 1e-12 the direct difference is pure noise; the exact cycle
        # form must match the completed-cycle magnitude to better than 1%
        cfg = RabiConfig(omega=1.0, detuning=1e-12)
        for n in (1, 10, 1000):
            exact = abs(deviation_exact_at_cycles(cfg, n))
            approx = deviation_at_cycles(cfg, n)
            assert exact == pytest.approx(approx, rel=1e-2)

    def test_exact_at_cycles_negative_semidefinite(self):
        cfg = RabiConfig(omega=1.0, detuning=1e-3)
        assert deviation_exact_at_cycles(cfg, 0) == 0.0
        for n in (1, 5, 100):
            assert deviation_exact_at_cycles(cfg, n) <= 0.0

    def test_exact_at_cycles_consistent_with_time_form(self):
        # at x large enough for the time route to resolve the signal the two
        # routes agree
        cfg = RabiConfig(omega=1.0, detuning=1e-2)
        n = 7
        t = 2.0 * math.pi * n / cfg.omega
        assert deviation_exact_at_cycles(cfg, n) == pytest.approx(
            deviation_exact(cfg, t), rel=1e-6, abs=1e-15
        )

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            deviation_exact_at_cycles(RabiConfig(omega=1.0), -1)


class TestApproximations:
    def test_cycle_formula_consistency_at_1e3(self):
        cfg = RabiConfig(omega=1.0, detuning=1e-3)
        for n in (1, 10, 100):
            exact = abs(deviation_exact_at_cycles(cfg, n))
            approx = deviation_at_cycles(cfg, n)
            assert exact == pytest.approx(approx, rel=1e-2)

    def test_short_time_form(self):
        cfg = RabiConfig(omega=2.0, detuning=1e-3)
        t = 3.0
        assert deviation_short_time(cfg, t) == (cfg.detuning**2 * t / (4 * cfg.omega)) ** 2

    def test_small_detuning_reduces_to_short_time(self):
        # for eps << 1 and phi = pi/2 (odd quarter-cycle) the small-detuning
        # bracket reduces to x^2-dominated behaviour consistent with theory
        cfg = RabiConfig(omega=1.0, detuning=1e-4)
        t = math.pi  # sin^2(wt/2) = 1
        small = deviation_small_detuning(cfg, t)
        assert small == pytest.approx(cfg.ratio**2, rel=1e-4)

    def test_small_detuning_warns_out_of_domain(self):
        cfg = RabiConfig(omega=1.0, detuning=0.5)
        with pytest.warns(UserWarning):
            deviation_small_detuning(cfg, 1.0)

    def test_hierarchy_at_quarter_cycle_samples(self):
        # at phi = odd multiples of pi/2 the small-detuning form tracks the
        # exact deviation while the short-time form deviates later
        cfg = RabiConfig(omega=1.0, detuning=1e-3)
        t = 101.0 * math.pi
        exact = abs(deviation_exact(cfg, t))
        small = abs(deviation_small_detuning(cfg, t))
        assert small == pytest.approx(exact, rel=1e-2)


class TestRegime:
    def test_boundary(self):
        cfg = RabiConfig(omega=1.0, detuning=1e-2)
        t_star = math.pi * cfg.omega / cfg.detuning**2
        assert cfg.regime(0.9 * t_star) is Regime.SHORT_TIME
        assert cfg.regime(1.1 * t_star) is Regime.LONG_TIME

    def test_zero_detuning_always_short(self):
        cfg = RabiConfig(omega=1.0)
        assert cfg.regime(1e30) is Regime.SHORT_TIME


class TestFigure2Series:
    def _series(self, n_cycles=200):
        t = make_transition(AtomicState(50, 0), AtomicState(51, 1))
        return figure2_series(t, Strain(1e-20), 2.0 * math.pi * 47e3, n_cycles)

    def test_quadratic_growth(self):
        ser = self._series()
        # |deltaP(N)| = |deltaP(1)| * N^2 at these detunings
        assert abs(ser.exact[99]) / abs(ser.exact[0]) == pytest.approx(1e4, rel=1e-6)

    def test_monotone_magnitude(self):
        ser = self._series()
        mags = [abs(v) for v in ser.exact]
        assert all(a < b for a, b in zip(mags, mags[1:]))

    def test_metadata_complete(self):
        ser = self._series(5)
        for key in ("lower", "upper", "strain", "omega_rad_s", "detuning_rad_s"):
            assert key in ser.metadata

    def test_empty_series(self):
        ser = self._series(0)
        assert ser.abscissa == ()
        assert ser.exact == ()

    def test_exact_vs_cycle_formula_magnitude(self):
        ser = self._series(10)
        for e, a in zip(ser.exact, ser.at_cycles):
            assert abs(e) == pytest.approx(a, rel=1e-6)


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _scalar_rows(cfg, n_max):
    rows = []
    for n in range(1, n_max + 1):
        t = 2.0 * math.pi * n / cfg.omega
        rows.append((
            n, t, deviation_at_cycles(cfg, n), deviation_exact_at_cycles(cfg, n),
            deviation_small_detuning(cfg, t), deviation_short_time(cfg, t),
            cfg.regime(t).value,
        ))
    return rows


class TestFigure2Rows:
    @given(
        st.floats(1e-3, 1e7),
        st.floats(-2.0, 2.0) | st.floats(1e-14, 1e-3) | st.floats(-1e-3, -1e-14),
        st.integers(1, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar_functions(self, omega, ratio, n_max):
        cfg = RabiConfig(omega=omega, detuning=ratio * omega)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = list(figure2_rows(cfg, n_max))
            expected = _scalar_rows(cfg, n_max)
        assert [tuple(map(_bits, r)) for r in rows] == [tuple(map(_bits, r)) for r in expected]

    def test_zero_and_negative_counts(self):
        cfg = RabiConfig(omega=1.0, detuning=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(figure2_rows(cfg, 0)) == []
        with pytest.raises(ValueError, match="n_cycles_max must be >= 0"):
            figure2_rows(cfg, -1)

    def test_warns_once_at_the_call(self):
        cfg = RabiConfig(omega=1.0, detuning=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = figure2_rows(cfg, 50)
            assert len(caught) == 1
            list(rows)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            "small-detuning approximation called at |Delta|/omega = 0.5 > 0.1")

    def test_errors_come_before_the_first_row(self):
        # row 1 is in range, row 3 overflows: the call raises, before any row
        x = math.sqrt(5e153)
        cfg = RabiConfig(omega=1.0, detuning=x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert len(list(figure2_rows(cfg, 1))) == 1
            with pytest.raises(OverflowError):
                figure2_rows(cfg, 3)

    def test_series_materialises_the_rows(self):
        t = make_transition(AtomicState(50, 0), AtomicState(51, 1))
        ser = figure2_series(t, Strain(1e-20), 2.0 * math.pi * 47e3, 300)
        rows = _scalar_rows(ser.config, 300)
        assert ser.abscissa == tuple(r[0] for r in rows)
        assert ser.exact == tuple(r[3] for r in rows)
        assert ser.small_detuning == tuple(r[4] for r in rows)
        assert ser.regime_flags == tuple(Regime(r[6]) for r in rows)
