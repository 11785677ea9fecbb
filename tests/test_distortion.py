import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravatom.distortion import (
    DecompositionMethod,
    LinearResponseCoefficient,
    SpectralDecomposition,
    Strain,
    closed_form_coefficients,
    closed_form_decomposition,
    distorted_norm_numeric,
    distorted_wavefunction,
    laguerre_shift_identity_check,
    numeric_decomposition,
    overlap_numeric,
    series_decomposition,
    strain_factor,
    theta_component,
    theta_fraction,
)
from gravatom import distortion, hydrogenics, verification
from gravatom.hydrogenics import (
    AtomicState,
    QuadratureConvergenceError,
    QuadratureSpec,
    gauss_legendre_nodes,
)


class TestStrain:
    def test_zero_strain_is_identity(self):
        theta = np.linspace(0.0, math.pi, 11)
        assert strain_factor(theta, Strain(0.0)) == pytest.approx(np.ones(11), abs=0)

    @given(st.floats(-0.4, 0.4), st.floats(0.0, math.pi))
    @settings(max_examples=100)
    def test_factor_positive_and_bounded(self, sp, theta):
        a = strain_factor(theta, Strain(sp))
        assert 0.0 < a
        lo, hi = sorted(((1 - sp), (1 + sp)))
        assert lo - 1e-12 <= a <= hi + 1e-12

    def test_poles_and_equator(self):
        # along the propagation axis A = 1 - S_p; in-plane A = 1 + S_p
        sp = 0.01
        assert strain_factor(0.0, Strain(sp)) == pytest.approx(1.0 - sp, rel=1e-14)
        assert strain_factor(math.pi / 2, Strain(sp)) == pytest.approx(1.0 + sp, rel=1e-14)

    @given(st.floats(-0.4, 0.4), st.floats(0.0, math.pi))
    @settings(max_examples=50)
    def test_reflection_symmetry(self, sp, theta):
        s = Strain(sp)
        assert strain_factor(theta, s) == pytest.approx(
            strain_factor(math.pi - theta, s), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("sp", [0.5, -0.5, 0.7])
    def test_domain_guard(self, sp):
        with pytest.raises(ValueError):
            Strain(sp)


class TestDistortedWavefunction:
    def test_zero_strain_equals_unperturbed(self):
        src = AtomicState(3, 1)
        r = np.linspace(0.1, 20.0, 7)
        theta = 0.8
        from gravatom.hydrogenics import radial_wavefunction, spherical_harmonic_m0

        expected = radial_wavefunction(src, r) * spherical_harmonic_m0(1, theta)
        assert distorted_wavefunction(src, Strain(0.0), r, theta) == pytest.approx(expected)

    def test_rejects_m_nonzero(self):
        with pytest.raises(ValueError):
            distorted_wavefunction(AtomicState(2, 1, 1), Strain(0.01), 1.0, 1.0)


class TestLinearResponseCoefficient:
    def test_tiny_strain_exact(self):
        c = LinearResponseCoefficient(-21.0, 1.0)
        assert c.at(1e-20) == 1.0 - 21.0e-20
        assert c.at(0.0) == 1.0

    def test_zeroth_order_guard(self):
        with pytest.raises(ValueError):
            LinearResponseCoefficient(1.0, 0.5)


class TestThetaComponent:
    def test_k0_l0_is_one(self):
        assert theta_component(0, 0) == pytest.approx(1.0, abs=1e-14)

    @given(st.integers(0, 8), st.integers(0, 16))
    @settings(max_examples=60)
    def test_selection_rules(self, k, l):
        if l % 2 == 1 or l > 2 * k:
            assert theta_component(k, l) == 0.0

    def test_known_values(self):
        assert theta_component(1, 0) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert theta_component(1, 2) == pytest.approx(4.0 / 15.0, abs=1e-14)
        assert theta_component(3, 6) == pytest.approx(128.0 / 3003.0, abs=1e-14)

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            theta_component(13, 0)
        with pytest.raises(ValueError):
            theta_component(-1, 0)

    def test_correctly_rounded_exact_value(self, exact_theta):
        for k in range(13):
            for l in range(2 * k + 3):
                exact = exact_theta(k, l)
                assert theta_fraction(k, l) == exact, (k, l)
                assert theta_component(k, l) == float(exact), (k, l)


class TestClosedForm:
    def test_slopes_n3(self):
        cf = closed_form_coefficients(AtomicState(3, 0), Strain(0.0))
        assert cf.c0.value_at_unit_strain == pytest.approx(-64.0 / 3.0, rel=1e-15)
        # 4(n0+1)/(3(n0+2)^2) sqrt((n0^2-1)(n0^2-4)/5) at n0 = 3
        expected_c2 = (16.0 / 75.0) * math.sqrt(8.0)
        assert cf.c_plus2.value_at_unit_strain == pytest.approx(expected_c2, rel=1e-12)
        assert cf.c_minus2.value_at_unit_strain == 0.0

    def test_out_of_range_targets_zero(self):
        cf = closed_form_coefficients(AtomicState(2, 0), Strain(0.0))
        assert cf.c_plus2.value_at_unit_strain == 0.0  # no (2, 2) state
        cf = closed_form_coefficients(AtomicState(3, 1), Strain(0.0))
        assert cf.c_plus2.value_at_unit_strain == 0.0  # no (3, 3) state
        assert cf.c_minus2.value_at_unit_strain == 0.0  # l0 < 2

    def test_warns_outside_linearity(self):
        with pytest.warns(UserWarning):
            closed_form_coefficients(AtomicState(8, 0), Strain(0.01))

    def test_decomposition_entries_sorted_and_normish(self):
        dec = closed_form_decomposition(AtomicState(5, 2), Strain(1e-6))
        ls = [s.l for s, _ in dec.entries]
        assert ls == sorted(ls) == [0, 2, 4]
        # the printed C-2 slope is large (~2.4e4 here), so the norm defect is
        # dominated by C-2^2 even at this small strain
        assert dec.norm_sum == pytest.approx(1.0, abs=1e-2)
        assert dec.method is DecompositionMethod.CLOSED_FORM


class TestSeriesRoute:
    @pytest.mark.parametrize("n0", range(3, 9))
    def test_matches_closed_form_at_k1(self, n0):
        sp = 1e-4
        sd = series_decomposition(AtomicState(n0, 0), Strain(sp), k_max=1)
        cf = closed_form_coefficients(AtomicState(n0, 0), Strain(sp))
        assert sd.coefficient(AtomicState(n0, 0)) == pytest.approx(
            cf.c0.at(sp), rel=1e-12
        )
        assert sd.coefficient(AtomicState(n0, 2)) == pytest.approx(
            cf.c_plus2.at(sp), rel=1e-12
        )

    def test_l6_entry_scales_as_strain_cubed(self):
        # the l = 6 coefficient first appears at k = 3, hence scales as S_p^3
        # at that truncation (needs n0 >= 7 for the target to exist); s_p n0^3
        # is above 1 here, so the route warns that the expansion is meaningless
        src = AtomicState(8, 0)
        with pytest.warns(UserWarning, match="outside its validity range"):
            c1 = series_decomposition(src, Strain(1e-2), k_max=3).coefficient(AtomicState(8, 6))
            c2 = series_decomposition(src, Strain(2e-2), k_max=3).coefficient(AtomicState(8, 6))
        assert c2 / c1 == pytest.approx(8.0, rel=1e-12)

    def test_rejects_nonzero_l0_and_bad_kmax(self):
        with pytest.raises(ValueError):
            series_decomposition(AtomicState(3, 1), Strain(1e-4), k_max=2)
        with pytest.raises(ValueError):
            series_decomposition(AtomicState(3, 0), Strain(1e-4), k_max=0)

    def test_odd_l_absent(self):
        sd = series_decomposition(AtomicState(5, 0), Strain(1e-3), k_max=3)
        assert all(s.l % 2 == 0 for s, _ in sd.entries)

    @pytest.mark.parametrize("sp", [1e-3, -1e-3])
    def test_warns_outside_validity(self, sp):
        # the terms grow as (s_p n0^3)^k / k!; the k = 1 term is 1.8e3 here
        with pytest.warns(UserWarning, match="first-order term of 1.82e\\+03"):
            sd = series_decomposition(AtomicState(175, 0), Strain(sp), k_max=3)
        assert all(math.isfinite(c) for _, c in sd.entries)

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_benchmark_series_inputs_do_not_warn(self, k_max):
        # the verify workload draws n0 in 2..30 and |s_p| <= 0.03 / (n0 + 1)^3,
        # a first-order change s_p (n0 + 1)^3 / 3 of at most 1%
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n0 in range(2, 31):
                for sp in (0.03 / (n0 + 1) ** 3, -0.03 / (n0 + 1) ** 3):
                    series_decomposition(AtomicState(n0, 0), Strain(sp), k_max=k_max)

    @pytest.mark.parametrize("k_max", [1, 3, 12])
    @pytest.mark.parametrize("n0", [2, 7, 30])
    def test_matches_exact_reference(self, series_reference, n0, k_max):
        # strains keep the first-order change s_p (n0+1)^3 / 3 below 1%
        for sp in (1e-2 / (n0 + 1) ** 3, -3e-3 / (n0 + 1) ** 3):
            sd = series_decomposition(AtomicState(n0, 0), Strain(sp), k_max=k_max)
            assert [s.l for s, _ in sd.entries] == list(range(0, min(2 * k_max, n0 - 1) + 1, 2))
            for state, c in sd.entries:
                ref = series_reference(n0, state.l, sp, k_max)
                assert abs(c - ref) <= 1e-14 * abs(ref), (state, sp)

    def test_series_and_table1_use_no_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature rule was requested")

        for module in (hydrogenics, distortion, verification):
            for name in ("gauss_legendre_nodes", "gauss_laguerre_scaled", "radial_nodes"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_quadrature)
        for cached in (theta_fraction, theta_component, distortion._series_radial_factor):
            cached.cache_clear()
        with pytest.raises(AssertionError):  # the patch reaches the oracle
            overlap_numeric(AtomicState(2, 0), AtomicState(2, 0), Strain(1e-3))
        for n0 in (2, 7, 30, 175):
            sd = series_decomposition(AtomicState(n0, 0), Strain(1e-9), k_max=12)
            assert all(math.isfinite(c) for _, c in sd.entries)
        rows, ok = verification.table1_report()
        assert len(rows) == 16 and not ok


class TestLaguerreShiftIdentity:
    @given(
        st.integers(1, 8),
        st.floats(0.95, 1.05),
        st.floats(0.01, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_identity_holds(self, n0, a, r):
        lhs, rhs = laguerre_shift_identity_check(n0, a, r, truncation_tol=1e-16)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_zero_term_does_not_truncate(self):
        # at x = 2r/n0 = 3 the k = 1 term (2 + k - x) h vanishes; the k >= 2
        # terms still carry the e^{h} factor of the closed form 2 - x + h
        lhs, rhs = laguerre_shift_identity_check(2, 0.96875, 3.0, truncation_tol=1e-16)
        assert lhs == -0.90625
        assert rhs == pytest.approx(lhs, rel=1e-14)

    def test_trivial_at_unit_factor(self):
        lhs, rhs = laguerre_shift_identity_check(5, 1.0, 3.0)
        assert lhs == rhs


class TestNumericOracle:
    QUAD = QuadratureSpec(radial_node_count=120, angular_node_count=120)

    def test_zero_strain_orthonormal(self):
        src = AtomicState(3, 0)
        assert overlap_numeric(src, src, Strain(0.0), self.QUAD) == pytest.approx(
            1.0, abs=1e-12
        )
        assert overlap_numeric(AtomicState(4, 0), src, Strain(0.0), self.QUAD) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_zero_strain_is_exactly_delta(self):
        src = AtomicState(3, 0)
        assert overlap_numeric(src, src, Strain(0.0), self.QUAD) == 1.0
        assert overlap_numeric(AtomicState(5, 2), src, Strain(0.0), self.QUAD) == 0.0

    @pytest.mark.parametrize(
        "target,source,sp",
        [
            ((4, 2), (3, 0), 1e-3),
            ((3, 0), (3, 0), 0.2),
            ((5, 1), (4, 1), -0.05),
            ((6, 4), (6, 2), 0.01),
            ((7, 3), (2, 1), -0.3),
        ],
        ids=["4d<-3s", "3s<-3s", "5p<-4p", "6g<-6d", "7f<-2p"],
    )
    def test_matches_mpmath_reference(self, oracle_reference, target, source, sp):
        value = overlap_numeric(AtomicState(*target), AtomicState(*source), Strain(sp), self.QUAD)
        expected = float(oracle_reference.reference_overlap(target, source, sp))
        assert value == pytest.approx(expected, rel=1e-11)

    def test_odd_delta_l_vanishes(self):
        val = overlap_numeric(AtomicState(3, 1), AtomicState(3, 0), Strain(1e-3), self.QUAD)
        assert val == pytest.approx(0.0, abs=1e-13)

    def test_cross_n_coupling_is_linear(self):
        vals = [
            overlap_numeric(AtomicState(4, 2), AtomicState(3, 0), Strain(sp), self.QUAD) / sp
            for sp in (1e-4, 1e-5)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)

    def test_nonconvergence_raises(self):
        # absurdly tight tolerance at low node count cannot be certified
        quad = QuadratureSpec(
            radial_node_count=4, angular_node_count=4, target_abs_tolerance=1e-16
        )
        with pytest.raises(QuadratureConvergenceError):
            overlap_numeric(AtomicState(6, 2), AtomicState(6, 0), Strain(1e-2), quad)

    def test_norm_close_to_one(self):
        norm = distorted_norm_numeric(AtomicState(3, 0), Strain(1e-3), self.QUAD)
        assert norm == pytest.approx(1.0, abs=1e-2)
        assert norm != 1.0  # the map is not unitary

    @pytest.mark.parametrize("n,l,sp", [(1, 0, 1e-3), (3, 2, -0.05), (6, 5, 0.2)])
    def test_norm_matches_mpmath_reference(self, oracle_reference, n, l, sp):
        # the radial integral of |R(r A)|^2 r^2 is A^-3, leaving a 1-D angular one
        mp = oracle_reference.mp
        with mp.workdps(30):
            s = mp.mpf(sp)
            expected = mp.mpf(2 * l + 1) / 2 * mp.quad(
                lambda x: mp.legendre(l, x) ** 2 / oracle_reference.strain_factor(x, s) ** 3,
                [-1, 0, 1],
            )
        norm = distorted_norm_numeric(AtomicState(n, l), Strain(sp))
        assert norm == pytest.approx(float(expected), rel=1e-11)

    def test_decomposition_invariants(self):
        dec = numeric_decomposition(
            AtomicState(3, 0), Strain(1e-3), self.QUAD, delta_n=2, l_max=4
        )
        keys = [(s.n, s.l) for s, _ in dec.entries]
        assert keys == sorted(keys)
        assert dec.method is DecompositionMethod.NUMERIC_ORACLE
        assert dec.direct_norm is not None
        dom, coeff = dec.dominant_entry()
        assert (dom.n, dom.l) == (3, 0)
        assert coeff == pytest.approx(1.0, abs=1e-2)

    def test_deterministic(self):
        args = (AtomicState(3, 2), AtomicState(3, 0), Strain(1e-3), self.QUAD)
        assert overlap_numeric(*args) == overlap_numeric(*args)


def _projected_reference(oracle_reference, target, source, sp, m):
    """The oracle's angular sum on its own folded m-node rule, with I(A) - I(1)
    from the reference's exact integer moments at 40 digits:
    2 pi sum_i w_i Y_t(x_i) Y_s(x_i) (I(A(x_i)) - I(1)) + delta_ts."""
    mp = oracle_reference.mp
    (nt, lt), (ns, ls) = target, source
    moments = oracle_reference.radial_moments(target, source)
    x, w = distortion._half_legendre_nodes(m)
    with mp.workdps(40):
        def radial(a):  # I(A) / (N_t N_s)
            return mp.fsum(q * a**ks / (ns + nt * a) ** (p + 3)
                           for p, row in moments.items() for ks, q in enumerate(row) if q)

        s, one = mp.mpf(sp), radial(mp.mpf(1))
        norm = oracle_reference.radial_norm(nt, lt) * oracle_reference.radial_norm(ns, ls)
        total = mp.fsum(
            wi * mp.legendre(lt, xi) * mp.legendre(ls, xi)
            * (radial(oracle_reference.strain_factor(mp.mpf(xi), s)) - one)
            for xi, wi in zip(x.tolist(), w.tolist())
        )
        value = mp.sqrt((2 * lt + 1) * (2 * ls + 1)) / 2 * norm * total
        return float(value) + (1.0 if target == source else 0.0)


class TestBatchedWindow:
    """The window is evaluated one n at a time, every l of that n on one
    d = beta - beta1 and the Taylor coefficients cached per pair; values must
    not move."""

    # fine angular rules of 66, 130, 260 and 1000 nodes: odd and even halves
    @pytest.mark.parametrize("n0", range(1, 13))
    @pytest.mark.parametrize("sp", [2e-3, -0.04])
    def test_decomposition_matches_per_target_formula(self, n0, sp):
        m_ang = 500 if n0 == 12 else (33, 65, 130)[n0 % 3]
        quad = QuadratureSpec(angular_node_count=m_ang, target_abs_tolerance=1.0)
        source = AtomicState(n0, n0 // 3)
        dec = numeric_decomposition(source, Strain(sp), quad)
        assert len(dec.entries) == sum(
            min(10, n - 1) + 1 for n in range(max(1, n0 - 4), n0 + 5))
        distortion._radial_taylor.cache_clear()
        for target, c in dec.entries:
            assert c == overlap_numeric(target, source, Strain(sp), quad), target

    @pytest.mark.parametrize("m_ang", [3, 33, 65])
    def test_overlap_matches_per_target_formula(self, oracle_reference, m_ang):
        # the exact radial core at a large strain, apart from the angular rule
        quad = QuadratureSpec(angular_node_count=m_ang, target_abs_tolerance=1.0)
        for target, source in [((4, 2), (3, 0)), ((3, 0), (3, 0)), ((7, 3), (2, 1))]:
            value = overlap_numeric(AtomicState(*target), AtomicState(*source), Strain(0.2), quad)
            expected = _projected_reference(oracle_reference, target, source, 0.2, 2 * m_ang)
            assert value == pytest.approx(expected, rel=1e-13, abs=1e-16), (target, source)

    def test_default_grid_memory(self):
        # the whole-grid evaluation on the 200-node radial rule peaked at 7.8 MB
        for m in (200, 400):  # the cached rules are built outside the trace
            gauss_legendre_nodes(m)
        tracemalloc.start()
        try:
            numeric_decomposition(AtomicState(12, 3), Strain(1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestExactRadialCore:
    """The radial integral as exact Taylor coefficients in d = beta - beta1."""

    # pairs across n, l and strain down to s_p = 1e-10, then the Rydberg pair
    # the detuning claims name
    @pytest.mark.parametrize("target,source,sp", [
        ((3, 2), (3, 0), 1e-10),
        ((3, 2), (3, 0), 1e-5),
        ((5, 1), (4, 1), -0.05),
        ((16, 4), (14, 2), -0.3),
        ((10, 5), (12, 3), 1e-3),
        ((32, 2), (30, 2), 1e-3),
        ((50, 2), (50, 0), 1e-8),
    ])
    def test_matches_reference(self, oracle_reference, target, source, sp):
        value = overlap_numeric(AtomicState(*target), AtomicState(*source), Strain(sp))
        expected = float(oracle_reference.reference_overlap(target, source, sp))
        assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 50, 110])
    def test_same_n_delta_l2_first_order_is_exactly_zero(self, n):
        # <R_{n,2}| r d/dr |R_{n,0}> = 0: the (n,2) <- (n,0) overlap is quadratic in s_p
        coeffs, _ = distortion._radial_taylor(n, 2, n, 0)
        assert coeffs[0] == 0.0 and coeffs[1] != 0.0
        assert distortion._radial_taylor(n + 1, 2, n, 0)[0][0] != 0.0

    def test_overflowing_coefficient_names_its_pair(self, monkeypatch):
        coeffs, logs = distortion._radial_taylor(4, 2, 3, 0)
        monkeypatch.setattr(distortion, "_radial_taylor", lambda *args: (
            (math.inf, *coeffs[1:]), (1100.0, *logs[1:])))
        with pytest.raises(OverflowError, match=r"\(4,2,0\) <- \(3,0,0\)"):
            overlap_numeric(AtomicState(4, 2), AtomicState(3, 0), Strain(1e-3))


class TestSpectralDecompositionType:
    def test_rejects_nonzero_m_entries(self):
        with pytest.raises(ValueError):
            SpectralDecomposition(
                source=AtomicState(2, 0),
                strain=Strain(0.0),
                entries=((AtomicState(2, 1, 1), 0.1),),
                method=DecompositionMethod.CLOSED_FORM,
                k_max=0,
                norm_sum=0.01,
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpectralDecomposition(
                source=AtomicState(2, 0),
                strain=Strain(0.0),
                entries=((AtomicState(2, 0), math.nan),),
                method=DecompositionMethod.CLOSED_FORM,
                k_max=0,
                norm_sum=0.0,
            )

    def test_coefficient_lookup_default_zero(self):
        dec = closed_form_decomposition(AtomicState(3, 0), Strain(1e-4))
        assert dec.coefficient(AtomicState(7, 0)) == 0.0
