import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravatom.hydrogenics import (
    MAX_NODE_COUNT,
    AtomicState,
    QuadratureSpec,
    fsum_dot,
    gauss_laguerre_scaled,
    gauss_legendre_nodes,
    laguerre,
    legendre,
    radial_nodes,
    radial_norm_constant,
    radial_wavefunction,
    spherical_harmonic_m0,
)


class TestAtomicState:
    def test_valid(self):
        s = AtomicState(3, 2, -1)
        assert (s.n, s.l, s.m) == (3, 2, -1)

    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (2, 2, 0), (1, 0, 1), (3, 1, -2)])
    def test_invalid_quantum_numbers(self, n, l, m):
        with pytest.raises(ValueError):
            AtomicState(n, l, m)

    def test_m_defaults_to_zero_and_frozen(self):
        s = AtomicState(2, 1)
        assert s.m == 0
        with pytest.raises(Exception):
            s.n = 5


class TestLaguerre:
    def test_base_cases(self):
        assert laguerre(0, 3, 2.5) == 1.0
        assert laguerre(1, 3, 2.5) == pytest.approx(1 + 3 - 2.5, abs=0)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            order = int(rng.integers(0, 12))
            alpha = int(rng.integers(0, 8))
            x = float(rng.uniform(0.0, 40.0))
            ours = laguerre(order, alpha, x)
            ref = float(mp.laguerre(order, alpha, x))
            worst = max(worst, abs(ours - ref) / max(1.0, abs(ref)))
        assert worst < 1e-11

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.0, 30.0, 17)
        vec = laguerre(4, 2, x)
        assert vec == pytest.approx([laguerre(4, 2, xi) for xi in x])

    @given(st.integers(0, 30), st.integers(0, 20), st.floats(0.0, 60.0))
    def test_scalar_bit_identical_to_array(self, order, alpha, x):
        # a scalar runs the recurrence in Python floats, an array in numpy
        scalar = laguerre(order, alpha, x)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == laguerre(order, alpha, np.array([x]))[0].tobytes()

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)


class TestLegendre:
    @given(st.floats(-1.0, 1.0))
    def test_low_orders(self, x):
        assert legendre(0, x) == 1.0
        assert legendre(1, x) == x
        assert legendre(2, x) == pytest.approx(0.5 * (3 * x * x - 1), abs=1e-15)

    @given(st.integers(0, 30))
    def test_endpoint_values(self, l):
        assert legendre(l, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert legendre(l, -1.0) == pytest.approx((-1.0) ** l, abs=1e-12)

    @given(st.integers(0, 30), st.floats(-60.0, 60.0))
    def test_scalar_bit_identical_to_array(self, l, x):
        scalar = legendre(l, x)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == legendre(l, np.array([x]))[0].tobytes()

    def test_array_result_is_a_new_array(self):
        x = np.linspace(-1.0, 1.0, 5)
        assert legendre(1, x) is not x

    @given(st.integers(0, 20), st.floats(-1.0, 1.0))
    def test_bounded_on_interval(self, l, x):
        assert abs(legendre(l, x)) <= 1.0 + 1e-12


class TestRadialWavefunction:
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (5, 3), (10, 0)])
    def test_normalized(self, n, l):
        r, w = radial_nodes(80, n / 2.0)
        norm = fsum_dot(w, radial_wavefunction(AtomicState(n, l), r) ** 2 * r**2)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_closed_form(self):
        r = np.linspace(0.1, 10.0, 25)
        expected = 2.0 * np.exp(-r)
        assert radial_wavefunction(AtomicState(1, 0), r) == pytest.approx(expected)

    def test_norm_constant_value(self):
        # n=2, l=1: sqrt((1)^3 * 0! / (4 * 3!)) = 1/(2 sqrt(6))
        assert radial_norm_constant(2, 1) == pytest.approx(1.0 / (2.0 * math.sqrt(6.0)))

    def test_scalar_input_gives_scalar(self):
        out = radial_wavefunction(AtomicState(3, 1), 2.0)
        assert isinstance(out, float)


class TestSphericalHarmonic:
    def test_l0_constant(self):
        assert spherical_harmonic_m0(0, 1.234) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi)
        )

    @pytest.mark.parametrize("l,lp", [(0, 0), (1, 1), (3, 3), (0, 2), (1, 3), (2, 5)])
    def test_orthonormality(self, l, lp):
        x, w = gauss_legendre_nodes(64)
        theta = np.arccos(x)
        val = 2.0 * math.pi * fsum_dot(
            w, spherical_harmonic_m0(l, theta) * spherical_harmonic_m0(lp, theta)
        )
        assert val == pytest.approx(1.0 if l == lp else 0.0, abs=1e-12)


class TestGaussLegendre:
    @pytest.mark.parametrize("m", [2, 3, 64, 65, 400, 2048])
    def test_exact_symmetric_and_at_numpys_nodes(self, m):
        from numpy.polynomial.legendre import leggauss

        x, w = gauss_legendre_nodes(m)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.max(np.abs(x - leggauss(m)[0])) <= 2.3e-16
        # int_-1^1 P_l dx = 2 delta_l0, exact through degree 2m - 1
        for l in (0, 2, 4, 40):
            if l <= 2 * m - 1:
                expected = 2.0 if l == 0 else 0.0
                assert abs(math.fsum((w * legendre(l, x)).tolist()) - expected) <= 2e-15, l


class TestGaussLaguerreScaled:
    @pytest.mark.parametrize("m", [2, 10, 200, 400])
    def test_weights_finite_and_positive(self, m):
        x, w = gauss_laguerre_scaled(m)
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("m", [200, 400])
    @pytest.mark.parametrize("j", [0, 1, 7, 25])
    def test_moments_exact(self, m, j):
        # int_0^inf x^j e^{-x} dx = j!
        x, w = gauss_laguerre_scaled(m)
        val = fsum_dot(w, x**j * np.exp(-x))
        assert val == pytest.approx(math.factorial(j), rel=1e-12)

    def test_rejects_tiny_node_count(self):
        with pytest.raises(ValueError):
            gauss_laguerre_scaled(1)

    def test_radial_nodes_scaling(self):
        # int_0^inf e^{-r/3} dr = 3
        r, w = radial_nodes(50, 3.0)
        assert fsum_dot(w, np.exp(-r / 3.0)) == pytest.approx(3.0, rel=1e-13)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.radial_node_count == 200
        assert spec.angular_node_count == 200
        assert spec.target_abs_tolerance == 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"radial_node_count": 1},
        {"angular_node_count": 0},
        {"target_abs_tolerance": 0.0},
        {"target_abs_tolerance": math.nan},
        {"target_abs_tolerance": math.inf},
        {"radial_node_count": 1025},
        {"angular_node_count": 1025},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_largest_node_count_accepted(self):
        spec = QuadratureSpec(radial_node_count=MAX_NODE_COUNT, angular_node_count=MAX_NODE_COUNT)
        assert spec.radial_node_count == spec.angular_node_count == 1024


class TestFsumDot:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_matches_fsum(self, vals):
        v = np.array(vals)
        w = np.ones_like(v)
        assert fsum_dot(w, v) == math.fsum(vals)

    def test_order_independent_given_same_arrays(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(size=1000)
        v = rng.uniform(-1, 1, size=1000)
        assert fsum_dot(w, v) == fsum_dot(w.copy(), v.copy())
