import math

from gravatom import verification
from gravatom.hydrogenics import (
    AtomicState,
    fsum_dot,
    gauss_legendre_nodes,
    legendre,
    radial_nodes,
    radial_wavefunction,
)
from gravatom.verification import basis_report, radial_overlaps, spherical_overlaps


def per_pair_radial(n, np_, l, nodes=64):
    """One radial overlap on its own transformed Laguerre rule."""
    r, w = radial_nodes(nodes, 1.0 / (1.0 / n + 1.0 / np_))
    values = radial_wavefunction(AtomicState(n, l), r) * radial_wavefunction(AtomicState(np_, l), r)
    return fsum_dot(w, values * r**2)


def per_pair_spherical(l, lp, nodes=64):
    """One angular overlap on its own Gauss-Legendre rule."""
    x, w = gauss_legendre_nodes(nodes)
    norm = math.sqrt((2 * l + 1) * (2 * lp + 1)) / (4.0 * math.pi)
    return 2.0 * math.pi * norm * fsum_dot(w, legendre(l, x) * legendre(lp, x))


class TestBatchedOverlaps:
    def test_radial_bit_identical_to_per_pair(self):
        batched = radial_overlaps(20, 5)
        assert len(batched) == 980
        assert list(batched) == [(n, np_, l) for l in range(6) for n in range(l + 1, 21)
                                 for np_ in range(n, 21)]
        for (n, np_, l), value in batched.items():
            assert value == per_pair_radial(n, np_, l), (n, np_, l)

    def test_spherical_bit_identical_to_per_pair(self):
        batched = spherical_overlaps(16)
        assert len(batched) == 153
        assert list(batched) == [(l, lp) for l in range(17) for lp in range(l, 17)]
        for (l, lp), value in batched.items():
            assert value == per_pair_spherical(l, lp), (l, lp)

    def test_empty_ranges(self):
        assert radial_overlaps(0, 3) == {}
        assert list(radial_overlaps(2, 4)) == [(1, 1, 0), (1, 2, 0), (2, 2, 0), (2, 2, 1)]
        assert list(spherical_overlaps(0)) == [(0, 0)]


def test_basis_report_evaluates_each_function_once_per_factor(monkeypatch):
    """Per l, R_{n,l} once per factor position (210 calls) and each P_l once (17)."""
    calls = {"radial": 0, "legendre": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verification, "radial_wavefunction",
                        counted("radial", verification.radial_wavefunction))
    monkeypatch.setattr(verification, "legendre", counted("legendre", verification.legendre))
    rows, ok = basis_report()
    assert ok, rows
    assert calls["radial"] <= 210
    assert calls["legendre"] <= 17
