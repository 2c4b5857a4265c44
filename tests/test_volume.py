from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import random_parameter_tuple
from hkfun.piecewise import Polynomial, tent_function
from hkfun.volume import BoxSliceSpec, lattice_slice_count, parameter_density, slice_volume


def brute_count(ns, q, m):
    return sum(1 for a in product(*(range(n * q) for n in ns)) if sum(a) == m)


def test_spec_validation():
    with pytest.raises(ValueError):
        BoxSliceSpec(())
    with pytest.raises(ValueError):
        BoxSliceSpec((1, 0))


def test_slice_volume_examples():
    assert slice_volume(BoxSliceSpec((1, 1))) == tent_function()
    v = slice_volume(BoxSliceSpec((1, 1, 1)))
    assert v(Fraction(3, 2)) == Fraction(3, 4)
    v12 = slice_volume(BoxSliceSpec((1, 2)))
    assert v12.segment_at(Fraction(1, 2)) == Polynomial([0, 1])
    assert v12.segment_at(Fraction(3, 2)) == Polynomial([1])
    assert v12.segment_at(Fraction(5, 2)) == Polynomial([3, -1])
    assert v12(4) == 0  # beyond the box
    assert slice_volume(BoxSliceSpec((2, 1, 3)))(7) == 0


def test_slice_volume_of_thirty_unit_edges():
    """30 unit edges: 2^30 subsets, 31 distinct sums.  Unit mass, and zero
    from the sum of the edges on."""
    v = slice_volume(BoxSliceSpec((1,) * 30))
    assert v.integrate(0, 30) == 1
    assert v.support_sup() == 30
    assert v(30) == 0 and v(31) == 0 and v(15) > 0


def test_slice_volume_m1_is_an_indicator():
    v = slice_volume(BoxSliceSpec((3,)))
    assert v(0) == 1
    assert v(Fraction(5, 2)) == 1
    assert v(3) == 0
    assert not v.is_continuous


def test_slice_volume_symmetry_mass_nonneg(rng):
    for _ in range(20):
        ns = random_parameter_tuple(rng, max_dim=4, max_deg=3)
        v = slice_volume(BoxSliceSpec(ns))
        total = sum(ns)
        assert v == v.reflect(total)
        assert v.integrate(0, total) == prod(ns)
        assert v.is_nonnegative()
        if len(ns) >= 2:
            assert v.is_continuous


def test_slice_volume_matches_low_degree_start():
    # x^(m-1)/(m-1)! on [0, min n]
    v = slice_volume(BoxSliceSpec((2, 3, 2, 4)))
    assert v.segment_at(1) == Polynomial([0, 0, 0, Fraction(1, 6)])


def test_lattice_count_examples():
    assert lattice_slice_count(BoxSliceSpec((1, 1)), 4, 3) == 4
    assert lattice_slice_count(BoxSliceSpec((1, 1)), 4, 8) == 0
    # computed by exhaustive enumeration: triples in {0,1}^3 summing to 3
    assert lattice_slice_count(BoxSliceSpec((1, 1, 1)), 2, 3) == 1
    assert lattice_slice_count(BoxSliceSpec((1, 1, 1)), 2, 3) == brute_count((1, 1, 1), 2, 3)
    # the unit-cube slice count at x=3/2, q=64 sits within 2/q of the volume
    count = lattice_slice_count(BoxSliceSpec((1, 1, 1)), 64, 96)
    assert abs(Fraction(count, 64 ** 2) - Fraction(3, 4)) <= Fraction(2, 64)


def test_lattice_count_against_brute_force(rng):
    for _ in range(25):
        ns = random_parameter_tuple(rng, max_dim=3, max_deg=3)
        q = rng.randint(1, 4)
        m = rng.randint(0, sum(ns) * q + 1)
        assert lattice_slice_count(BoxSliceSpec(ns), q, m) == brute_count(ns, q, m)


def test_lattice_count_total_mass(rng):
    for _ in range(10):
        ns = random_parameter_tuple(rng, max_dim=4, max_deg=3)
        q = rng.choice([2, 4, 8])
        total = sum(lattice_slice_count(BoxSliceSpec(ns), q, m)
                    for m in range(sum(ns) * q + 1))
        assert total == prod(n * q for n in ns)


def test_oracle_convergence_with_empirical_constant(rng):
    """count/q^(m-1) approaches the volume at rate O(1/q); the constant grows
    with the box (about (m/2)*max|V'|), so 16 covers every spec in this family
    while 2 does not."""
    for _ in range(6):
        ns = random_parameter_tuple(rng, max_dim=4, max_deg=3)
        spec = BoxSliceSpec(ns)
        v = slice_volume(spec)
        span = sum(ns) + 1
        for q in (8, 16, 32, 64):
            for j in range(1, 21):
                x = Fraction(span * j, 21)
                approx = Fraction(lattice_slice_count(spec, q, int(x * q)),
                                  q ** (len(ns) - 1))
                assert abs(approx - v(x)) <= Fraction(16, q)


def test_parameter_density_examples():
    pd = parameter_density(1, (1, 1))
    assert pd.f == tent_function()
    assert pd.alpha == 2
    assert parameter_density(3, (1, 1)).f(1) == 3
    p112 = parameter_density(1, (1, 1, 2))
    assert p112.alpha == 4
    assert p112.f == p112.f.reflect(4)


def test_parameter_density_validation():
    with pytest.raises(ValueError):
        parameter_density(0, (1, 1))
    with pytest.raises(ValueError):
        parameter_density(1, ())
