from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_syzygy_spec
from hkfun.bundle import (
    HNData,
    Polarization,
    SyzygySpec,
    bundle_alpha,
    bundle_density,
    syzygy_pair_density,
)
from hkfun.density import SymmetryClass, symmetry_class
from hkfun.piecewise import Polynomial, tent_function


def test_hn_data_validation():
    with pytest.raises(ValueError):
        HNData((), ())
    with pytest.raises(ValueError):
        HNData((Fraction(1), Fraction(1)), (1, 1))  # not strictly decreasing
    with pytest.raises(ValueError):
        HNData((Fraction(1),), (0,))
    hn = HNData((Fraction(1), Fraction(-1, 2)), (2, 3))
    assert hn.total_rank == 5
    assert hn.total_degree == Fraction(1, 2)
    assert hn.min_slope == Fraction(-1, 2)


def test_trivial_bundle_density():
    # three copies of the structure sheaf against a degree-2 polarization
    f = bundle_density(HNData((Fraction(0),), (3,)), Polarization(2))
    assert f.left_tail == Polynomial([6, -6])  # 6(1-x)
    assert f(Fraction(1, 2)) == 3
    assert f(1) == 0
    assert f(2) == 0


def test_quadric_syzygy_bundle_density():
    f = bundle_density(HNData((Fraction(-1),), (2,)), Polarization(2))
    assert f(1) == 2  # 6 - 4x
    assert f(Fraction(3, 2)) == 0
    assert f.support_sup() == Fraction(3, 2)


def test_bundle_alpha_examples():
    assert bundle_alpha(HNData((Fraction(0),), (1,)), Polarization(2)) == 1
    assert bundle_alpha(HNData((Fraction(-2),), (2,)), Polarization(2)) == 2
    assert bundle_alpha(HNData((Fraction(0), Fraction(-3)), (1, 1)), Polarization(3)) == 2


def test_bundle_density_shape(rng):
    two_step = bundle_density(HNData((Fraction(1), Fraction(-1)), (1, 1)), Polarization(2))
    assert two_step.support_sup() == Fraction(3, 2)
    for _ in range(10):
        parts = rng.randint(1, 4)
        slopes = tuple(sorted({Fraction(rng.randint(-12, 6), rng.randint(1, 4))
                               for _ in range(parts)}, reverse=True))
        ranks = tuple(rng.randint(1, 3) for _ in slopes)
        pol = Polarization(rng.randint(1, 4))
        f = bundle_density(HNData(slopes, ranks), pol)
        assert f.is_continuous
        assert f.support_sup() == 1 - slopes[-1] / pol.degree
        # convex decreasing: piece slopes are -d * (suffix rank sums)
        segs = [f.left_tail, *f.pieces]
        slopes_of_pieces = [seg.coeffs[1] if seg.degree >= 1 else Fraction(0) for seg in segs]
        assert all(a < b for a, b in zip(slopes_of_pieces, slopes_of_pieces[1:]))
        assert f.truncate_before(0).is_nonnegative()


def test_quadric_cone_pair_density():
    spec = SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
                      hn_v=HNData((Fraction(-1),), (2,)))
    pair = syzygy_pair_density(spec)
    assert pair.dim == 2
    assert pair.mult == 2
    assert pair.f.segment_at(Fraction(1, 2)) == Polynomial([0, 2])
    assert pair.f.segment_at(Fraction(5, 4)) == Polynomial([6, -4])
    assert pair.alpha == Fraction(3, 2)
    assert pair.f.integrate(0, 2) == Fraction(3, 2)


def test_regular_pair_reproduces_tent():
    # two degree-1 generators on a degree-1 polarization
    spec = SyzygySpec(mu=2, gen_degree=1, pol=Polarization(1),
                      hn_v=HNData((Fraction(-1),), (1,)))
    pair = syzygy_pair_density(spec)
    assert pair.f == tent_function()


def test_syzygy_density_linear_near_zero(rng):
    for _ in range(10):
        spec = random_syzygy_spec(rng)
        pair = syzygy_pair_density(spec)
        d = spec.pol.degree
        assert pair.f.segment_at(Fraction(1, 2)) == Polynomial([0, d])
        assert pair.f(0) == 0
        assert pair.f.is_nonnegative()


def test_syzygy_spec_validation():
    with pytest.raises(ValueError):
        SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
                   hn_v=HNData((Fraction(-1),), (3,)))  # wrong rank
    with pytest.raises(ValueError):
        SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
                   hn_v=HNData((Fraction(-2),), (2,)))  # wrong degree
    # V is a subsheaf of M: no slope of V above mu(M) = 0
    with pytest.raises(ValueError, match="^largest slope 2 of V exceeds the slope 0 of M$"):
        SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
                   hn_v=HNData((Fraction(2), Fraction(-4)), (1, 1)))
    with pytest.raises(ValueError, match="^largest slope -1/2 of V exceeds the slope -1 of M$"):
        SyzygySpec(mu=3, gen_degree=2, pol=Polarization(1),
                   hn_v=HNData((Fraction(-1, 2), Fraction(-7, 2)), (1, 1)))
    # equality is allowed: a summand of slope mu(M)
    SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
               hn_v=HNData((Fraction(0), Fraction(-2)), (1, 1)))


def test_dichotomy_on_random_syzygy_data(rng):
    for _ in range(50):
        pair = syzygy_pair_density(random_syzygy_spec(rng))
        cls = symmetry_class(pair)
        assert cls in (SymmetryClass.SYMMETRIC_AT_HALF_D,
                       SymmetryClass.STRICTLY_LEFT_HEAVY)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2 ** 32).map(lambda seed: random_syzygy_spec(random.Random(seed))))
# a V slope of 0 = mu(M): V's cut meets M's cut at 1
@example(SyzygySpec(mu=3, gen_degree=1, pol=Polarization(2),
                    hn_v=HNData((Fraction(0), Fraction(-2)), (1, 1))))
@example(SyzygySpec(mu=5, gen_degree=1, pol=Polarization(3),
                    hn_v=HNData((Fraction(0), Fraction(-1)), (1, 3))))
@example(SyzygySpec(mu=3, gen_degree=2, pol=Polarization(1),
                    hn_v=HNData((Fraction(-1), Fraction(-3)), (1, 1))))
@example(SyzygySpec(mu=3, gen_degree=2, pol=Polarization(2),
                    hn_v=HNData((Fraction(-4),), (2,))))
def test_one_pass_syzygy_density_matches_difference(spec):
    """The one-pass builder against the two bundle densities subtracted and
    truncated at 0.  The difference is nonnegative and equals d*x right of
    0, as the spec's checks promise: the builder does not check it."""
    f = (bundle_density(spec.hn_v, spec.pol)
         - bundle_density(spec.hn_m, spec.pol)).truncate_before(0)
    assert syzygy_pair_density(spec).f == f
    assert f.is_nonnegative()
    assert f.segment_at(0) == Polynomial([0, spec.pol.degree])
