from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import combine_by_lookup, random_parameter_tuple, random_syzygy_spec, \
    subtract_by_negation
from hkfun.bundle import syzygy_pair_density
from hkfun.density import (
    PairDensity,
    RegularityVerdict,
    SymmetryClass,
    ceiling_polynomial,
    frobenius_bracket_scale,
    regularity_verdict,
    segre,
    symmetry_class,
)
from hkfun.piecewise import PiecewisePolynomial, Polynomial, is_positive_on_open
from hkfun.verify import quadric_cone_pair
from hkfun.volume import parameter_density


def tent_pair():
    return parameter_density(1, (1, 1))


def test_ceiling_examples():
    assert ceiling_polynomial(1, 2) == Polynomial([0, 1])
    assert ceiling_polynomial(1, 3)(1) == Fraction(1, 2)
    assert ceiling_polynomial(6, 2)(1) == 6


def test_pair_density_validation():
    with pytest.raises(ValueError):
        PairDensity(dim=2, mult=1, f=PiecewisePolynomial.zero())
    step = PiecewisePolynomial.on_interval(0, 1, Polynomial([1]))
    with pytest.raises(ValueError):
        PairDensity(dim=2, mult=1, f=step)  # discontinuous in dim 2
    PairDensity(dim=1, mult=1, f=step)  # fine in dim 1
    shifted = PiecewisePolynomial.on_interval(-1, 1, Polynomial([1, 1]))
    with pytest.raises(ValueError):
        PairDensity(dim=2, mult=1, f=shifted)  # mass on the negative axis


def test_segre_of_two_tents():
    s = segre(tent_pair(), tent_pair())
    assert s.dim == 3
    assert s.mult == 2
    assert s.f.segment_at(Fraction(1, 2)) == Polynomial([0, 0, 1])
    assert s.f.segment_at(Fraction(3, 2)) == Polynomial([-4, 8, -3])
    assert s.f.integrate(0, 2) == Fraction(4, 3)
    assert s.alpha == 2  # max of the two supports


def test_segre_rejects_dimension_one():
    with pytest.raises(ValueError):
        segre(parameter_density(1, (2,)), tent_pair())


def test_segre_commutative_associative(rng):
    pairs = [parameter_density(rng.randint(1, 3), random_parameter_tuple(rng, 3, 3))
             for _ in range(3)]
    pairs = [p if p.dim >= 2 else parameter_density(p.mult, (1, 2)) for p in pairs]
    a, b, c = pairs
    assert segre(a, b).f == segre(b, a).f
    assert segre(segre(a, b), c).f == segre(a, segre(b, c)).f
    assert segre(a, b).mult == segre(b, a).mult


def test_segre_alpha_is_max(rng):
    for _ in range(10):
        a = parameter_density(rng.randint(1, 2), random_parameter_tuple(rng, 3, 3))
        b = parameter_density(rng.randint(1, 2), random_parameter_tuple(rng, 3, 3))
        if a.dim < 2 or b.dim < 2:
            continue
        assert segre(a, b).alpha == max(a.alpha, b.alpha)


def test_density_below_ceiling(rng):
    pairs = [tent_pair(), quadric_cone_pair(), segre(tent_pair(), tent_pair())]
    for _ in range(5):
        ns = random_parameter_tuple(rng, 4, 3)
        if len(ns) >= 2:
            pairs.append(parameter_density(rng.randint(1, 3), ns))
    for p in pairs:
        cap = ceiling_polynomial(p.mult, p.dim)
        for _ in range(200):
            x = Fraction(rng.randint(0, 12 * 64), 64)
            assert 0 <= p.f(x) <= cap(x)
        assert p.f.is_continuous


def test_frobenius_bracket_scale():
    tent = tent_pair()
    scaled = frobenius_bracket_scale(tent, 2)
    assert scaled.alpha == 4
    assert scaled.f(2) == 2
    assert scaled.f.support_sup() == 4
    assert frobenius_bracket_scale(tent, 1).f == tent.f
    assert frobenius_bracket_scale(tent, 3).alpha == 3 * tent.alpha


def test_frobenius_scale_integral_factor(rng):
    for _ in range(8):
        ns = random_parameter_tuple(rng, 4, 3)
        p = parameter_density(rng.randint(1, 3), ns)
        q0 = rng.choice([2, 3, 4, 5])
        scaled = frobenius_bracket_scale(p, q0)
        lo, hi = Fraction(0), p.alpha
        assert scaled.f.integrate(0, q0 * hi) == q0 ** p.dim * p.f.integrate(lo, hi)


def test_symmetry_classes():
    assert symmetry_class(tent_pair()) is SymmetryClass.SYMMETRIC_AT_HALF_D
    assert symmetry_class(quadric_cone_pair()) is SymmetryClass.STRICTLY_LEFT_HEAVY
    assert symmetry_class(parameter_density(1, (1, 2))) is SymmetryClass.OTHER


GRID = [Fraction(k, 64) for k in range(1, 64)]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_left_heavy_verdict_holds_on_sample_grid(seed):
    # a 1/64 grid is a necessary condition only: a left-heavy verdict must
    # never meet a grid point where f(1 - y) <= f(1 + y)
    pair = syzygy_pair_density(random_syzygy_spec(random.Random(seed)))
    if symmetry_class(pair) is SymmetryClass.STRICTLY_LEFT_HEAVY:
        assert all(pair.f(1 - y) > pair.f(1 + y) for y in GRID)


def linear_pair(nodes, mult=1):
    """The dimension-2 density through the nodes (x, y), linear between them
    and zero outside."""
    pieces = [Polynomial([y0 - x0 * (y1 - y0) / (x1 - x0), (y1 - y0) / (x1 - x0)])
              for (x0, y0), (x1, y1) in zip(nodes, nodes[1:])]
    return PairDensity(dim=2, mult=mult,
                       f=PiecewisePolynomial([x for x, _ in nodes], pieces))


# f(1 - y) - f(1 + y) is 3y/2 on (0, 1/6), 1/2 - 3y/2 on (1/6, 1/3) and
# positive after: it reaches 0 only at the breakpoint y = 1/3
TOUCHING_ZERO_NODES = [(0, 0), (Fraction(2, 3), 2), (1, 3), (Fraction(7, 6), Fraction(9, 4)),
                       (Fraction(4, 3), 2), (Fraction(3, 2), 0)]


def test_symmetry_touching_zero_off_grid():
    # no grid point hits y = 1/3, so the exact analysis alone rejects the density
    pair = linear_pair(TOUCHING_ZERO_NODES, mult=3)
    diff = [pair.f(1 - y) - pair.f(1 + y) for y in GRID]
    assert all(d > 0 for d in diff)
    assert pair.f(Fraction(2, 3)) == pair.f(Fraction(4, 3))
    assert symmetry_class(pair) is SymmetryClass.OTHER


def test_regularity_verdict():
    assert regularity_verdict(tent_pair()) is RegularityVerdict.REGULAR_CERTIFIED
    assert regularity_verdict(quadric_cone_pair()) is RegularityVerdict.NOT_REGULAR
    assert regularity_verdict(parameter_density(1, (1, 1, 1))) is \
        RegularityVerdict.REGULAR_CERTIFIED


def test_pair_json_round_trip():
    s = segre(tent_pair(), quadric_cone_pair())
    blob = s.to_dict()
    back = PairDensity.from_dict(blob)
    assert back == s
    assert back.f == s.f


@st.composite
def pair_densities(draw):
    """Parameter-ideal densities of dimension 1-3, with any provenance text."""
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    pair = parameter_density(draw(st.integers(1, 3)), degrees)
    return dataclasses.replace(pair, provenance=draw(st.text(max_size=12)))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(pair_densities())
def test_json_round_trip_property(pair):
    data = json.loads(json.dumps(pair.to_dict()))
    assert PairDensity.from_dict(data) == pair


def _symmetry_by_reflection(p):
    """symmetry_class the slow way: compare f with its whole reflection, then
    subtract the two whole compositions f(1 - y) and f(1 + y) and analyse the
    sign of the difference between its breakpoints and at them."""
    f = p.f
    if f == f.reflect(p.dim):
        return SymmetryClass.SYMMETRIC_AT_HALF_D
    if p.dim != 2:
        return SymmetryClass.OTHER
    diff = combine_by_lookup(f.compose_affine(-1, 1), f.compose_affine(1, 1),
                             subtract_by_negation)
    cuts = [Fraction(0)] + [b for b in diff.breakpoints if 0 < b < 1] + [Fraction(1)]
    for u, v in zip(cuts, cuts[1:]):
        if not is_positive_on_open(diff.segment_at(u), u, v):
            return SymmetryClass.OTHER
    if any(diff(b) <= 0 for b in cuts[1:-1]):
        return SymmetryClass.OTHER
    return SymmetryClass.STRICTLY_LEFT_HEAVY


@st.composite
def linear_densities(draw):
    """Dimension-2 densities linear between nodes on a 1/6 grid, from (0, 0)
    to a last node of height 0, so that cuts 1 - b and b - 1 of different
    breakpoints b often coincide.  Three kinds: free heights; mirrored about
    1; and peaked at 1, rising before and falling after it, where kinks of
    either sign meet left-heavy and nearly left-heavy shapes."""
    kind = draw(st.sampled_from(["free", "mirrored", "peaked"]))
    heights = st.integers(0, 4)
    if kind == "free":
        xs = sorted(draw(st.sets(st.integers(1, 17), min_size=1, max_size=6)))
        nodes = [(Fraction(x, 6), draw(heights)) for x in xs]
        nodes.append((nodes[-1][0] + Fraction(1, 6), 0))
    elif kind == "mirrored":
        xs = sorted(draw(st.sets(st.integers(1, 5), max_size=4)))
        left = [(Fraction(x, 6), draw(heights)) for x in xs]
        nodes = left + [(Fraction(1), draw(heights))] + \
            [(2 - x, y) for x, y in reversed(left)] + [(Fraction(2), 0)]
    else:
        before = sorted(draw(st.sets(st.integers(1, 5), max_size=3)))
        after = sorted(draw(st.sets(st.integers(7, 12), min_size=1, max_size=3)))
        rise = sorted(draw(st.lists(st.integers(0, 8), min_size=len(before),
                                    max_size=len(before))))
        fall = sorted(draw(st.lists(st.integers(0, 8), min_size=len(after) - 1,
                                    max_size=len(after) - 1)), reverse=True) + [0]
        nodes = [(Fraction(x, 6), y) for x, y in zip(before, rise)] + \
            [(Fraction(1), 9)] + [(Fraction(x, 6), y) for x, y in zip(after, fall)]
    assume(any(y for _, y in nodes))
    return linear_pair([(Fraction(0), 0)] + nodes)


@st.composite
def curved_densities(draw):
    """A ``linear_densities`` density with a bump k*(x - a)(x - b) added on
    some of its pieces [a, b): continuous, and with at least one quadratic
    piece, so that the symmetry test builds g and runs Sturm there."""
    f = draw(linear_densities()).f
    bounds = list(zip(f.breakpoints, f.breakpoints[1:]))
    bumped = draw(st.sets(st.integers(0, len(bounds) - 1), min_size=1))
    pieces = [seg + Polynomial([a * b, -a - b, 1]) * draw(st.integers(-6, 6).filter(bool))
              if i in bumped else seg
              for i, (seg, (a, b)) in enumerate(zip(f.pieces, bounds))]
    return PairDensity(dim=2, mult=1, f=PiecewisePolynomial(f.breakpoints, pieces))


# no breakpoint in (0, 2) but 1, so (0, 1) is the one cut interval, and
# g(y) = f(1 - y) - f(1 + y) is 0 on all of it: a tent on [0, 2] and a
# second one past 2, linear, and with bumps that g cancels
VANISHING_G_NODES = [(Fraction(x, 4), y) for x, y in [(0, 0), (4, 1), (8, 0), (9, 1), (10, 0)]]


def vanishing_g_pairs():
    linear = linear_pair(VANISHING_G_NODES)
    f = linear.f
    bumps = [Polynomial([0, -1, 1]), Polynomial([2, -3, 1])]  # x(x - 1), (x - 1)(x - 2)
    curved = PiecewisePolynomial(f.breakpoints, [f.pieces[0] + bumps[0],
                                                 f.pieces[1] + bumps[1], *f.pieces[2:]])
    return [linear, PairDensity(dim=2, mult=1, f=curved)]


def test_symmetry_other_where_g_vanishes_on_a_cut_interval():
    for pair in vanishing_g_pairs():
        f = pair.f
        assert [b for b in f.breakpoints if 0 < b < 2] == [1]
        assert all(f(1 - y) == f(1 + y) for y in (Fraction(k, 16) for k in range(17)))
        assert f != f.reflect(2)
        assert symmetry_class(pair) is SymmetryClass.OTHER
        assert _symmetry_by_reflection(pair) is SymmetryClass.OTHER


SYMMETRY_CASES = st.one_of(
    st.integers(0, 2 ** 32).map(lambda seed: syzygy_pair_density(
        random_syzygy_spec(random.Random(seed)))),
    pair_densities(),
    linear_densities(),
    curved_densities(),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(SYMMETRY_CASES)
@example(linear_pair(TOUCHING_ZERO_NODES, mult=3))
@example(tent_pair())
@example(quadric_cone_pair())
@example(parameter_density(1, (1, 2)))
def test_symmetry_class_matches_whole_reflection(pair):
    assert symmetry_class(pair) is _symmetry_by_reflection(pair)


GRID_HALVES = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
SMALL_POLYNOMIALS = st.lists(st.integers(-2, 2), max_size=2).map(Polynomial)


@st.composite
def compact_functions(draw):
    """Piecewise polynomials with a zero right tail, breakpoints on a grid
    that holds 0, and a left tail that is often zero."""
    bps = sorted(draw(st.sets(GRID_HALVES, min_size=1, max_size=5)))
    segs = [draw(SMALL_POLYNOMIALS) for _ in bps]
    return PiecewisePolynomial(bps, segs[1:], segs[0], Polynomial.zero())


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(compact_functions())
def test_negative_axis_check_matches_truncation(f):
    try:
        PairDensity(dim=1, mult=1, f=f)
        rejected = False
    except ValueError as exc:
        rejected = "negative axis" in str(exc)
    assert rejected == (f != f.truncate_before(0))
