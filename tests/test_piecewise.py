from __future__ import annotations

import bisect
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import combine_by_lookup, subtract_by_negation
from hkfun import piecewise
from hkfun.piecewise import (
    PiecewisePolynomial,
    Polynomial,
    _cauchy_root_bound,
    _divmod,
    _odd_part,
    as_fraction,
    count_roots_open,
    fraction_str,
    is_nonneg_on_closed,
    is_positive_on_open,
    tent_function,
)

X = Polynomial([0, 1])


def test_eval_tent_examples():
    tent = tent_function()
    assert tent(1) == 1
    assert tent(0) == 0
    assert tent(Fraction(3, 2)) == Fraction(1, 2)


def test_eval_uses_right_piece_at_breakpoints():
    f = PiecewisePolynomial([0, 1], [Polynomial([5])])
    assert f(0) == 5
    assert f(1) == 0
    assert f(Fraction(-1, 7)) == 0


def test_arithmetic_examples():
    tent = tent_function()
    assert (tent - tent).is_zero
    assert (tent * PiecewisePolynomial.zero()).is_zero
    ramp = PiecewisePolynomial.on_interval(0, 1, X)
    assert (ramp * ramp)(Fraction(1, 2)) == Fraction(1, 4)
    assert (tent + PiecewisePolynomial.zero()) == tent


def test_pointwise_addition_agrees_with_eval(rng):
    f = tent_function()
    g = PiecewisePolynomial([0, 1, 3], [Polynomial([1, 2]), Polynomial([0, 0, 1])])
    h = f + g
    for _ in range(100):
        x = Fraction(rng.randint(-40, 80), rng.randint(1, 17))
        assert h(x) == f(x) + g(x)
    prod = f * g
    for _ in range(50):
        x = Fraction(rng.randint(-40, 80), rng.randint(1, 17))
        assert prod(x) == f(x) * g(x)


def test_integrate_examples():
    tent = tent_function()
    assert tent.integrate(0, 2) == 1
    assert PiecewisePolynomial.zero().integrate(-5, 5) == 0
    quadric = PiecewisePolynomial([0, 1, Fraction(3, 2)],
                                  [Polynomial([0, 2]), Polynomial([6, -4])])
    assert quadric.integrate(0, Fraction(3, 2)) == Fraction(3, 2)


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        tent_function().integrate(2, 0)


def test_integrate_additive_over_subdivision(rng):
    f = tent_function() * tent_function() + tent_function()
    for _ in range(40):
        pts = sorted(Fraction(rng.randint(-8, 24), rng.randint(1, 9)) for _ in range(3))
        a, b, c = pts
        assert f.integrate(a, b) + f.integrate(b, c) == f.integrate(a, c)


def test_support_sup():
    assert tent_function().support_sup() == 2
    assert PiecewisePolynomial.zero().support_sup() == 0
    quadric = PiecewisePolynomial([0, 1, Fraction(3, 2)],
                                  [Polynomial([0, 2]), Polynomial([6, -4])])
    assert quadric.support_sup() == Fraction(3, 2)
    unbounded = PiecewisePolynomial.from_global(Polynomial([1]))
    assert unbounded.support_sup() is None


def test_reflect():
    tent = tent_function()
    assert tent.reflect(2) == tent
    assert PiecewisePolynomial.zero().reflect(7) == PiecewisePolynomial.zero()
    ramp = PiecewisePolynomial.on_interval(0, 1, X)
    reflected = ramp.reflect(1)
    assert reflected(Fraction(1, 4)) == Fraction(3, 4)
    assert reflected.segment_at(Fraction(1, 2)) == Polynomial([1, -1])


def test_reflect_involution(rng):
    f = tent_function() + PiecewisePolynomial([1, 2, 5], [Polynomial([2]), Polynomial([0, 0, 3])])
    for _ in range(10):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert f.reflect(c).reflect(c) == f


def test_canonical_form_is_unique():
    # same function assembled with a redundant breakpoint
    a = PiecewisePolynomial([0, 1, 2], [X, Polynomial([2, -1])])
    b = PiecewisePolynomial([0, Fraction(1, 2), 1, 2],
                            [X, X, Polynomial([2, -1])])
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.scale(2)


def test_scale_and_compose_affine():
    tent = tent_function()
    squeezed = tent.compose_affine(2, 0)  # x -> f(2x), support [0, 1]
    assert squeezed.support_sup() == 1
    assert squeezed(Fraction(1, 2)) == 1
    shifted = tent.compose_affine(1, -1)  # x -> f(x - 1), support [1, 3]
    assert shifted(2) == 1
    assert shifted.support_sup() == 3


def test_truncate_before():
    f = PiecewisePolynomial.from_global(Polynomial([0, 1]))
    g = f.truncate_before(0)
    assert g(-1) == 0
    assert g(3) == 3
    assert g.support_sup() is None


def test_json_round_trip_bit_exact():
    f = PiecewisePolynomial([Fraction(-1, 3), 2], [Polynomial([Fraction(22, 7), 0, 1])],
                            left_tail=Polynomial([1]), right_tail=Polynomial([1]))
    blob = f.to_dict()
    assert blob["breakpoints"] == ["-1/3", "2"]
    assert PiecewisePolynomial.from_dict(blob) == f
    assert PiecewisePolynomial.from_dict(tent_function().to_dict()) == tent_function()


def test_continuity_flag():
    assert tent_function().is_continuous
    step = PiecewisePolynomial.on_interval(0, 1, Polynomial([1]))
    assert not step.is_continuous


def test_fraction_helpers():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(5) == 5
    with pytest.raises(ValueError, match="^'1/0' has a zero denominator$"):
        as_fraction("1/0")
    assert fraction_str(Fraction(-7, 2)) == "-7/2"
    assert fraction_str(Fraction(4, 2)) == "2"


def test_sturm_positivity():
    p = Polynomial([1, 0, 1])  # 1 + x^2
    assert count_roots_open(p, -10, 10) == 0
    assert is_positive_on_open(p, -10, 10)
    q = Polynomial([0, -1, 1])  # x(x-1)
    assert count_roots_open(q, Fraction(-1, 2), Fraction(3, 2)) == 2
    assert not is_positive_on_open(q, 0, 1)
    assert is_positive_on_open(q, 1, 5)
    # zero at an endpoint is fine for the open test
    assert is_positive_on_open(Polynomial([0, 1]), 0, 9)
    assert is_positive_on_open(Polynomial([9, -1]), 0, 9)
    assert not is_positive_on_open(Polynomial([4, -1]), 0, 9)
    assert is_positive_on_open(Polynomial([2]), 0, 1)
    assert not is_positive_on_open(Polynomial([-2]), 0, 1)
    assert not is_positive_on_open(Polynomial([]), 0, 1)


def test_nonneg_on_closed():
    square = Polynomial([0, 0, 1])
    assert is_nonneg_on_closed(square, -3, 3)
    assert not is_nonneg_on_closed(Polynomial([0, 1]), -1, 1)
    wiggle = Polynomial([0, -1, 0, 1])  # x^3 - x: negative on (0,1)
    assert not is_nonneg_on_closed(wiggle, 0, 1)
    assert is_nonneg_on_closed(wiggle, 1, 10)


def test_nonneg_on_closed_runs_one_gcd(monkeypatch):
    """The odd part is squarefree, so the one gcd that builds it decides:
    its roots are counted without a second."""
    gcds = []
    gcd = piecewise._gcd_derivative

    def counted(p):
        gcds.append(p)
        return gcd(p)

    monkeypatch.setattr(piecewise, "_gcd_derivative", counted)
    assert not is_nonneg_on_closed(Polynomial([-2, 0, 1]), 0, 3)  # x^2 - 2
    assert gcds == [Polynomial([-2, 0, 1])]


def test_is_nonnegative_piecewise():
    assert tent_function().is_nonnegative()
    dip = PiecewisePolynomial.on_interval(0, 2, Polynomial([0, -1, 1]))
    assert not dip.is_nonnegative()
    assert PiecewisePolynomial.from_global(Polynomial([0, 0, 1])).is_nonnegative()


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
POLYNOMIALS = st.lists(RATIONALS, max_size=4).map(Polynomial)


@st.composite
def piecewise_polynomials(draw, points=RATIONALS, polynomials=POLYNOMIALS):
    """Arbitrary breakpoints and pieces; equal neighbours, zero pieces and a
    single global polynomial all occur."""
    breakpoints = sorted(draw(st.sets(points, max_size=5)))
    pieces = [draw(polynomials) for _ in breakpoints[1:]]
    left = draw(polynomials)
    right = draw(polynomials) if breakpoints else left
    return PiecewisePolynomial(breakpoints, pieces, left, right)


def _value(poly, x):
    """poly(x) as the sum of c_i * x^i, written apart from Horner."""
    x = as_fraction(x)
    return sum((c * x ** i for i, c in enumerate(poly.coeffs)), Fraction(0))


# breakpoints on a grid of 13 points and pieces from a small pool, so that two
# functions share breakpoints and pieces cancel or coincide
GRID_POINTS = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
SMALL_POLYNOMIALS = st.lists(st.integers(-2, 2), max_size=3).map(Polynomial)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(GRID_POINTS, SMALL_POLYNOMIALS),
       piecewise_polynomials(GRID_POINTS, SMALL_POLYNOMIALS))
def test_combine_matches_lookup_merge(f, g):
    assert f + g == combine_by_lookup(f, g, lambda a, b: a + b)
    assert f - g == combine_by_lookup(f, g, subtract_by_negation)
    assert f * g == combine_by_lookup(f, g, lambda a, b: a * b)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(POLYNOMIALS, POLYNOMIALS,
       st.one_of(st.integers(-30, 30), RATIONALS, RATIONALS.map(fraction_str)))
def test_polynomial_eval_and_subtract_match_definition(p, q, x):
    """Horner over one denominator against the sum of c_i * x^i, at an int, a
    Fraction and a "num/den" string."""
    value = p(x)
    assert type(value) is Fraction
    assert value == _value(p, x)
    assert p - q == subtract_by_negation(p, q)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials())
def test_json_round_trip_property(f):
    data = json.loads(json.dumps(f.to_dict()))
    restored = PiecewisePolynomial.from_dict(data)
    assert restored == f
    assert restored.to_dict() == f.to_dict()


# every way a function is built: the public constructor, and the operations
# that build through the private constructor from breakpoints and segments
BUILDS = {
    "constructor": lambda f, g, c: f,
    "global": lambda f, g, c: PiecewisePolynomial.from_global(g.left_tail),
    "add": lambda f, g, c: f + g,
    "sub": lambda f, g, c: f - g,
    "mul": lambda f, g, c: f * g,
    "scale": lambda f, g, c: f.scale(c),
    "compose": lambda f, g, c: f.compose_affine(c or 2, 1 - c),
    "reflect": lambda f, g, c: f.reflect(c),
    "truncate": lambda f, g, c: f.truncate_before(c),
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(BUILDS)), piecewise_polynomials(GRID_POINTS, SMALL_POLYNOMIALS),
       piecewise_polynomials(GRID_POINTS, SMALL_POLYNOMIALS), RATIONALS, RATIONALS)
def test_segments_are_the_tails_and_pieces(build, f, g, c, x):
    h = BUILDS[build](f, g, c)
    assert len(h.segments) == len(h.breakpoints) + 1
    if h.breakpoints:
        assert h.segments == (h.left_tail, *h.pieces, h.right_tail)
    else:
        assert h.segments == (h.left_tail,) and h.right_tail is h.left_tail
    # canonical: no two neighbouring segments are equal
    assert all(s != t for s, t in zip(h.segments, h.segments[1:]))
    for y in (x, *h.breakpoints):
        assert h.segment_at(y) is h.segments[bisect.bisect_right(h.breakpoints, y)]
    assert PiecewisePolynomial.from_dict(json.loads(json.dumps(h.to_dict()))) == h


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(RATIONALS, max_size=7).map(Polynomial),
       st.lists(RATIONALS, min_size=1, max_size=4).filter(lambda cs: cs[-1]).map(Polynomial))
def test_divmod_is_euclidean_division(a, b):
    q, r = _divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _samples(a, b, n=64):
    return [a + (b - a) * Fraction(i, n) for i in range(n + 1)]


@st.composite
def factored_on_interval(draw):
    """c * prod (x - r)^k, times (x - s)^2 + t with t > 0 or not, on [a, b]:
    every real root is a known rational, and roots, touching double roots
    and endpoints often coincide."""
    roots = draw(st.lists(st.tuples(SMALL_RATIONALS, st.integers(1, 4)), max_size=3))
    poly = Polynomial([draw(st.sampled_from([-2, -1, 1, 3]))])
    for r, k in roots:
        for _ in range(k):
            poly = poly * Polynomial([-r, 1])
    if draw(st.booleans()):
        s, t = draw(st.integers(-2, 2)), draw(st.integers(1, 3))
        poly = poly * Polynomial([s * s + t, -2 * s, 1])
    a, b = sorted(draw(st.lists(SMALL_RATIONALS, min_size=2, max_size=2)))
    return poly, [r for r, _ in roots], a, b


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(factored_on_interval())
def test_nonneg_on_closed_matches_sign_at_roots_and_samples(case):
    poly, roots, a, b = case
    # the sign is constant between consecutive real roots, so the endpoints,
    # the roots inside and one point between each pair decide it exactly
    marks = sorted({a, b} | {r for r in roots if a <= r <= b})
    points = marks + [(u + v) / 2 for u, v in zip(marks, marks[1:])]
    expected = all(poly(x) >= 0 for x in points)
    assert is_nonneg_on_closed(poly, a, b) == expected
    if expected:
        assert all(poly(x) >= 0 for x in _samples(a, b))


WIDTHS = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([-3, -1, 1, 2]), SMALL_RATIONALS, st.integers(1, 4),
       SMALL_RATIONALS, st.integers(0, 2),
       st.sampled_from(["inside", "left end", "right end", "below", "above", "point"]),
       WIDTHS, WIDTHS)
def test_nonneg_on_closed_one_distinct_root(c, r, k, s, j, place, w1, w2):
    # c * (x - r)^k, times (x - s)^j: one distinct root when j = 0 or s = r,
    # where the squarefree part is linear, two otherwise
    poly = Polynomial([c])
    for root, times in ((r, k), (s, j)):
        for _ in range(times):
            poly = poly * Polynomial([-root, 1])
    a, b = {"inside": (r - w1, r + w2), "left end": (r, r + w2),
            "right end": (r - w1, r), "below": (r - w1 - w2, r - w1),
            "above": (r + w1, r + w1 + w2), "point": (r, r)}[place]
    marks = sorted({a, b} | {x for x in (r, s) if a <= x <= b})
    points = marks + [(u + v) / 2 for u, v in zip(marks, marks[1:])]
    expected = all(poly(x) >= 0 for x in points)
    assert is_nonneg_on_closed(poly, a, b) == expected


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([-2, -1, 1, 3]),
       st.dictionaries(SMALL_RATIONALS, st.integers(1, 5), max_size=3),
       st.integers(-2, 2), st.integers(1, 3), st.integers(0, 3))
def test_odd_part_keeps_odd_multiplicity_factors(c, roots, s, t, j):
    # c * prod (x - r)^k * ((x - s)^2 + t)^j with distinct r and t > 0; the
    # odd part is fixed up to a positive constant
    quadratic = Polynomial([s * s + t, -2 * s, 1])
    poly = odd = Polynomial([c])
    for r, k in roots.items():
        for _ in range(k):
            poly = poly * Polynomial([-r, 1])
        if k % 2:
            odd = odd * Polynomial([-r, 1])
    for _ in range(j):
        poly = poly * quadratic
    if j % 2:
        odd = odd * quadratic
    got = _odd_part(poly)
    k = got.coeffs[-1] / odd.coeffs[-1]
    assert k > 0 and got == odd * Polynomial([k])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(-5, 5), max_size=6).map(Polynomial),
       SMALL_RATIONALS, SMALL_RATIONALS)
def test_nonneg_on_closed_never_contradicts_sampling(poly, a, b):
    # roots of a random integer polynomial are not known exactly; a negative
    # sample refutes nonnegativity, and no sample may refute a True answer
    a, b = min(a, b), max(a, b)
    negative = any(poly(x) < 0 for x in _samples(a, b))
    assert not (negative and is_nonneg_on_closed(poly, a, b))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(RATIONALS.filter(bool), SMALL_RATIONALS, st.integers(1, 3),
       st.sampled_from(["root", "below", "above", "free"]),
       st.sampled_from(["root", "below", "above", "free"]),
       SMALL_RATIONALS, SMALL_RATIONALS)
def test_count_roots_open_linear_matches_explicit_root(c, r, k, a_at, b_at, a_free, b_free):
    # c * (x - r)^k has the single distinct root r; endpoints on, below and
    # above it decide the strict inequalities of the open interval
    poly = Polynomial([c])
    for _ in range(k):
        poly = poly * Polynomial([-r, 1])
    at = {"root": r, "below": r - Fraction(1, 3), "above": r + Fraction(1, 3)}
    a, b = at.get(a_at, a_free), at.get(b_at, b_free)
    assert count_roots_open(poly, a, b) == (1 if a < r < b else 0)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(), piecewise_polynomials(), piecewise_polynomials())
def test_piecewise_algebra_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(), RATIONALS.filter(bool), RATIONALS,
       RATIONALS.filter(bool), RATIONALS)
def test_compose_affine_composes(f, a, b, c, e):
    # g(x) = f(a x + b), then g(c x + e) = f(a c x + a e + b); both sides are
    # right-continuous representatives of one function, so they are equal
    assert f.compose_affine(a, b).compose_affine(c, e) == f.compose_affine(a * c, a * e + b)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(POLYNOMIALS, RATIONALS, RATIONALS)
def test_polynomial_compose_affine_matches_evaluation(poly, a, b):
    composed = poly.compose_affine(a, b)
    assert composed.degree <= poly.degree
    for x in _samples(Fraction(-3), Fraction(3), 12):
        assert composed(x) == poly(a * x + b)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(), RATIONALS)
def test_canonical_form_rebuilds_equal(f, cut):
    rebuilt = PiecewisePolynomial(f.breakpoints, f.pieces, f.left_tail, f.right_tail)
    assert rebuilt == f and hash(rebuilt) == hash(f)
    assert rebuilt.breakpoints == f.breakpoints and rebuilt.pieces == f.pieces
    # a redundant breakpoint inside a segment is dropped again
    if cut not in f.breakpoints:
        bps = sorted(f.breakpoints + (cut,))
        segs = [f.segment_at(x) for x in bps]
        split = PiecewisePolynomial(bps, segs[:-1], f.left_tail, f.right_tail)
        assert split == f


# -- the end-value shortcuts against their slow forms ---------------------------


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(GRID_POINTS, st.lists(SMALL_RATIONALS, max_size=5).map(Polynomial)),
       GRID_POINTS, SMALL_RATIONALS)
def test_integrate_matches_antiderivative_sum(f, a, b):
    """Pieces of degree 0-4: the trapezoid rule on the linear ones, the
    antiderivative on the rest, against the antiderivative everywhere."""
    a, b = sorted((a, b))
    total = Fraction(0)
    for lo, hi, seg in f.iter_pieces():
        left = a if lo is None else max(a, lo)
        right = b if hi is None else min(b, hi)
        if left < right:
            anti = seg.antiderivative()
            total += _value(anti, right) - _value(anti, left)
    assert f.integrate(a, b) == total


def _nonnegative_piece_by_piece(f):
    """is_nonnegative the slow way, without deciding a piece of degree below
    2 by its end values: on every piece, a tail on a window past every real
    root of its polynomial, the odd part has no root inside and is positive
    at the midpoint."""
    for lo, hi, seg in f.iter_pieces():
        if seg.is_zero:
            continue
        if lo is None or hi is None:
            bound = _cauchy_root_bound(seg)
            lo = lo if lo is not None else min(hi if hi is not None else 0, -bound) - 1
            hi = hi if hi is not None else max(lo, bound) + 1
        odd = _odd_part(seg)
        if count_roots_open(odd, lo, hi) or odd((lo + hi) / 2) <= 0:
            return False
    return True


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(piecewise_polynomials(GRID_POINTS, st.lists(st.integers(-1, 3), max_size=3)
                             .map(Polynomial)))
@example(tent_function())
@example(PiecewisePolynomial([0, 1, 2], [Polynomial([0, 1]), Polynomial([1, -1])]))
@example(PiecewisePolynomial.on_interval(0, 2, Polynomial([0, -1, 1])))
def test_is_nonnegative_matches_root_count_per_piece(f):
    assert f.is_nonnegative() == _nonnegative_piece_by_piece(f)
