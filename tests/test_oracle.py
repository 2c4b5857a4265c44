from __future__ import annotations

import contextlib
import inspect
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_graded_length, plain_rank_modp
from hkfun import oracle, verify
from hkfun.oracle import (
    OracleError,
    colength_profile,
    dense_rank_modp,
    ehk_estimate,
    fn_sample,
    fthreshold_estimate,
    graded_piece_length_raw,
    monomial_alpha,
    normalize_poly,
    parse_polynomial,
    poly_degree,
    quotient_lengths,
    scaling_check,
    top_nonzero_degree,
    trinomial_poly,
    variable_powers,
)
from hkfun.trinomial import TypeI, TypeII, cyclic, fermat
from hkfun.verify import QUADRIC_CONE, SEGRE_QUADRIC

import numpy as np

XY_VARS = variable_powers(2, 1)
XYZ_VARS = variable_powers(3, 1)


def test_dense_rank_modp():
    assert dense_rank_modp(np.array([[1, 2], [2, 4]]), 5) == 1
    assert dense_rank_modp(np.array([[1, 2], [2, 4]]), 3) == 1
    assert dense_rank_modp(np.array([[1, 0], [0, 1]]), 2) == 2
    assert dense_rank_modp(np.array([[2, 4], [1, 2]]), 2) == 1  # 2 = 0 mod 2
    # rank 1 at p = 2^32 + 15, where the product of two reduced entries
    # overflows int64: rejected, not counted as rank 2
    p, r = 4294967311, 3000000000
    with pytest.raises(ValueError, match="p < 2\\^31"):
        dense_rank_modp(np.array([[r], [3 * r % p]]), p)


RANK_PRIMES = [2, 3, 5, 101, 2**31 - 1]


@st.composite
def rank_matrices(draw):
    """A matrix mod p, tall, wide or square with sides up to 40: sparse or
    dense random fill, or a planted rank r as a product of n x r and r x m
    mod p; then maybe zero rows, zero columns, and singleton columns that
    share one row."""
    p = draw(st.sampled_from(RANK_PRIMES))
    short, long = sorted(draw(st.integers(0, 40)) for _ in range(2))
    rows, cols = draw(st.sampled_from([(long, short), (short, long), (long, long)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "dense", "low-rank"]))
    if kind == "low-rank":
        r = draw(st.integers(0, min(rows, cols)))
        left = rng.integers(0, p, (rows, r)).astype(object)
        right = rng.integers(0, p, (r, cols)).astype(object)
        a = np.array(np.dot(left, right) % p if r else np.zeros((rows, cols)), dtype=np.int64)
    else:
        fill = 0.05 if kind == "sparse" else 0.9
        a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < fill)
    if draw(st.booleans()):
        a[rng.random(rows) < 0.2] = 0
    if draw(st.booleans()):
        a[:, rng.random(cols) < 0.2] = 0
    if rows and draw(st.booleans()):
        picked = rng.random(cols) < 0.3
        a[:, picked] = 0
        a[rng.integers(rows), picked] = rng.integers(1, p, int(picked.sum()))
    return a, p


def _near_p_low_rank(seed, p, rows, cols, r):
    """p - U V for U, V with entries in [1, 5]: every entry lies in
    [p - 25r, p - r], and the rank mod p is at most r."""
    rng = np.random.default_rng(seed)
    return p - rng.integers(1, 6, (rows, r)) @ rng.integers(1, 6, (r, cols))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(rank_matrices())
# at p = 2^31 - 1 one unreduced step can take an entry to about 2^62, so the
# kernel must reduce the block before every step: dense, large entries
@example((np.random.default_rng(5).integers(2**31 - 40, 2**31 - 1, (30, 24)), 2**31 - 1))
@example((np.zeros((0, 5), dtype=np.int64), 3))
# the largest prime eliminated in int32, where one unreduced step has room
# below 2^30 and the block is reduced before every step, and the least prime
# eliminated in int64: dense entries near p, of rank 12 (a full-rank matrix
# would keep its rank under a wrapped entry)
@example((_near_p_low_rank(7, 32749, 30, 24, 12), 32749))
@example((_near_p_low_rank(8, 32771, 24, 30, 12), 32771))
def test_dense_rank_modp_matches_plain_elimination(case):
    a, p = case
    before = a.copy()
    assert dense_rank_modp(a, p) == plain_rank_modp(a, p)
    assert np.array_equal(a, before)  # the caller's matrix is left alone


def test_prime_bound_of_the_int64_kernel():
    """At p = 2^31 - 1, the largest prime the int64 arithmetic holds, the
    pure-power path agrees with the definition.  Every tail coefficient of h
    is p - 1 after dividing by the lead, so each product in the reductions
    is near 2^62 and two summed unreduced would overflow; the next prime is
    rejected."""
    p = 2**31 - 1
    h = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1, (0, 0, 3): 1}
    gens = [{(5, 0, 0): 1}, {(0, 4, 0): 1}, {(0, 0, 4): 1}]
    path, length, *_ = quotient_lengths(p, h, gens, 1)
    assert path == "pure-power"
    lengths = [length(m) for m in range(12)]
    assert lengths == [brute_graded_length(p, h, gens, 1, m, 3) for m in range(12)]
    with pytest.raises(ValueError, match="p < 2\\^31"):
        quotient_lengths(2147483659, h, gens, 1)


def test_pure_power_reductions_with_many_terms_at_the_prime_bound():
    """The reductions take every tail term of h in one step.  Here h =
    (x + y)(x + y + z)^3 has thirteen terms beside x^4, and at p = 2^31 - 1
    each tail weight -c is near p, so a row of a step sums several reduced
    products near 2^62: summed unreduced they would pass 2^63 and change the
    lengths from degree 8 on.  Every degree agrees with the definition."""
    p = 2**31 - 1
    h = {(0, 0, 0): 1}
    x_plus_y = {(1, 0, 0): 1, (0, 1, 0): 1}
    x_plus_y_plus_z = {**x_plus_y, (0, 0, 1): 1}
    for factor in (x_plus_y, x_plus_y_plus_z, x_plus_y_plus_z, x_plus_y_plus_z):
        h = oracle._poly_mul(h, factor, p)
    assert len(h) == 14 and h[(4, 0, 0)] == 1
    gens = [{(5, 0, 0): 1}, {(0, 5, 0): 1}, {(0, 0, 5): 1}]
    path, length, *_ = quotient_lengths(p, h, gens, 1)
    assert path == "pure-power"
    degrees = range(3 * 4 + 4 + 2)  # past the top degree N = 16
    assert [length(m) for m in degrees] == \
        [brute_graded_length(p, h, gens, 1, m, 3) for m in degrees]


def _walk(p, h, gens, q):
    """The walk alone over S/(h, g_1^q, ..., g_t^q) in three variables,
    whichever path ``quotient_lengths`` would take."""
    gens_q = [oracle.frobenius_power(g, q, p) for g in gens]
    caps, mixed = oracle._caps_and_mixed([next(iter(g)) for g in gens_q if len(g) == 1], 3)
    return oracle._walk_lengths(p, h, caps, mixed, [g for g in gens_q if len(g) > 1])


def test_graded_piece_examples():
    assert graded_piece_length_raw(2, None, XY_VARS, 2, 1) == 2
    assert graded_piece_length_raw(2, None, XY_VARS, 2, 3) == 0
    # quadric cone over F3 at q=3, m=4: frozen from the definition-level
    # dense computation below
    assert graded_piece_length_raw(3, QUADRIC_CONE, XYZ_VARS, 3, 4) == 0
    assert graded_piece_length_raw(3, QUADRIC_CONE, XYZ_VARS, 3, 4) == \
        brute_graded_length(3, QUADRIC_CONE, XYZ_VARS, 3, 4, 3)
    with pytest.raises(ValueError):  # q = 2 is not a power of p = 3
        graded_piece_length_raw(3, None, XYZ_VARS, 2, 1)


def test_structured_path_matches_definition(rng):
    """Monomial-box walk vs an independent dense elimination, on random
    trinomials over random monomial ideals."""
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        q = rng.choice([p, p * p]) if p == 2 else p
        exps = rng.sample([(2, 1, 0), (0, 2, 1), (1, 0, 2), (3, 0, 0), (0, 3, 0),
                           (0, 0, 3), (1, 1, 1), (2, 0, 1), (0, 1, 2)], 3)
        h = {e: rng.randint(1, p - 1) if p > 2 else 1 for e in exps}
        if len({sum(e) for e in h}) != 1:
            continue
        n = rng.randint(1, 2)
        gens = variable_powers(3, n)
        for m in range(0, 3 * n * q + 4, rng.randint(1, 3)):
            assert graded_piece_length_raw(p, h, gens, q, m) == \
                brute_graded_length(p, h, gens, q, m, 3)


def test_walk_with_binomial_generator_matches_definition():
    # (x + y)^[q] = x^q + y^q is not a monomial: its multiples join the
    # walk's residual system
    p = 5
    gens = [{(1, 0): 1, (0, 1): 1}, {(0, 2): 1}, {(2, 0): 1}]  # (x+y, y^2, x^2)
    for q in (5, 25):
        for m in range(0, 11):
            assert graded_piece_length_raw(p, None, gens, q, m) == \
                brute_graded_length(p, None, gens, q, m, 2)


def test_profile_box_case_exact():
    assert colength_profile(5, None, XY_VARS, 5) == {m: min(m + 1, 9 - m) for m in range(9)}


def test_one_setup_per_quotient(monkeypatch):
    """A sweep and a bisection bracket each generator once, not once per
    degree."""
    calls = []
    bracket = oracle.frobenius_power

    def counted(poly, q, p):
        calls.append(poly)
        return bracket(poly, q, p)

    monkeypatch.setattr(oracle, "frobenius_power", counted)
    # the pure-power and diagonal paths, the walk with and without h, and
    # the walk with a non-monomial generator
    cases = [(QUADRIC_CONE, XYZ_VARS), (trinomial_poly(fermat(4)), XYZ_VARS),
             (trinomial_poly(cyclic(4)), variable_powers(3, 2)), (None, XY_VARS),
             (trinomial_poly(fermat(4)), [{(1, 0, 0): 1, (0, 1, 0): 1}] + XYZ_VARS[1:])]
    for sweep in (colength_profile, top_nonzero_degree):
        for h, gens in cases:
            calls.clear()
            sweep(5, h, gens, 5)
            assert calls == gens


def _mirror_by_comprehension(caps, d):
    """(N, e) of ``oracle._gorenstein_mirror`` with the t table filled one
    entry at a time, a min and a max per entry."""
    t = [1]
    for c in caps:
        prefix = [0, *itertools.accumulate(t)]
        t = [prefix[min(m + 1, len(t))] - prefix[max(0, m - c + 1)]
             for m in range(len(t) + c - 1)]
    s = len(t) - 1
    return s + d, lambda m: (t[m] if 0 <= m <= s else 0) - (t[m - d] if 0 <= m - d <= s else 0)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(1, 30), min_size=2, max_size=4), st.integers(1, 6))
@example([1, 1], 1)
@example([1, 7, 3], 4)
@example([5, 1, 1, 9], 2)
def test_mirror_table_matches_comprehension(caps, d):
    n, excess = oracle._gorenstein_mirror(caps, d)
    n_ref, excess_ref = _mirror_by_comprehension(caps, d)
    assert n == n_ref
    assert [excess(m) for m in range(-2, n + 3)] == [excess_ref(m) for m in range(-2, n + 3)]


def test_one_analysis_per_quotient(monkeypatch):
    """A sweep and a bisection sort the bracketed generators into caps and
    mixed monomials once, on every path, with and without h: the route and
    the Gorenstein mirror read that one analysis.  The mirror is a function
    of the caps and deg h alone."""
    assert list(inspect.signature(oracle._gorenstein_mirror).parameters) == ["caps", "d"]
    fermat4, cyclic4 = trinomial_poly(fermat(4)), trinomial_poly(cyclic(4))
    cases = [("diagonal", True, fermat4, XYZ_VARS),
             ("pure-power", True, QUADRIC_CONE, XYZ_VARS),
             ("pure-power", True, cyclic4, XYZ_VARS),  # the shear over m^[5]
             ("walk", True, cyclic4, variable_powers(3, 2)),  # caps 10: not a power of 5
             ("walk", False, fermat4, variable_powers(3, 2) + [{(0, 1, 1): 1}]),  # yz survives
             ("walk", False, fermat4, [{(1, 0, 0): 1, (0, 1, 0): 1}] + XYZ_VARS[1:]),
             ("walk", False, None, XY_VARS),
             ("walk", False, None, XYZ_VARS)]
    calls = []
    analyse = oracle._caps_and_mixed

    def counted(*args):
        calls.append(args)
        return analyse(*args)

    monkeypatch.setattr(oracle, "_caps_and_mixed", counted)
    for path, mirrored, h, gens in cases:
        route, _, mirror, *_ = quotient_lengths(5, h, gens, 5)
        assert (route, mirror is not None) == (path, mirrored)
        for sweep in (colength_profile, top_nonzero_degree):
            calls.clear()
            sweep(5, h, gens, 5)
            assert len(calls) == 1, (path, h, sweep.__name__)
    calls.clear()
    assert monomial_alpha(2, [{(2, 0): 1}, {(1, 1): 1}, {(0, 3): 1}]) == 4
    assert len(calls) == 1


def test_profile_quadric_cone():
    assert colength_profile(3, QUADRIC_CONE, XYZ_VARS, 3) == {0: 1, 1: 3, 2: 5, 3: 4}


def test_profile_monotone_under_more_generators(rng):
    for _ in range(10):
        p = rng.choice([2, 3])
        q = rng.choice([2, 4]) if p == 2 else 3
        base = variable_powers(2, rng.randint(1, 2))
        extra = base + [{(rng.randint(1, 2), rng.randint(1, 2)): 1}]
        for m in range(0, 10):
            small = graded_piece_length_raw(p, None, extra, q, m)
            big = graded_piece_length_raw(p, None, base, q, m)
            assert small <= big


def test_profile_detects_infinite_colength():
    with pytest.raises(OracleError):
        colength_profile(3, None, [{(1, 0): 1}], 3)  # (x) alone in k[x,y]


def test_top_nonzero_matches_profile(rng):
    cases = [(3, QUADRIC_CONE, XYZ_VARS, 3), (3, QUADRIC_CONE, XYZ_VARS, 9),
             (5, None, XY_VARS, 5), (2, None, variable_powers(2, 2), 4)]
    for p, h, gens, q in cases:
        lengths = colength_profile(p, h, gens, q)
        assert top_nonzero_degree(p, h, gens, q) == len(lengths) - 1 == max(lengths)


def test_fn_sample():
    assert fn_sample(5, None, XY_VARS, 5, Fraction(1)) == Fraction(4, 5)
    # convergence to the tent at a grid of points
    for q, p in ((5, 5), (25, 5)):
        for k in range(0, 11):
            x = Fraction(k, 4)
            tent = max(Fraction(0), 1 - abs(x - 1)) if x <= 2 else Fraction(0)
            assert abs(fn_sample(p, None, XY_VARS, q, x) - tent) <= Fraction(2, q)
    # quadric cone density at x=1 is 2
    assert abs(fn_sample(3, QUADRIC_CONE, XYZ_VARS, 9, Fraction(1)) - 2) <= Fraction(2, 9)
    # far beyond the support everything vanishes
    assert fn_sample(3, QUADRIC_CONE, XYZ_VARS, 9, Fraction(4)) == 0


def test_ehk_estimates():
    assert ehk_estimate(5, None, XY_VARS, 5) == 1
    quadric9 = ehk_estimate(3, QUADRIC_CONE, XYZ_VARS, 9)
    assert abs(quadric9 - Fraction(3, 2)) <= Fraction(1, 10)


def test_fthreshold_estimates():
    assert fthreshold_estimate(3, QUADRIC_CONE, 1, 3) == 1  # top 3 at q=3
    est9 = fthreshold_estimate(3, QUADRIC_CONE, 1, 9)
    assert abs(est9 - Fraction(3, 2)) <= Fraction(3, 9)


def test_fthreshold_monotone_convergence():
    # the estimate at q*p never exceeds the estimate at q by more than 1/q
    prev_q, prev = 3, fthreshold_estimate(3, QUADRIC_CONE, 1, 3)
    for q in (9, 27):
        cur = fthreshold_estimate(3, QUADRIC_CONE, 1, q)
        assert cur <= prev + Fraction(1, prev_q)
        prev_q, prev = q, cur


def test_monomial_alpha_examples():
    assert monomial_alpha(2, [{(2, 0): 1}, {(1, 1): 1}, {(0, 3): 1}]) == 4
    assert monomial_alpha(2, [{(1, 0): 1}, {(0, 1): 1}]) == 2
    assert monomial_alpha(3, [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]) == 6


def test_quotient_record():
    """The record's variable count, the pair's dimension (the count, less
    one with h), the sweep bound q*sum(deg g_i) + (deg h, or the count
    without h) + 1, and ``finite``."""
    ring = quotient_lengths(3, None, XYZ_VARS, 3)
    assert (ring.path, ring.mirror, ring.num_vars, ring.dim, ring.bound) == \
        ("walk", None, 3, 3, 13)
    assert ring.finite() is ring
    cone = quotient_lengths(3, QUADRIC_CONE, variable_powers(3, 2), 3)
    assert (cone.num_vars, cone.dim, cone.bound, cone.mirror[0]) == \
        (3, 2, 3 * 6 + 2 + 1, 15 + 2)
    plane = quotient_lengths(3, None, [{(1, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 9)
    assert (plane.num_vars, plane.dim, plane.bound) == (2, 2, 9 * 5 + 2 + 1)
    with pytest.raises(OracleError, match="^no zero tail at the sweep bound"):
        quotient_lengths(3, None, [{(1, 1): 1}], 3).finite()


def test_monomial_alpha_rejects_infinite_colength():
    with pytest.raises(ValueError):
        monomial_alpha(2, [{(2, 0): 1}, {(1, 1): 1}])


@pytest.mark.parametrize("call, error, message", [
    # (x^2, xy) in k[x, y]: y^m survives at every degree
    (lambda: top_nonzero_degree(2, None, [{(2, 0): 1}, {(1, 1): 1}], 2), OracleError,
     "no zero tail at the sweep bound; the ideal does not have finite colength"),
    (lambda: fn_sample(3, None, XYZ_VARS, 3, Fraction(1)), ValueError,
     "density samples are defined for two-dimensional pairs"),
    # (xy) in k[x, y]: x^m survives at every degree, and at degree floor(q/2)
    (lambda: fn_sample(3, None, [{(1, 1): 1}], 3, Fraction(1, 2)), OracleError,
     "no zero tail at the sweep bound; the ideal does not have finite colength"),
    (lambda: monomial_alpha(1, [{(2,): 1}]), ValueError,
     "the support formula needs dimension >= 2"),
    (lambda: monomial_alpha(2, [{(2, 0): 1, (0, 2): 1}, {(0, 3): 1}]), ValueError,
     "generators must be monomials"),
    (lambda: monomial_alpha(2, []), OracleError,
     "the zero ideal does not have finite colength"),
    # the polynomials fix the number of variables: h in 3, generators in 2
    (lambda: quotient_lengths(3, QUADRIC_CONE, XY_VARS, 3), ValueError,
     "the polynomials mix numbers of variables: 2, 3"),
    (lambda: colength_profile(3, QUADRIC_CONE, XY_VARS, 3), ValueError,
     "the polynomials mix numbers of variables: 2, 3"),
    (lambda: quotient_lengths(3, None, [{(1, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1, 1): 1}], 3),
     ValueError, "the polynomials mix numbers of variables: 2, 3, 4"),
    (lambda: monomial_alpha(3, [{(2, 0): 1}, {(0, 3): 1}]), ValueError,
     "num_vars = 3, but the polynomials are written in 2 variables"),
    (lambda: graded_piece_length_raw(3, QUADRIC_CONE, XYZ_VARS, 3, 2, num_vars=2), ValueError,
     "num_vars = 2, but the polynomials are written in 3 variables"),
    (lambda: fthreshold_estimate(3, None, 1, 3), ValueError,
     "fthreshold needs a hypersurface"),
], ids=["top-without-zero-tail", "fn-not-two-dimensional", "fn-without-zero-tail",
        "alpha-one-variable",
        "alpha-non-monomial", "alpha-no-generators", "lengths-mixed-vars",
        "profile-mixed-vars", "lengths-three-var-counts", "alpha-wrong-count",
        "length-wrong-count", "fthreshold-without-hypersurface"])
def test_oracle_rejections(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_profile_is_its_lengths():
    """A profile is the plain dict of the record's sweep: the degrees
    0, 1, ..., top in order, each length nonzero, so the top is
    ``len(lengths) - 1``."""
    lengths = colength_profile(3, QUADRIC_CONE, XYZ_VARS, 3)
    assert type(lengths) is dict
    assert lengths == quotient_lengths(3, QUADRIC_CONE, XYZ_VARS, 3).sweep()
    assert list(lengths) == list(range(len(lengths))) and all(lengths.values())
    assert len(lengths) - 1 == top_nonzero_degree(3, QUADRIC_CONE, XYZ_VARS, 3) == 3


def test_scaling_check():
    assert scaling_check(3, QUADRIC_CONE, XYZ_VARS, 3, 3)
    assert scaling_check(2, None, XY_VARS, 2, 4)
    # negative control: a deliberately corrupted bracket must disagree with
    # I^[9] at some degree
    corrupted = [oracle.frobenius_power(g, 3, 3)
                 for g in ({(2, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})]
    assert any(
        graded_piece_length_raw(3, QUADRIC_CONE, corrupted, 3, m) !=
        graded_piece_length_raw(3, QUADRIC_CONE, XYZ_VARS, 9, m)
        for m in range(16)
    )


def test_scaling_check_non_monomial_walk():
    # the lengths of (x + y, x + 2y)^[9] depend on the coefficients
    gens = [parse_polynomial("x + y", 2), parse_polynomial("x + 2*y", 2)]
    assert quotient_lengths(3, None, gens, 9)[0] == "walk"
    assert scaling_check(3, None, gens, 3, 3)


BRACKET_MUTANTS = {
    "unit-coefficients": lambda bracket: {e: 1 for e in bracket},
    "first-term-only": lambda bracket: dict([next(iter(bracket.items()))]),
}


@pytest.mark.parametrize("mutate", BRACKET_MUTANTS.values(), ids=BRACKET_MUTANTS.keys())
def test_scaling_check_catches_wrong_brackets(monkeypatch, mutate):
    """A ``frobenius_power`` that is wrong for q > 1 fails the check: its
    left side multiplies the powers out and brackets by q = 1 only."""
    bracket = oracle.frobenius_power
    monkeypatch.setattr(oracle, "frobenius_power", lambda poly, q, p: (
        mutate(bracket(poly, q, p)) if q > 1 else bracket(poly, q, p)))
    gens = [parse_polynomial("x + y", 2), parse_polynomial("x + 2*y", 2)]
    assert not scaling_check(3, None, gens, 3, 3)
    cone_gens = [parse_polynomial(g, 3) for g in ("x + y", "x + 2*y", "z")]
    assert not scaling_check(3, QUADRIC_CONE, cone_gens, 3, 3)
    assert not verify.run_case("scaling-quadric-cone").passed


# p, number of variables, J, and l(S/J^[q]) by q
KUNZ_REGULAR = [
    (3, 2, ("x + y", "y^2"), {3: 18, 9: 162}),
    (3, 3, ("x + y", "y^2", "z^2 + x*y", "z^3"), {3: 108}),
    (2, 3, ("x^2", "x*y + z^2", "y^2", "z^3"), {2: 56, 4: 448}),
]


@pytest.mark.parametrize("p, num_vars, texts, totals", KUNZ_REGULAR)
def test_kunz_on_polynomial_ring(p, num_vars, texts, totals):
    """Kunz: on a regular ring l(S/J^[q]) = q^dim * l(S/J) for every
    m-primary J.  These J have non-monomial generators and take the walk,
    so this checks the brackets and the rank code with no closed form
    involved."""
    gens = [parse_polynomial(t, num_vars) for t in texts]
    colength = sum(colength_profile(p, None, gens, 1).values())
    for q, total in totals.items():
        assert quotient_lengths(p, None, gens, q)[0] == "walk"
        assert sum(colength_profile(p, None, gens, q).values()) == total \
            == q ** num_vars * colength


def test_kunz_fails_on_quadric_cone():
    # off a regular ring l(R/m^[q]) = q^dim * l(R/m) fails: here it is not q^2
    totals = {q: sum(colength_profile(3, QUADRIC_CONE, XYZ_VARS, q).values())
              for q in (3, 9, 27)}
    assert totals == {3: 13, 9: 121, 27: 1093}


def test_parse_polynomial():
    assert parse_polynomial("x*y - z^2", 3) == {(1, 1, 0): 1, (0, 0, 2): -1}
    assert parse_polynomial("x^4+y^4+z^4", 3) == {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    assert parse_polynomial("3*x^2*w", 4) == {(2, 0, 0, 1): 3}
    assert parse_polynomial("-x^2+x*y-y^2", 2) == {(2, 0): -1, (1, 1): 1, (0, 2): -1}
    assert parse_polynomial("+x - 2*x", 2) == {(1, 0): -1}
    with pytest.raises(ValueError):
        parse_polynomial("x + q", 3)
    # one sign per term: a sign with no term after it is malformed
    for text in ("x--y", "x-+y", "x-", "+", "-x+"):
        with pytest.raises(ValueError, match="malformed term"):
            parse_polynomial(text, 2)
    for text in ("x - x", "0*x", "x*y - y*x", "0"):
        with pytest.raises(ValueError, match=re.escape(f"polynomial {text!r} is zero")):
            parse_polynomial(text, 2)


def test_determinism():
    assert colength_profile(3, QUADRIC_CONE, XYZ_VARS, 9) == \
        colength_profile(3, QUADRIC_CONE, XYZ_VARS, 9)


@st.composite
def pure_power_cases(draw):
    """A hypersurface with a pure power in a random variable plus 1-3 further
    terms, nonzero mod p, over caps (n_x, n_y, n_z) * q drawn independently
    and kept small enough for the definition-level elimination."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = draw(st.sampled_from([x for x in (p, p * p) if 3 * x <= 21]))
    budget = max(3, 14 // q)  # n_x + n_y + n_z
    ns = []
    for left in (2, 1, 0):
        ns.append(draw(st.integers(1, min(3, budget - sum(ns) - left))))
    d = draw(st.integers(1, 4))
    v = draw(st.integers(0, 2))
    pure = tuple(d if i == v else 0 for i in range(3))
    others = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    others.remove(pure)
    extra = draw(st.lists(st.sampled_from(others), min_size=1,
                          max_size=min(3, len(others)), unique=True))
    h = {e: draw(st.integers(1, p - 1)) for e in [pure] + extra}
    return p, q, tuple(ns), h


def _is_diagonal(h):
    """h = c_1 x^d + c_2 y^d + c_3 z^d, every c_i nonzero."""
    return len(h) == 3 and all(sum(1 for x in e if x) == 1 for e in h)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(pure_power_cases())
def test_pure_power_path_matches_walk_and_definition(case):
    p, q, ns, h = case
    gens = [{tuple(n if k == i else 0 for k in range(3)): 1} for i, n in enumerate(ns)]
    path, length, *_ = quotient_lengths(p, h, gens, q)
    assert path == ("diagonal" if _is_diagonal(h) else "pure-power")
    walk = _walk(p, normalize_poly(h, p), gens, q)
    for m in range(sum(ns) * q + poly_degree(h) + 2):
        fast = length(m)
        assert fast == walk(m)
        assert fast == brute_graded_length(p, h, gens, q, m, 3)


@st.composite
def diagonal_cases(draw):
    """c_1 x^d + c_2 y^d + c_3 z^d with random nonzero c_i over caps
    (n_x, n_y, n_z) * q drawn independently, kept small enough for the
    definition-level elimination.  p <= d is allowed, where p divides some
    of the binomials of the blocks."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = draw(st.sampled_from([x for x in (p, p * p) if 3 * x <= 21]))
    budget = max(4, 16 // q)  # n_x + n_y + n_z: unequal caps at every p
    ns = []
    for left in (2, 1, 0):
        ns.append(draw(st.integers(1, min(3, budget - sum(ns) - left))))
    d = draw(st.integers(1, 6))
    h = {tuple(d if i == v else 0 for i in range(3)): draw(st.integers(1, p - 1))
         for v in range(3)}
    return p, q, tuple(ns), h


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(diagonal_cases())
@example((2, 2, (1, 2, 3), {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
@example((3, 3, (2, 1, 1), {(6, 0, 0): 2, (0, 6, 0): 1, (0, 0, 6): 2}))
@example((5, 5, (1, 1, 1), {(5, 0, 0): 3, (0, 5, 0): 4, (0, 0, 5): 1}))
@example((7, 7, (1, 2, 1), {(3, 0, 0): 6, (0, 3, 0): 1, (0, 0, 3): 5}))
def test_diagonal_path_matches_pure_power_and_definition(case):
    """The block ranks of the diagonal path against the pure-power path,
    its independent slow cross-check, and the definition."""
    p, q, ns, h = case
    gens = [{tuple(n if k == i else 0 for k in range(3)): 1} for i, n in enumerate(ns)]
    path, length, *_ = quotient_lengths(p, h, gens, q)
    assert path == "diagonal"
    caps = [n * q for n in ns]
    slow = oracle._pure_power_lengths(p, normalize_poly(h, p), caps, 0)
    for m in range(sum(caps) + poly_degree(h) + 2):
        fast = length(m)
        assert fast == slow(m)
        assert fast == brute_graded_length(p, h, gens, q, m, 3)


def test_length_path_routes():
    def length_path(h, gens):
        return quotient_lengths(3, h, gens, 3)[0]

    box = XYZ_VARS
    for h in (fermat(4), fermat(5), fermat(6)):
        assert length_path(trinomial_poly(h), box) == "diagonal"
    for h in (TypeII(4, 1, 2, 1, 1, 3), TypeI(0, 5, 0, 5, 3, 2)):
        assert length_path(trinomial_poly(h), box) == "pure-power"
    assert length_path(QUADRIC_CONE, box) == "pure-power"
    # a Fermat curve with one term more, and x^d + y^d, are not diagonal
    fermat4 = trinomial_poly(fermat(4))
    assert length_path({**fermat4, (2, 1, 1): 1}, box) == "pure-power"
    assert length_path({(4, 0, 0): 1, (0, 4, 0): 1}, box) == "pure-power"
    # no pure power in h: a shear over F_3 gives it one
    for h in (cyclic(4), cyclic(5), cyclic(6), TypeI(1, 3, 1, 3, 3, 1)):
        assert length_path(trinomial_poly(h), box) == "pure-power"
    # caps x^6, y^6, z^6: 6 is not a power of 3, so a shear moves the ideal
    assert length_path(trinomial_poly(cyclic(4)), variable_powers(3, 2)) == "walk"
    # x^2 y + x y^2 + y^2 z + y z^2 vanishes on every point of P^2(F_2)
    no_point = {(2, 1, 0): 1, (1, 2, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1}
    assert quotient_lengths(2, no_point, box, 2)[0] == "walk"
    assert length_path(SEGRE_QUADRIC, variable_powers(4, 1)) == "walk"
    # (xy)^[3] lies in (x^3): the ideal is the box, so the route is too
    assert length_path(fermat4, box + [{(1, 1, 0): 1}]) == "diagonal"
    # (xy)^[3] is not in (x^6, y^6, z^6)
    assert length_path(fermat4, variable_powers(3, 2) + [{(1, 1, 0): 1}]) == "walk"
    non_monomial = [{(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]
    assert length_path(fermat4, non_monomial) == "walk"


def _vanishes_on_plane(h, p):
    """h(P) = 0 mod p at every point of F_p^3, straight from the definition."""
    return all(sum(c * x ** e[0] * y ** e[1] * z ** e[2] for e, c in h.items()) % p == 0
               for x in range(p) for y in range(p) for z in range(p))


@st.composite
def sheared_cases(draw):
    """A curve without a pure power over (x^n, y^n, z^n)^[q], with caps Q = nq
    up to 8: a power of p (the shear route) or not (the walk).  The degree
    shrinks as Q grows, to keep the definition-level elimination small."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    # one (n, q) per cap: (x^n)^[q] depends on nq alone
    by_cap = {n * q: (n, q) for q in (p, p * p) for n in (1, 2, 3, p) if n * q <= 8}
    n, q = draw(st.sampled_from(sorted(by_cap.values())))
    d = draw(st.integers(2, 6 if n * q <= 5 else 3))
    mixed = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)
             if max(i, j, d - i - j) < d]
    terms = draw(st.lists(st.sampled_from(mixed), min_size=1, max_size=4, unique=True))
    h = {e: draw(st.integers(1, p - 1)) for e in terms}
    return p, n, q, h


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(sheared_cases())
@example((3, 3, 3, {(1, 1, 0): 1, (0, 1, 1): 2, (1, 0, 1): 1}))  # (x^3, y^3, z^3)^[3]
# the walk fallbacks: caps 6, not a power of 3 or of 2, and a curve through
# every point of P^2(F_2)
@example((3, 2, 3, trinomial_poly(cyclic(4))))
@example((2, 3, 2, {(1, 1, 0): 1}))
@example((2, 1, 2, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1}))
def test_shear_route_matches_walk_and_definition(case):
    p, n, q, h = case
    gens = variable_powers(3, n)
    cap = n * q
    power_of_p = any(cap == p ** k for k in range(5))
    path, length, *_ = quotient_lengths(p, h, gens, q)
    assert path == ("pure-power" if power_of_p and not _vanishes_on_plane(h, p) else "walk")
    walk = _walk(p, normalize_poly(h, p), gens, q)
    for m in range(3 * cap + poly_degree(h) + 2):
        fast = length(m)
        assert fast == walk(m)
        assert fast == brute_graded_length(p, h, gens, q, m, 3)


def _value(poly, x, p):
    return sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for e, c in poly.items()) % p


@st.composite
def shear_cases(draw):
    """A form h in three variables with coefficients nonzero mod p, of any
    degree against p, with an index i and a point P of F_p^3 with P_i = 1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 7))
    monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    h = {e: draw(st.integers(1, p - 1)) for e in terms}
    i = draw(st.integers(0, 2))
    point = tuple(1 if j == i else draw(st.integers(0, p - 1)) for j in range(3))
    return p, h, i, point


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(shear_cases())
@example((2, {(1, 1, 0): 1, (0, 1, 1): 1}, 0, (1, 1, 1)))  # h(P) = 0: no x^2 term
@example((7, {(0, 0, 7): 3}, 2, (4, 0, 1)))  # x_i alone: nothing moves
def test_shear_is_the_substitution(case):
    """The sheared h is h(g(Q)) as a function on F_p^3, with g the map
    x_j -> x_j + P_j x_i (j != i); its x_i^d coefficient is h(P); and the
    inverse shear, by -P_j, gives h back as a polynomial."""
    p, h, i, point = case
    d = poly_degree(h)
    sheared = oracle._shear(h, p, i, point)
    assert all(sum(e) == d and 0 < c < p for e, c in sheared.items())
    for q in itertools.product(range(p), repeat=3):
        image = tuple(x if j == i else x + point[j] * q[i] for j, x in enumerate(q))
        assert _value(sheared, q, p) == _value(h, image, p)
    assert sheared.get(tuple(d if j == i else 0 for j in range(3)), 0) == _value(h, point, p)
    back = tuple(x if j == i else -x % p for j, x in enumerate(point))
    assert oracle._shear(sheared, p, i, back) == h


@st.composite
def walk_cases(draw):
    """Any hypersurface (pure powers or not, or none) over unequal caps
    (n_x, n_y, n_z)^[q], sometimes with a mixed monomial generator."""
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.sampled_from([x for x in (p, p * p) if x <= 5]))
    budget = max(3, 12 // q)  # n_x + n_y + n_z
    ns = []
    for left in (2, 1, 0):
        ns.append(draw(st.integers(1, min(3, budget - sum(ns) - left))))
    gens = [{tuple(n if k == i else 0 for k in range(3)): 1} for i, n in enumerate(ns)]
    if draw(st.booleans()):
        gens.append({draw(st.sampled_from([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1),
                                           (2, 1, 0), (0, 1, 2)])): 1})
    h = None
    if draw(st.integers(0, 4)):
        d = draw(st.integers(1, 4))
        monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4,
                              unique=True))
        h = {e: draw(st.integers(1, p - 1)) for e in terms}
    return p, q, gens, h


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(walk_cases())
def test_walk_matches_definition(case):
    p, q, gens, h = case
    walk = _walk(p, h, gens, q)
    top = q * sum(sum(next(iter(g))) for g in gens[:3]) + (poly_degree(h) if h else 3) + 1
    for m in range(top + 1):
        assert walk(m) == brute_graded_length(p, h, gens, q, m, 3)


@st.composite
def merged_walk_cases(draw):
    """An ideal in 2 or 3 variables mixing pure powers, a mixed monomial and
    one or two non-monomial generators of degree 1 or 2, bracketed by q in
    {1, p}, with or without a hypersurface."""
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.sampled_from([1, p]))
    nv = draw(st.sampled_from([2, 3]))
    unit = [tuple(int(k == i) for k in range(nv)) for i in range(nv)]

    def form(d, min_terms, max_terms):
        monomials = [e for e in itertools.product(range(d + 1), repeat=nv) if sum(e) == d]
        terms = draw(st.lists(st.sampled_from(monomials), min_size=min_terms,
                              max_size=min(max_terms, len(monomials)), unique=True))
        return {e: draw(st.integers(1, p - 1)) for e in terms}

    gens = [{tuple(n * x for x in unit[i]): 1}
            for i in range(nv) if (n := draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        gens.append({draw(st.sampled_from([e for e in itertools.product(range(3), repeat=nv)
                                           if 2 <= sum(e) <= 3 and max(e) < sum(e)])): 1})
    for _ in range(draw(st.integers(1, 2))):
        gens.append(form(draw(st.integers(1, 2)), 2, 3))
    h = form(draw(st.integers(1, 3)), 1, 4) if draw(st.booleans()) else None
    return p, q, nv, gens, h


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(merged_walk_cases())
# (x + 2y)^[3] = x^3 + 2y^3 beside the cap z^6: every step of the walk
# reduces a multiple of the binomial against h's structural pivots
@example((3, 3, 3, [{(0, 0, 2): 1}, {(1, 0, 0): 1, (0, 1, 0): 2}],
          {(2, 0, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1}))
def test_merged_walk_matches_definition(case):
    p, q, nv, gens, h = case
    path, length, *_ = quotient_lengths(p, h, gens, q)
    assert path == "walk"
    for m in range(12):
        assert length(m) == brute_graded_length(p, h, gens, q, m, nv)


@pytest.mark.parametrize("q", [3, 9])
def test_walk_with_linear_generator_matches_substitution(q):
    """The substitution x -> x - y sends (x + y, y^2, z^2) to the monomial
    ideal (x, y^2, z^2) and the Fermat quartic h to h(x - y, y, z).  A
    graded automorphism keeps every length, and the substituted quotient
    takes the pure-power path, a route independent of the walk."""
    p = 3
    h = trinomial_poly(fermat(4))
    gens = [parse_polynomial(g, 3) for g in ("x + y", "y^2", "z^2")]
    moved_h = oracle._shear(h, p, 1, (p - 1, 1, 0))
    moved_gens = [parse_polynomial(g, 3) for g in ("x", "y^2", "z^2")]
    assert quotient_lengths(p, h, gens, q)[0] == "walk"
    assert quotient_lengths(p, moved_h, moved_gens, q)[0] == "pure-power"
    assert colength_profile(p, h, gens, q) == colength_profile(p, moved_h, moved_gens, q)


@contextlib.contextmanager
def asked_degrees():
    """The degrees, in order, that the sweeps of ``oracle`` ask the
    ``length`` of their ``quotient_lengths`` for."""
    asked = []
    real = oracle.quotient_lengths

    def recorded(*args, **kwargs):
        quotient = real(*args, **kwargs)

        def counted(m):
            asked.append(m)
            return quotient.length(m)
        return quotient._replace(length=counted)

    oracle.quotient_lengths = recorded
    try:
        yield asked
    finally:
        oracle.quotient_lengths = real


@st.composite
def mirror_cases(draw):
    """A hypersurface of degree 1-6 (p <= d allowed) over pure-power caps
    (n_1, ..., n_k)^[q] drawn independently in 2-4 variables: Fermat-type,
    with a pure power, without one (the shear when the caps are one power
    of p), or inside I^[q]; sometimes beside a mixed monomial that a pure
    power divides.  Kept small enough for the definition-level elimination."""
    nv = draw(st.sampled_from([2, 3, 4]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    room = {2: 40, 3: 21, 4: 12}[nv]  # the largest sum of caps
    q = draw(st.sampled_from([x for x in (1, p, p * p) if nv * x <= room]))
    ns = [draw(st.integers(1, max(1, min(3, room // (nv * q))))) for _ in range(nv)]
    caps = [n * q for n in ns]
    unit = [tuple(int(k == i) for k in range(nv)) for i in range(nv)]
    gens = [{tuple(n * x for x in unit[i]): draw(st.integers(1, p - 1))}
            for i, n in enumerate(ns)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(nv)))[:2]
        gens.append({tuple(ns[i] + draw(st.integers(0, 1)) if k == i
                           else draw(st.integers(1, 2)) if k == j else 0
                           for k in range(nv)): 1})
    d = draw(st.integers(1, 6))
    monomials = [e for e in itertools.product(range(d + 1), repeat=nv) if sum(e) == d]
    pure = [tuple(d * x for x in u) for u in unit]
    in_ideal = [e for e in monomials if any(x >= c for x, c in zip(e, caps))]
    kind = draw(st.sampled_from(["fermat", "pure", "any", "in-ideal"]))
    if kind == "fermat":
        terms = pure
    elif kind == "pure":
        terms = [draw(st.sampled_from(pure))] + draw(st.lists(
            st.sampled_from(monomials), max_size=3, unique=True))
    elif kind == "in-ideal" and in_ideal:
        terms = draw(st.lists(st.sampled_from(in_ideal), min_size=1, max_size=3, unique=True))
    else:
        terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    h = {e: draw(st.integers(1, p - 1)) for e in terms}
    return p, q, nv, gens, h


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(mirror_cases())
# the diagonal path, at p < d and at unequal caps
@example((2, 2, 3, [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 4): 1}],
          {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
# the pure-power path with a redundant x^3 y beside x^3, and d = 5 above the cap 3
@example((3, 3, 3, [{(1, 0, 0): 1}, {(0, 1, 0): 2}, {(0, 0, 2): 1}, {(1, 1, 0): 1}],
          {(0, 0, 5): 1, (2, 2, 1): 2, (1, 3, 1): 1}))
# the shear: the cyclic quartic over m^[7]
@example((7, 7, 3, variable_powers(3, 1), trinomial_poly(cyclic(4))))
# h in I^[q]: T/hT = T
@example((5, 5, 3, variable_powers(3, 1), {(5, 1, 0): 3, (0, 0, 6): 1}))
# the walk in two and in four variables
@example((3, 3, 2, [{(2, 0): 1}, {(0, 3): 2}], {(2, 1): 1, (0, 3): 2}))
@example((2, 2, 4, variable_powers(4, 1), SEGRE_QUADRIC))
def test_mirror_matches_every_degree(case):
    """``colength_profile`` and ``top_nonzero_degree``, which rank only from
    ceil(N/2) up, against ``length`` at every degree and the definition;
    and the degrees they ask for start at ceil(N/2), N = sum(c_i - 1) + d."""
    p, q, nv, gens, h = case
    path, length, *_ = quotient_lengths(p, h, gens, q)
    if nv == 3 and _is_diagonal(h):
        assert path == "diagonal"
    every = []
    while value := length(len(every)):
        every.append(value)
    caps = [q * max(next(iter(g))) for g in gens[:nv]]
    assert every == [brute_graded_length(p, h, gens, q, m, nv)
                     for m in range(len(every))]
    assert brute_graded_length(p, h, gens, q, len(every), nv) == 0
    start = (sum(c - 1 for c in caps) + poly_degree(h) + 1) // 2
    with asked_degrees() as asked:
        assert colength_profile(p, h, gens, q) == dict(enumerate(every))
    assert min(asked) == start
    with asked_degrees() as asked:
        assert top_nonzero_degree(p, h, gens, q) == len(every) - 1
    assert asked[0] == start


FERMAT4 = trinomial_poly(fermat(4))


@pytest.mark.parametrize("h, gens", [
    (FERMAT4, variable_powers(3, 2) + [{(1, 1, 0): 1}]),  # xy survives (x^2, y^2, z^2)
    (FERMAT4, [parse_polynomial(g, 3) for g in ("x + y", "y^2", "z^2")]),
    (None, XYZ_VARS),
], ids=["surviving-mixed-monomial", "non-monomial-generator", "no-hypersurface"])
def test_every_degree_sweep_off_the_mirror(h, gens):
    """Off pure-power caps or without h, the profile ranks every degree and
    the top search starts at the sweep bound."""
    with asked_degrees() as asked:
        top = len(colength_profile(3, h, gens, 3)) - 1
    assert asked == list(range(top + 2))
    with asked_degrees() as asked:
        assert top_nonzero_degree(3, h, gens, 3) == top
    assert asked[0] == quotient_lengths(3, h, gens, 3).bound



NO_POINT_F2 = {(2, 1, 0): 1, (1, 2, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1}  # all of P^2(F_2)



@st.composite
def splitting_cases(draw, route):
    """(p, q, h, generators): a plane curve h of degree d over a
    finite-colength ideal, built for the route, with p <= 7 and q <= p^2.
    The walk gets a surviving mixed monomial, a linear form with two or
    three terms, caps 2q that are no power of p under a curve without a pure
    power, or a curve through every point of P^2(F_2)."""
    p = draw(st.sampled_from([5, 7] if route == "shear" else [2, 3, 5, 7]))
    q = draw(st.sampled_from([p] if route == "walk" else [p, p * p]))
    d = draw(st.integers(2, p - 1 if route == "shear" else 4))  # p > d: a point off h
    monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    pure = [tuple(d if k == v else 0 for k in range(3)) for v in range(3)]
    mixed = [e for e in monomials if e not in pure]
    ns = [draw(st.integers(1, 2 if q <= 7 else 1)) for _ in range(3)]
    extra = []
    if route == "diagonal":
        terms = pure
    elif route == "pure-power":
        terms = [draw(st.sampled_from(pure))] + draw(
            st.lists(st.sampled_from(mixed), min_size=1, max_size=3, unique=True))
    elif route == "shear":
        ns = [1, 1, 1]
        terms = draw(st.lists(st.sampled_from(mixed), min_size=2, max_size=4, unique=True))
    else:
        kind = draw(st.sampled_from(["mixed", "linear", "cap", "no-point"]))
        terms = draw(st.lists(st.sampled_from(mixed if kind == "cap" else monomials),
                              min_size=1, max_size=4, unique=True))
        if kind == "mixed":  # below caps of at least 2, so it survives
            ns = [draw(st.integers(2, 3)) for _ in range(3)]
            extra = [{draw(st.sampled_from([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])): 1}]
        elif kind == "linear":
            extra = [{e: draw(st.integers(1, p - 1)) for e in draw(st.lists(
                st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                min_size=2, max_size=3, unique=True))}]
        elif kind == "cap" and p > 2:
            ns = [2, 2, 2]
        else:  # no-point, and cap at p = 2, where 2q is a power of p
            p, q, ns, terms = 2, draw(st.sampled_from([2, 4])), [1, 1, 1], list(NO_POINT_F2)
    h = {e: draw(st.integers(1, p - 1)) for e in terms}
    gens = [{tuple(n if k == i else 0 for k in range(3)): 1} for i, n in enumerate(ns)]
    return p, q, h, gens + extra


def _assert_unit_masses(p, q, h, gens, route):
    """S/(h, g_1^q, ..., g_t^q) is a module over the two variables other
    than the one h is monic in (after the shear, if need be), with d
    generators x_v^j, t*d relations x_v^j g_i^q and free second syzygies of
    rank K = (t - 1)*d in degrees e_k.  With C(s) = max(s + 1, 0),

        R(m) = l_m - sum_j C(m - j) + sum_(i,j) C(m - D_i - j) = sum_k C(m - e_k)

    for j < d and D_i = q deg g_i, so the second difference of R is the
    number of e_k at m: never negative, and K in all.  Checked from
    ``length`` at every degree up to two past the sweep bound, so it tests
    each route's ranks with no closed form involved."""
    path, length, *_ = quotient_lengths(p, h, gens, q)
    assert path == ("pure-power" if route == "shear" else route)
    d = poly_degree(h)
    shifts = [q * poly_degree(g) + j for g in gens for j in range(d)]

    def c(s):
        return max(s + 1, 0)

    r = [0, 0]  # R(-2), R(-1)
    for m in range(quotient_lengths(p, h, gens, q).bound + 3):
        r.append(length(m) - sum(c(m - j) for j in range(d)) + sum(c(m - s) for s in shifts))
    masses = [r[m] - 2 * r[m - 1] + r[m - 2] for m in range(2, len(r))]
    assert min(masses) >= 0
    assert sum(masses) == (len(gens) - 1) * d


@pytest.mark.parametrize("route", ["diagonal", "pure-power", "shear", "walk"])
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_lengths_split_into_unit_masses(route, data):
    _assert_unit_masses(*data.draw(splitting_cases(route)), route)


@pytest.mark.parametrize("case", [
    (5, 5, FERMAT4, XYZ_VARS, "diagonal"),
    (5, 25, FERMAT4, XYZ_VARS, "diagonal"),
    (5, 25, trinomial_poly(TypeII(4, 1, 2, 1, 1, 3)), XYZ_VARS, "pure-power"),
    (3, 9, QUADRIC_CONE, XYZ_VARS, "pure-power"),
    (5, 25, trinomial_poly(cyclic(4)), XYZ_VARS, "shear"),
    (5, 5, trinomial_poly(cyclic(4)), variable_powers(3, 2), "walk"),
    (7, 1, trinomial_poly(cyclic(4)),
     [parse_polynomial(g, 3) for g in ("x^9", "y^9", "z^9", "x^4*y^4")], "walk"),
    (3, 3, FERMAT4, [parse_polynomial(g, 3) for g in ("x + y", "y^2", "z^2")], "walk"),
    (2, 2, NO_POINT_F2, XYZ_VARS, "walk"),
], ids=["fermat4-q5", "fermat4-q25", "typeII-q25", "quadric-cone-q9", "cyclic4-q25",
        "cyclic4-caps10", "cyclic4-mixed-K12", "fermat4-linear", "all-of-P2F2"])
def test_named_quotients_split_into_unit_masses(case):
    _assert_unit_masses(*case)
