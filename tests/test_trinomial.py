from __future__ import annotations

import contextlib
import dataclasses
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.ntheory import n_order

from hkfun.oracle import fthreshold_estimate
from hkfun.trinomial import (
    Irregular,
    Regular,
    TrinomialHypothesisError,
    TrinomialInvariants,
    TrinomialShapeError,
    TypeI,
    TypeII,
    classify,
    coordinate_multiplicities,
    cyclic,
    f_threshold,
    fermat,
    residue_table,
    taxicab_distance,
    taxicab_search,
)
from hkfun.verify import irregular_quintic_witness


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_shape_validation():
    with pytest.raises(TrinomialShapeError):
        TypeI(1, 1, 1, 1, 1, 1)  # degree 2
    with pytest.raises(TrinomialShapeError):
        TypeI(3, 1, 2, 2, 1, 2)  # mixed degrees
    with pytest.raises(TrinomialShapeError):
        TypeII(4, 0, 4, 0, 4, 1)  # b + c != d
    with pytest.raises(TrinomialShapeError):
        TypeII(4, 4, 0, 0, 0, 4)  # x^d repeated: monomials collide
    with pytest.raises(TrinomialShapeError, match="^the three monomials must be distinct$"):
        TypeI(0, 4, 4, 0, 2, 2)  # y^4 twice
    for shape, exps in ((TypeI, (-1, 5, 0, 4, 2, 2)), (TypeII, (4, -1, 3, 2, 2, 2))):
        with pytest.raises(TrinomialShapeError, match="^exponents must be nonnegative$"):
            shape(*exps)
    with pytest.raises(TrinomialShapeError, match="^degree must be >= 3$"):
        TypeII(2, 0, 2, 0, 0, 2)  # x^2 + y^2 + z^2
    # collinear exponent vectors: a reducible curve
    with pytest.raises(TrinomialShapeError, match="collinear"):
        TypeI(0, 4, 1, 3, 4, 0)  # y^4 + y z^3 + z^4: x is missing
    with pytest.raises(TrinomialShapeError, match="collinear"):
        TypeII(4, 2, 1, 1, 2, 2)  # x^4 + x^2 y z + y^2 z^2


def test_shape_rejected_exactly_when_collinear():
    """Three points of the plane e_x + e_y + e_z = d > 0 lie on one line
    exactly when the 3 x 3 matrix of the exponent vectors is singular.
    Every shape with a missing variable is among them."""
    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    rejected = {}
    for d in range(3, 8):
        shapes = [(TypeI, (a1, d - a1, b1, d - b1, c1, d - c1),
                   ((a1, d - a1, 0), (0, b1, d - b1), (d - c1, 0, c1)))
                  for a1, b1, c1 in product(range(d + 1), repeat=3)]
        shapes += [(TypeII, (d, a1, a2, d - a1 - a2, b, d - b),
                    ((d, 0, 0), (a1, a2, d - a1 - a2), (0, b, d - b)))
                   for a1 in range(d + 1) for a2 in range(d + 1 - a1) for b in range(d + 1)]
        for shape, exps, mons in shapes:
            if len(set(mons)) < 3:
                continue
            missing = any(all(e[i] == 0 for e in mons) for i in range(3))
            try:
                shape(*exps)
            except TrinomialShapeError:
                assert det(*mons) == 0
                rejected[d] = rejected.get(d, 0) + 1
            else:
                assert det(*mons) != 0 and not missing
    assert rejected == {3: 10, 4: 16, 5: 20, 6: 29, 7: 30}


def test_fermat_classification():
    kind = classify(fermat(4))
    assert isinstance(kind, Regular)
    inv = kind.invariants
    assert (inv.alpha, inv.beta, inv.nu, inv.lam) == (4, 4, 4, 16)
    assert inv.lambda_h == 4


def test_invariants_derive_once_and_keep_their_fields():
    """common_factor and lambda_h are set when the instance is made; the
    fields, equality and repr are the four invariants alone."""
    inv = TrinomialInvariants(alpha=6, beta=4, nu=2, lam=10)
    assert (inv.common_factor, inv.lambda_h) == (2, 5)
    assert [f.name for f in dataclasses.fields(inv)] == ["alpha", "beta", "nu", "lam"]
    assert repr(inv) == "TrinomialInvariants(alpha=6, beta=4, nu=2, lam=10)"
    assert inv == TrinomialInvariants(6, 4, 2, 10)
    assert dataclasses.replace(inv, lam=14).lambda_h == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        inv.lambda_h = 3


def test_cyclic_classification():
    for d in (4, 5, 6, 7):
        kind = classify(cyclic(d))
        assert isinstance(kind, Regular)
        assert kind.invariants.lam == d * d - 3 * d + 3
        assert kind.invariants.alpha == d - 2


def test_coordinate_multiplicities():
    assert coordinate_multiplicities(fermat(4)) == (0, 0, 0)
    assert coordinate_multiplicities(cyclic(5)) == (1, 1, 1)
    witness = TypeI(0, 5, 0, 5, 3, 2)
    assert max(coordinate_multiplicities(witness)) == 3


def test_irregular_classification():
    kind = classify(TypeI(0, 5, 0, 5, 3, 2))
    assert kind == Irregular(multiplicity=3)


def test_nonpositive_invariants_rejected():
    # every coordinate multiplicity is 2 < 5/2, but alpha = a1+b1-d = -1
    with pytest.raises(TrinomialHypothesisError):
        classify(TypeI(2, 3, 2, 3, 2, 3))


def test_taxicab_distance():
    assert taxicab_distance((Fraction(1, 4),) * 3, (0, 0, 1)) == Fraction(5, 4)
    assert taxicab_distance((2, 3, 4), (2, 3, 4)) == 0
    assert taxicab_distance((Fraction(5, 4),) * 3, (1, 1, 1)) == Fraction(3, 4)


def test_taxicab_search_trivial_class():
    for curve in (fermat(4), fermat(5), fermat(6), fermat(7),
                  cyclic(4), cyclic(5), cyclic(6), cyclic(7)):
        inv = classify(curve).invariants
        res = taxicab_search(inv, 1, 1)
        assert res.T == 1 and res.D is None
        res_minus = taxicab_search(inv, 1, 2 * inv.lambda_h - 1)
        assert res_minus.T == 1 and res_minus.D is None


def test_taxicab_search_fermat4():
    inv = classify(fermat(4)).invariants
    res = taxicab_search(inv, 1, 5)
    assert res.T == Fraction(3, 4)
    assert res.D == 1
    assert res == taxicab_search(inv, 1, 3)  # 5 = -3 mod 8: same class


def test_taxicab_step_below_order():
    for curve in (fermat(7), cyclic(5), cyclic(7)):
        inv = classify(curve).invariants
        for l in range(1, inv.lambda_h + 1):
            if gcd(l, 2 * inv.lambda_h) != 1:
                continue
            res = taxicab_search(inv, 1, l)
            if res.D is not None:
                assert res.D < n_order(l, 2 * inv.lambda_h)


def _fraction_corner_scan(inv, n, l):
    """The residue search written out over Fractions with the public
    taxicab_distance: every odd-sum corner of floor/floor+1 around
    l^s * t_h * n mod 2, at every step s below the order of l."""
    for s in range(n_order(l, 2 * inv.lambda_h)):
        v = tuple(Fraction(l ** s * x * n, inv.lam) % 2 for x in (inv.alpha, inv.beta, inv.nu))
        corners = product(*[(floor(x), floor(x) + 1) for x in v])
        below = [dist for dist in (taxicab_distance(v, u) for u in corners if sum(u) % 2)
                 if dist < 1]
        if below:
            return min(below), s
    return Fraction(1), None


@st.composite
def scan_inputs(draw):
    inv = TrinomialInvariants(*(draw(st.integers(1, 24)) for _ in range(3)),
                              lam=draw(st.integers(1, 48)))
    modulus = 2 * inv.lambda_h
    units = [l for l in range(1, modulus) if gcd(l, modulus) == 1]
    return inv, draw(st.integers(1, 5)), draw(st.sampled_from(units))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(scan_inputs())
# v = (1/2, 1, 1): the nearest corner (0, 1, 1) has an even sum, and moving
# the halfway coordinate to 1 costs nothing, so T = 1/2 at D = 0
@example((TrinomialInvariants(1, 2, 2, 2), 1, 1))
# v = (1, 1, 0): every coordinate is an integer and the sum is even, so no
# corner is odd and no step gives a distance below 1
@example((TrinomialInvariants(3, 3, 6, 3), 1, 1))
# lambda_h = 10^20: the order of 7 modulo 2*lambda_h is 10^18, but a corner
# comes within distance 1 at step 27
@example((classify(fermat(10 ** 20)).invariants, 1, 7))
def test_taxicab_search_matches_fraction_corner_scan(case):
    inv, n, l = case
    res = taxicab_search(inv, n, l)
    assert (res.T, res.D) == _fraction_corner_scan(inv, n, l)


def test_taxicab_search_rejects_non_units():
    inv = classify(fermat(4)).invariants
    with pytest.raises(ValueError):
        taxicab_search(inv, 1, 2)


def test_f_threshold_values():
    f4 = fermat(4)
    assert f_threshold(f4, 1, 17) == Fraction(3, 2)
    assert f_threshold(f4, 1, 29) == Fraction(44, 29)
    assert f_threshold(fermat(7), 1, 23) == Fraction(35, 23)
    # cyclic thresholds in the residue class of lambda +- 2
    assert f_threshold(cyclic(5), 1, 11) == Fraction(3, 2) + Fraction(7, 10 * 11 ** 3)
    assert f_threshold(cyclic(6), 1, 19) == Fraction(3, 2) + Fraction(1, 2 * 19 ** 2)
    assert f_threshold(cyclic(7), 1, 29) == Fraction(3, 2) + Fraction(1, 14 * 29)


def test_witness_is_the_first_quintic_of_multiplicity_3():
    """The defining property of the witness, by a search over the degree-5
    shapes in lexicographic exponent order."""
    def multiplicity(shape):
        with contextlib.suppress(ValueError):  # no curve, or not a trinomial of the theory
            kind = classify(TypeI(*shape))
            return kind.multiplicity if isinstance(kind, Irregular) else None

    shapes = [(a1, 5 - a1, b1, 5 - b1, c1, 5 - c1)
              for a1, b1, c1 in product(range(6), repeat=3)]
    first = next(shape for shape in shapes if multiplicity(shape) == 3)
    assert TypeI(*first) == irregular_quintic_witness()


def test_f_threshold_irregular():
    witness = irregular_quintic_witness()
    assert classify(witness) == Irregular(multiplicity=3)
    # linear correction (2r-d)*n/(2d); the oracle pins this value, see the
    # acceptance suite and project notes
    assert f_threshold(witness, 1, 13) == Fraction(8, 5)
    assert f_threshold(witness, 2, 13) == Fraction(16, 5)
    assert f_threshold(witness, 1, 7) == Fraction(8, 5)  # p-independent


def test_f_threshold_validation():
    with pytest.raises(ValueError):
        f_threshold(fermat(4), 0, 17)
    with pytest.raises(ValueError):
        f_threshold(fermat(4), 1, 15)  # not prime


def test_threshold_gap_range():
    # threshold - 3n/2 lies in [0, lambda/(2d)) and is 0 exactly at (1, inf)
    for curve in (fermat(4), fermat(6), cyclic(5), cyclic(6)):
        inv = classify(curve).invariants
        d = curve.degree
        for row in residue_table(curve, 1):
            gap = row.threshold_at(101) - Fraction(3, 2)
            assert 0 <= gap < Fraction(inv.lam, 2 * d)
            assert (gap == 0) == (row.D is None)


def test_residue_table_fermat4():
    rows = residue_table(fermat(4), 1)
    assert [(r.representative, r.T, r.D) for r in rows] == [
        (1, Fraction(1), None),
        (3, Fraction(3, 4), 1),
    ]
    assert rows[0].formula == "3/2"
    assert rows[1].threshold_at(29) == Fraction(44, 29)


def test_residue_table_row_count():
    for curve in (fermat(4), fermat(5), fermat(7), cyclic(5), cyclic(6)):
        inv = classify(curve).invariants
        rows = residue_table(curve, 1)
        assert len(rows) == euler_phi(2 * inv.lambda_h) // 2


def test_residue_table_periodicity():
    for curve in (fermat(4), fermat(5)):
        inv = classify(curve).invariants
        n2 = 1 + 2 * inv.lambda_h
        t1 = [(r.representative, r.T, r.D) for r in residue_table(curve, 1)]
        t2 = [(r.representative, r.T, r.D) for r in residue_table(curve, n2)]
        assert t1 == t2


def test_residue_table_rejects_irregular():
    with pytest.raises(ValueError):
        residue_table(irregular_quintic_witness(), 1)


def test_residue_table_refuses_lambda_h_past_the_limit():
    """A table has a row per class of (Z/2*lambda_h)*/{+-1}; lambda_h = 2^16
    is the largest it builds."""
    assert len(residue_table(fermat(2 ** 16), 1)) == 2 ** 15
    for d in (2 ** 16 + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"^lambda_h = {d} is past the residue "
                                             "table's limit of 65536$"):
            residue_table(fermat(d), 1)


def test_invariants_must_be_positive():
    with pytest.raises(TrinomialHypothesisError):
        TrinomialInvariants(alpha=-1, beta=2, nu=1, lam=5)


def test_witness_is_irreducible_over_q():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    w = irregular_quintic_witness()
    h = x**w.a1 * y**w.a2 + y**w.b1 * z**w.b2 + z**w.c1 * x**w.c2
    _, factors = sympy.factor_list(h)
    assert len(factors) == 1 and factors[0][1] == 1


def test_oracle_agreement_fermat4_at_q_p_squared():
    # |closed form - top/q| <= 3/q also at q = p^2 (the q = p cases are in
    # the acceptance suite); this is the heaviest single oracle call kept in
    # the regular tests
    target = f_threshold(fermat(4), 1, 17)
    estimate = fthreshold_estimate(17, {e: 1 for e in fermat(4).monomials()}, 1, 289)
    assert abs(estimate - target) <= Fraction(3, 289)


@pytest.mark.parametrize("p", [11, 13])
def test_oracle_top_fermat4_exact_at_q_p_squared(p):
    # in the class of 3 mod 8 the quartic's top degree at q = p^2 is exactly
    # q * threshold + 1, so q * threshold is an integer one below it
    q = p * p
    estimate = fthreshold_estimate(p, {e: 1 for e in fermat(4).monomials()}, 1, q)
    assert estimate * q == q * f_threshold(fermat(4), 1, p) + 1


@pytest.mark.parametrize("curve, p", [(fermat(4), 11), (irregular_quintic_witness(), 13)],
                         ids=["fermat4", "witness"])
def test_oracle_agreement_n2_at_q_p(curve, p):
    # at n = 2 the base 3n/2 and the base (n+2)/2 differ by 1, far past 3/q
    estimate = fthreshold_estimate(p, {e: 1 for e in curve.monomials()}, 2, p)
    assert abs(estimate - f_threshold(curve, 2, p)) <= Fraction(3, p)
