"""Plane trinomial curves: classification, residue invariants, and exact
F-thresholds of the ideals (x^n, y^n, z^n).

A trinomial is *irregular* when its projective curve carries a point of
multiplicity r >= d/2 (such a point can only sit at one of the three
coordinate points, where the threshold is a closed form in r, d, n).  The
regular case reduces to a finite residue computation: the threshold depends
on the prime p only through the class of p modulo 2*lambda_h, and each class
is decided by a taxicab-distance search over a bounded set of integer
corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Optional, Union


class TrinomialShapeError(ValueError):
    """Exponent data does not match either supported trinomial shape."""


def _check_shape(mons: tuple[tuple[int, int, int], ...]) -> None:
    """The checks both shapes share, on their three exponent vectors:
    nonnegative, one degree d >= 3, distinct, and not collinear.  Three
    vectors on one line make h a monomial times a form in two monomials of
    degree >= 2, which splits over the algebraic closure: the curve is
    reducible."""
    if any(x < 0 for e in mons for x in e):
        raise TrinomialShapeError("exponents must be nonnegative")
    degrees = {sum(e) for e in mons}
    if len(degrees) != 1:
        raise TrinomialShapeError("the three monomials must share one degree")
    if degrees.pop() < 3:
        raise TrinomialShapeError("degree must be >= 3")
    if len(set(mons)) < 3:
        raise TrinomialShapeError("the three monomials must be distinct")
    u, v = ([x - y for x, y in zip(e, mons[0])] for e in mons[1:])
    if u[1] * v[2] == u[2] * v[1] and u[2] * v[0] == u[0] * v[2] \
            and u[0] * v[1] == u[1] * v[0]:
        raise TrinomialShapeError("the three exponent vectors are collinear, so "
                                  "the curve is reducible")


class TrinomialHypothesisError(ValueError):
    """The curve is outside the supported regular-trinomial class (a derived
    invariant failed to be positive)."""


@dataclass(frozen=True)
class TypeI:
    """h = x^a1 y^a2 + y^b1 z^b2 + z^c1 x^c2 with a1+a2 = b1+b2 = c1+c2 = d."""

    a1: int
    a2: int
    b1: int
    b2: int
    c1: int
    c2: int

    def __post_init__(self):
        _check_shape(self.monomials())

    @property
    def degree(self) -> int:
        return self.a1 + self.a2

    def monomials(self) -> tuple[tuple[int, int, int], ...]:
        return ((self.a1, self.a2, 0), (0, self.b1, self.b2), (self.c2, 0, self.c1))


@dataclass(frozen=True)
class TypeII:
    """h = x^d + x^a1 y^a2 z^a3 + y^b z^c with a1+a2+a3 = d = b+c."""

    d: int
    a1: int
    a2: int
    a3: int
    b: int
    c: int

    def __post_init__(self):
        _check_shape(self.monomials())

    @property
    def degree(self) -> int:
        return self.d

    def monomials(self) -> tuple[tuple[int, int, int], ...]:
        return ((self.d, 0, 0), (self.a1, self.a2, self.a3), (0, self.b, self.c))


TrinomialCurve = Union[TypeI, TypeII]


def fermat(d: int) -> TypeII:
    """x^d + y^d + z^d."""
    return TypeII(d=d, a1=0, a2=d, a3=0, b=0, c=d)


def cyclic(d: int) -> TypeI:
    """x^(d-1) y + y^(d-1) z + z^(d-1) x."""
    return TypeI(a1=d - 1, a2=1, b1=d - 1, b2=1, c1=d - 1, c2=1)


def coordinate_multiplicities(curve: TrinomialCurve) -> tuple[int, int, int]:
    """Multiplicity of the curve at [1:0:0], [0:1:0], [0:0:1].

    Each is the minimal total degree after dehomogenizing at the point; a
    point off the curve (constant term present) has multiplicity 0.  Unit
    coefficients cannot cancel, so merging coincident monomials is safe.
    """
    mons = curve.monomials()
    out = []
    for i in range(3):
        degs = {sum(e) - e[i] for e in mons}
        out.append(min(degs))
    return tuple(out)


@dataclass(frozen=True)
class TrinomialInvariants:
    """The four positive integers attached to a regular trinomial, with their
    derived quantities ``common_factor`` (the gcd of the four) and
    ``lambda_h`` = lam / common_factor, computed once when the instance is
    made; they are not fields, so equality and repr read the four alone."""

    alpha: int
    beta: int
    nu: int
    lam: int

    def __post_init__(self):
        if min(self.alpha, self.beta, self.nu, self.lam) <= 0:
            raise TrinomialHypothesisError(
                "invariants must all be positive; this curve is outside the "
                "supported regular-trinomial class")
        a = gcd(self.alpha, self.beta, self.nu, self.lam)
        object.__setattr__(self, "common_factor", a)
        object.__setattr__(self, "lambda_h", self.lam // a)


@dataclass(frozen=True)
class Regular:
    invariants: TrinomialInvariants


@dataclass(frozen=True)
class Irregular:
    multiplicity: int


def classify(curve: TrinomialCurve) -> Union[Regular, Irregular]:
    """Classify a trinomial: irregular when some coordinate point has
    multiplicity r >= d/2 (the largest such r is reported), regular otherwise
    (with the four derived invariants).

    Collinear shapes are refused when the curve is made; irreducibility
    beyond that (over F_p it can depend on p) is the caller's contract.
    """
    d = curve.degree
    r = max(coordinate_multiplicities(curve))
    if 2 * r >= d:
        return Irregular(multiplicity=r)
    if isinstance(curve, TypeI):
        inv = TrinomialInvariants(
            alpha=curve.a1 + curve.b1 - d,
            beta=curve.a1 + curve.c1 - d,
            nu=curve.b1 + curve.c1 - d,
            lam=curve.a1 * curve.b1 + curve.a2 * curve.c2 - curve.b1 * curve.c2,
        )
    else:
        inv = TrinomialInvariants(
            alpha=curve.a2,
            beta=curve.c,
            nu=curve.a2 + curve.c - d,
            lam=curve.a2 * curve.c - curve.a3 * curve.b,
        )
    return Regular(invariants=inv)


def taxicab_distance(v: tuple, u: tuple) -> Fraction:
    """Exact l1 distance between a rational triple and an integer triple."""
    return sum((abs(Fraction(a) - b) for a, b in zip(v, u)), Fraction(0))


def taxicab_search(inv: TrinomialInvariants, n: int,
                   l: int) -> tuple[Fraction, Optional[int]]:
    """Scan s = 0, 1, ... for the first step where some odd-sum corner comes
    within taxicab distance 1 of v = l^s * n * (alpha, beta, nu)/lambda mod 2,
    until l^s returns to 1 modulo 2*lambda_h, where v starts to repeat.
    Returns (T, D): the first distance T below 1 and the step D where it
    occurs, or (1, None) when no step comes within distance 1.

    The scan runs in integers over lambda = ``inv.lam``: v_i = N_i / lambda
    with N_i = (l^s * alpha_i * n) mod 2*lambda for alpha_i in (alpha, beta,
    nu) (the corner distance only depends on v mod 2).  A distance below 1
    forces each coordinate of the witness to be floor(v_i) or floor(v_i) + 1,
    the latter only when v_i is not an integer.  The nearest such corner has
    distance numerator sum min(r_i, lambda - r_i), r_i = N_i mod lambda; if
    its sum is even, the nearest odd one moves the non-integral coordinate
    with the least extra cost |lambda - 2*r_i| (moving two keeps the parity,
    moving three costs more).  T is the numerator over lambda if below 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lam_h = inv.lambda_h
    modulus = 2 * lam_h
    if gcd(l, modulus) != 1:
        raise ValueError(f"l must be coprime to {modulus}")
    lam = inv.lam
    weights = (inv.alpha * n, inv.beta * n, inv.nu * n)
    ls = 1
    for s in count():
        # flip stays lam when every coordinate is an integer: no odd corner
        parity, dist, flip = 0, 0, lam
        for w in weights:
            floor, rest = divmod((ls * w) % (2 * lam), lam)
            parity += floor + (2 * rest > lam)
            dist += min(rest, lam - rest)
            if rest:
                flip = min(flip, abs(lam - 2 * rest))
        if parity % 2 == 0:
            dist += flip
        if dist < lam:
            return Fraction(dist, lam), s
        ls = (ls * l) % modulus
        if ls == 1:
            return Fraction(1), None


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def residue_representative(p: int, lambda_h: int) -> int:
    """The representative in {1, ..., lambda_h} of the class {+-p} modulo
    2*lambda_h."""
    r = p % (2 * lambda_h)
    return min(r, 2 * lambda_h - r)


def prime_class(kind: Union[Regular, Irregular], p: int) -> Optional[int]:
    """The class of the prime p that the threshold reads: its
    ``residue_representative`` modulo 2*lambda_h on a regular curve, None on
    an irregular one, whose threshold does not depend on p.  Raises
    ValueError when p is not prime or divides 2*lambda_h."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(kind, Irregular):
        return None
    lambda_h = kind.invariants.lambda_h
    l = residue_representative(p, lambda_h)
    if gcd(l, 2 * lambda_h) != 1:
        raise ValueError(f"prime {p} divides 2*lambda_h = {2 * lambda_h}")
    return l


def f_threshold(curve: TrinomialCurve, n: int, p: int) -> Fraction:
    """Exact F-threshold of (x,y,z) with respect to (x^n, y^n, z^n) on the
    trinomial curve, in characteristic p.

    Irregular curve of multiplicity r:  3n/2 + (2r-d)*n/(2d).
    Regular curve:  3n/2 + lambda*(1-T)/(2*p^D*d) from the residue search
    at the class of p modulo 2*lambda_h.

    The closed forms are backed by theory for p >= max(n, d^2) in the regular
    case; smaller primes are accepted and evaluate the same formula.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = curve.degree
    kind = classify(curve)
    l = prime_class(kind, p)
    if l is None:
        return Fraction(3 * n, 2) + Fraction((2 * kind.multiplicity - d) * n, 2 * d)
    return _residue_row(kind.invariants, n, d, l).threshold_at(p)


@dataclass(frozen=True)
class ResidueRow:
    """One residue class of the threshold table."""

    representative: int
    T: Fraction
    D: Optional[int]
    base: Fraction
    weight: int  # lambda * (1 - T)
    poldeg: int

    def threshold_at(self, p: int) -> Fraction:
        if self.D is None:
            return self.base
        return self.base + Fraction(self.weight, 2 * p ** self.D * self.poldeg)

    @property
    def formula(self) -> str:
        if self.D is None or self.weight == 0:
            return str(self.base)
        return f"{self.base} + {self.weight}/(2*{self.poldeg}*p^{self.D})"


MAX_TABLE_LAMBDA_H = 2 ** 16


def residue_table(curve: TrinomialCurve, n: int) -> list[ResidueRow]:
    """One row per residue class of (Z/2*lambda_h)*/{+-1}, ordered by
    representative.  Rejects irregular curves (their threshold does not
    depend on p) and lambda_h above ``MAX_TABLE_LAMBDA_H``."""
    kind = classify(curve)
    if isinstance(kind, Irregular):
        raise ValueError("irregular curves have a single p-independent threshold")
    inv = kind.invariants
    if inv.lambda_h > MAX_TABLE_LAMBDA_H:
        raise ValueError(f"lambda_h = {inv.lambda_h} is past the residue table's "
                         f"limit of {MAX_TABLE_LAMBDA_H}")
    return [_residue_row(inv, n, curve.degree, l) for l in range(1, inv.lambda_h + 1)
            if gcd(l, 2 * inv.lambda_h) == 1]


def _residue_row(inv: TrinomialInvariants, n: int, d: int, l: int) -> ResidueRow:
    """The regular threshold at the class l: the scan's (T, D) with the
    formula's base 3n/2 and integral weight lambda*(1-T)."""
    T, D = taxicab_search(inv, n, l)
    # T is an integer over lambda (or 1), so lambda*(1 - T) is an integer
    return ResidueRow(representative=l, T=T, D=D, base=Fraction(3 * n, 2),
                      weight=int(inv.lam * (1 - T)), poldeg=d)
