"""The pair-density calculus: Segre products, support invariants, Frobenius
bracket scaling, and shape diagnostics (symmetry / regularity).

A :class:`PairDensity` bundles a graded pair's dimension d, multiplicity e and
density function f.  The ceiling ``F(x) = e*x^(d-1)/(d-1)!`` bounds f from
above; the defect ``F - f`` multiplies across Segre products, which is what
:func:`segre` implements.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .piecewise import PiecewisePolynomial, Polynomial, is_positive_on_open, positive_between


@dataclass(frozen=True)
class PairDensity:
    """Dimension, multiplicity and density function of a graded pair.

    The density must vanish on (-inf, 0), be compactly supported, and be
    continuous for dim >= 2 (one-dimensional pairs produce step functions).
    ``provenance`` records which construction produced it.
    """

    dim: int
    mult: int
    f: PiecewisePolynomial
    provenance: str = "unspecified"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        if self.mult < 1:
            raise ValueError("multiplicity must be a positive integer")
        if not self.f.right_tail.is_zero:
            raise ValueError("density must be compactly supported")
        # canonical form: a nonzero segment left of 0 would start at a
        # breakpoint below 0 or be the left tail
        bps = self.f.breakpoints
        if not self.f.left_tail.is_zero or (bps and bps[0] < 0):
            raise ValueError("density must vanish on the negative axis")
        if self.f.is_zero:
            raise ValueError("the zero function is not a valid pair density")
        if self.dim >= 2 and not self.f.is_continuous:
            raise ValueError("densities of pairs of dimension >= 2 are continuous")

    @property
    def alpha(self) -> Fraction:
        """Supremum of the support of the density."""
        sup = self.f.support_sup()
        assert sup is not None  # right tail is zero by construction
        return sup

    def to_dict(self) -> dict:
        return {"dim": self.dim, "mult": self.mult,
                "density": self.f.to_dict(), "provenance": self.provenance}

    @classmethod
    def from_dict(cls, data: dict) -> "PairDensity":
        """The pair of a ``to_dict`` object; ValueError naming the field
        for a missing key or a value of the wrong JSON type, and for a
        density negative somewhere, which no constructor here builds."""
        if not isinstance(data, dict):
            raise ValueError(f"a pair density must be a JSON object, got {json.dumps(data)}")
        if missing := [k for k in ("dim", "mult", "density") if k not in data]:
            raise ValueError(f'a pair density has no "{missing[0]}" key')
        for key in ("dim", "mult"):
            if type(data[key]) is not int:  # bool is an int in Python, not in JSON
                raise ValueError(f"{key} must be a JSON integer, got {json.dumps(data[key])}")
        pair = cls(dim=data["dim"], mult=data["mult"],
                   f=PiecewisePolynomial.from_dict(data["density"]),
                   provenance=str(data.get("provenance", "unspecified")))
        if not pair.f.is_nonnegative():
            raise ValueError("density must be nonnegative")
        return pair


def ceiling_polynomial(mult: int, dim: int) -> Polynomial:
    """F(x) = mult * x^(dim-1) / (dim-1)! as a plain polynomial."""
    return Polynomial.monomial(dim - 1, Fraction(mult, factorial(dim - 1)))


def segre(p: PairDensity, s: PairDensity) -> PairDensity:
    """Density of the Segre product of two pairs.

    Dimensions must both be >= 2.  The result has dimension d1 + d2 - 1,
    multiplicity e1*e2*C(d1+d2-2, d1-1) (the unique choice making the ceilings
    multiply), and density F1*f2 + F2*f1 - f1*f2.
    """
    if p.dim < 2 or s.dim < 2:
        raise ValueError("segre products need both dimensions >= 2")
    f1, f2 = p.f, s.f
    big1 = PiecewisePolynomial.from_global(ceiling_polynomial(p.mult, p.dim))
    big2 = PiecewisePolynomial.from_global(ceiling_polynomial(s.mult, s.dim))
    f = big1 * f2 + big2 * f1 - f1 * f2
    dim = p.dim + s.dim - 1
    mult = p.mult * s.mult * comb(p.dim + s.dim - 2, p.dim - 1)
    return PairDensity(dim=dim, mult=mult, f=f, provenance="segre")


def frobenius_bracket_scale(p: PairDensity, q0: int) -> PairDensity:
    """Density of the same ring with the ideal replaced by its q0-th
    Frobenius power: g(y) = q0^(d-1) * f(y/q0).

    The support scales by q0 and the integral by q0^d.
    """
    if q0 < 1:
        raise ValueError("q0 must be a positive prime power")
    g = p.f.compose_affine(Fraction(1, q0), 0).scale(Fraction(q0) ** (p.dim - 1))
    return PairDensity(dim=p.dim, mult=p.mult, f=g, provenance=p.provenance)


class SymmetryClass(enum.Enum):
    SYMMETRIC_AT_HALF_D = "symmetric-at-d/2"
    STRICTLY_LEFT_HEAVY = "strictly-left-heavy"
    OTHER = "other"


def symmetry_class(p: PairDensity) -> SymmetryClass:
    """Shape classification of the density of (R, m).

    ``SYMMETRIC_AT_HALF_D`` when f(x) = f(d - x) exactly.  For d = 2,
    ``STRICTLY_LEFT_HEAVY`` when g(y) = f(1-y) - f(1+y) > 0 for every y in
    (0,1), decided exactly at and between the cuts |b - 1| in (0, 1) of the
    breakpoints b.  f is continuous, so g has one value at each cut.  Where
    both segments of f that meet a cut interval are linear, so is g there,
    and its end values decide it; only an interval with a segment of degree
    >= 2 builds g and runs a Sturm sign analysis.
    """
    f, d = p.f, p.dim
    # canonical form: f.reflect(d) has exactly the breakpoints d - b, reversed
    bps = f.breakpoints
    if all(x == d - y for x, y in zip(bps, reversed(bps))) and f == f.reflect(d):
        return SymmetryClass.SYMMETRIC_AT_HALF_D
    if d != 2:
        return SymmetryClass.OTHER
    cuts = [Fraction(0)] + sorted({abs(b - 1) for b in bps if 0 < b < 2 and b != 1}) \
        + [Fraction(1)]
    # on (u, v) no breakpoint of f lies strictly between 1 - v and 1 - u, nor
    # between 1 + u and 1 + v, so f is the segment right of 1 - v on the
    # first range and the one right of 1 + u on the second; at a cut y the
    # segments right of 1 - y and of 1 + y hold f(1 - y) and f(1 + y)
    lefts = [f.segment_at(1 - y) for y in cuts]
    rights = [f.segment_at(1 + y) for y in cuts]
    g = [left(1 - y) - right(1 + y) for left, right, y in zip(lefts, rights, cuts)]
    if any(v <= 0 for v in g[1:-1]):
        return SymmetryClass.OTHER
    for u, v, gu, gv, left, right in zip(cuts, cuts[1:], g, g[1:], lefts[1:], rights):
        if left.degree <= 1 and right.degree <= 1:
            if not positive_between(gu, gv):
                return SymmetryClass.OTHER
        elif not is_positive_on_open(left.compose_affine(-1, 1)
                                     - right.compose_affine(1, 1), u, v):
            return SymmetryClass.OTHER
    return SymmetryClass.STRICTLY_LEFT_HEAVY


class RegularityVerdict(enum.Enum):
    REGULAR_CERTIFIED = "regular"
    NOT_REGULAR = "not-regular"


def regularity_verdict(p: PairDensity) -> RegularityVerdict:
    """Certify regularity from the support invariant: alpha = dim exactly.

    The caller is responsible for the density coming from (R, m) with R a
    domain of dimension >= 2; the diagnostic cannot check ring hypotheses.
    """
    return (RegularityVerdict.REGULAR_CERTIFIED if p.alpha == p.dim
            else RegularityVerdict.NOT_REGULAR)
