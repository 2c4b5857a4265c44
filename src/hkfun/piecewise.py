"""Exact univariate polynomials and piecewise polynomial functions over Q.

Everything here is built on ``fractions.Fraction``; no float ever enters a
computation.  A :class:`PiecewisePolynomial` holds k strictly increasing
breakpoints and the k + 1 segments, one polynomial for each region they cut
the line into, each on the half-open interval from its left breakpoint.  A
discontinuous function is thus stored as its right-continuous
representative.  One private constructor builds every function from
breakpoints and segments and merges equal neighbours, so two constructions
of the same function compare equal.  The Sturm layer works on
:class:`Polynomial` alone, with one ``_divmod`` and one gcd(p, p'), and
``Polynomial.__call__`` is the one evaluator.

The kernels do no Fraction work that the exact result does not need, and each
shortcut rests on an argument, not on a tolerance:

- ``PiecewisePolynomial._combine`` merges the two sorted breakpoint tuples in
  one pass and steps through both segment tuples alongside, in place of a
  sorted set union and two bisections per breakpoint.
- ``Polynomial.__call__`` runs Horner from the leading coefficient on integer
  numerators over one running denominator and makes one Fraction at the
  end: lowest terms are unique, so one reduction at the end gives the
  Fraction that a reduction after every step gives.
  ``Polynomial.__sub__`` subtracts coefficient lists directly, and
  ``Polynomial`` keeps Fraction coefficients as they are.
- Pieces of degree <= 1 are decided by their end values.  The trapezoid rule
  is exact for degree <= 1, so ``PiecewisePolynomial.integrate`` builds no
  antiderivative for them.  A linear piece has its extremes at its ends, so
  ``positive_between`` decides it from its two end values for
  ``is_positive_on_open``, ``is_nonneg_on_closed`` and ``symmetry_class``.
  Every piece of a bundle or syzygy density is linear.
- ``is_nonneg_on_closed`` tests the odd-multiplicity part of p on (a, b): p
  over it is a square, and it is squarefree, so its roots are p's sign
  changes, and the Sturm count takes it with no second gcd.
- Canonical form makes checks local.  The segment left of the last
  breakpoint differs from a zero right tail, so that breakpoint is the
  support's supremum.  An affine substitution maps distinct neighbouring
  segments to distinct ones, so ``f.reflect(c)`` has exactly the
  breakpoints c - b in reverse order, and a mismatch there already means
  f != f.reflect(c).  f vanishes on (-inf, 0) exactly when its first
  segment is zero and its first breakpoint, if any, is >= 0; this is
  ``f == f.truncate_before(0)`` without building either side.
- Continuity makes the dimension-2 symmetry test local.  Between consecutive
  cuts |b - 1| in (0, 1) of the breakpoints b, g(y) = f(1 - y) - f(1 + y) is
  the difference of two composed segments, and at a cut it has one value,
  the same from both sides, read once from f.  Where both segments are
  linear, g is too, and its values at the two cuts decide its sign; only a
  segment of degree >= 2 makes ``symmetry_class`` build g and run Sturm.
"""

from __future__ import annotations

import bisect
import contextlib
import json
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

QLike = Union[Fraction, int, str]


def as_fraction(value: QLike) -> Fraction:
    """Coerce an int, Fraction, or ``"num/den"`` string to an exact Fraction;
    ValueError for a string that is not one, a zero denominator included."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_str(value: Fraction) -> str:
    """Render a Fraction as ``"num/den"`` (or ``"num"`` for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Polynomial:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are indexed by power; trailing zeros are stripped so the
    zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[QLike] = ()):
        cs = [c if isinstance(c, Fraction) else as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO_POLY

    @classmethod
    def monomial(cls, power: int, coeff: QLike = 1) -> "Polynomial":
        return cls([0] * power + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: QLike) -> Fraction:
        # Horner on integer numerators over one running denominator: the
        # value is num/den with den = x's denominator^k times the
        # coefficients' denominators, and one Fraction normalises it
        if isinstance(x, int):
            n, d = x, 1
        else:
            x = as_fraction(x)
            n, d = x.numerator, x.denominator
        cs = self.coeffs
        if len(cs) < 2:
            return cs[0] if cs else Fraction(0)
        num, den = cs[-1].numerator, cs[-1].denominator
        for c in cs[-2::-1]:
            num *= n
            den *= d
            b = c.denominator
            if b == 1:
                num += c.numerator * den
            else:
                num = num * b + c.numerator * den
                den *= b
        return Fraction(num, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [-y for y in b[len(a):]]
        return Polynomial(out)

    def __mul__(self, other: Union["Polynomial", QLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return _ZERO_POLY
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Polynomial(out)
        c = as_fraction(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def compose_affine(self, a: QLike, b: QLike) -> "Polynomial":
        """Return the polynomial x -> P(a*x + b)."""
        a, b = as_fraction(a), as_fraction(b)
        # Horner on coefficient lists: out <- out * (a*x + b) + c
        out: list[Fraction] = []
        for c in reversed(self.coeffs):
            out = ([b * out[0] + c]
                   + [b * out[i] + a * out[i - 1] for i in range(1, len(out))]
                   + [a * out[-1]]) if out else [c]
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = " + ".join(f"{fraction_str(c)}*x^{i}" for i, c in enumerate(self.coeffs) if c)
        return f"Polynomial({terms})"


_ZERO_POLY = Polynomial()


# ---------------------------------------------------------------------------
# exact sign analysis (Sturm sequences)
# ---------------------------------------------------------------------------

def _divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """q, r with a = q*b + r and deg r < deg b, for b != 0."""
    r, bs = list(a.coeffs), b.coeffs
    k = len(bs) - 1
    q = [Fraction(0)] * max(0, len(r) - k)
    for i in range(len(q) - 1, -1, -1):
        f = r[i + k] / bs[-1]
        if f:
            q[i] = f
            for j, c in enumerate(bs):
                r[i + j] -= f * c
    return Polynomial(q), Polynomial(r[:k])


def _gcd_derivative(p: Polynomial) -> Polynomial:
    """gcd(p, p') up to a constant factor, by Euclid's algorithm."""
    a, b = p, p.derivative()
    while not b.is_zero:
        a, b = b, _divmod(a, b)[1]
    return a


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p') for p != 0; same real roots, all simple."""
    return _divmod(p, _gcd_derivative(p))[0]


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not (r := _divmod(chain[-2], chain[-1])[1]).is_zero:
        chain.append(-r)
    return chain


def _sign_variations(chain: list[Polynomial], x: Fraction) -> int:
    signs = [v > 0 for v in (p(x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _count_simple_roots(sf: Polynomial, a: Fraction, b: Fraction) -> int:
    """Number of roots of a nonzero squarefree sf in (a, b), for a < b."""
    if sf.degree < 1:
        return 0
    # for squarefree sf the variations count the roots in (a, b]
    chain = _sturm_chain(sf)
    n = _sign_variations(chain, a) - _sign_variations(chain, b)
    return n - 1 if sf(b) == 0 else n


def count_roots_open(p: Polynomial, a: QLike, b: QLike) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    a, b = as_fraction(a), as_fraction(b)
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if a >= b:
        return 0
    return _count_simple_roots(squarefree_part(p), a, b)


def positive_between(lo: Fraction, hi: Fraction) -> bool:
    """Exact test that a polynomial of degree below 2 with values lo and hi at
    the ends of an interval is > 0 on its interior: it is monotone, and zero
    at one end at most unless it is zero."""
    return lo >= 0 and hi >= 0 and (lo > 0 or hi > 0)


def is_positive_on_open(p: Polynomial, a: QLike, b: QLike) -> bool:
    """Exact test: p(x) > 0 for all x in the open interval (a, b)."""
    a, b = as_fraction(a), as_fraction(b)
    if a >= b:
        return True
    if p.degree < 2:
        return positive_between(p(a), p(b))
    if count_roots_open(p, a, b) > 0:
        return False
    return p((a + b) / 2) > 0


def _odd_part(p: Polynomial) -> Polynomial:
    """prod_{i odd} a_i times a constant, for p = c * prod a_i^i with
    squarefree, pairwise coprime a_i; p over it is a positive constant times
    a square.  g = gcd(p, p') is prod a_i^(i-1) up to a constant, so p/g is
    prod a_i and the odd part of g is prod_{i even} a_i."""
    if p.degree < 2:
        return p
    g = _gcd_derivative(p)
    return _divmod(_divmod(p, g)[0], _odd_part(g))[0]


def is_nonneg_on_closed(p: Polynomial, a: QLike, b: QLike) -> bool:
    """Exact test: p(x) >= 0 for all x in the closed interval [a, b]."""
    a, b = as_fraction(a), as_fraction(b)
    if a > b or p.is_zero:
        return True
    if a == b:
        return p(a) >= 0
    odd = _odd_part(p)  # squarefree, so its roots are counted without a second gcd
    if odd.degree < 2:
        return positive_between(odd(a), odd(b))
    return _count_simple_roots(odd, a, b) == 0 and odd((a + b) / 2) > 0


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

class PiecewisePolynomial:
    """Piecewise polynomial on the real line with exact rational breakpoints.

    k breakpoints cut the line into k + 1 regions, and ``segments`` holds one
    polynomial for each: ``segments[0]`` on ``(-inf, breakpoints[0])``,
    ``segments[i]`` on ``[breakpoints[i-1], breakpoints[i])`` and
    ``segments[-1]`` on ``[breakpoints[-1], +inf)``.  With no breakpoints the
    function is the one global polynomial ``segments[0]``.  ``left_tail``,
    ``pieces`` and ``right_tail`` are views of the first, middle and last
    segments.
    """

    __slots__ = ("breakpoints", "segments")

    def __init__(
        self,
        breakpoints: Iterable[QLike] = (),
        pieces: Iterable[Polynomial] = (),
        left_tail: Polynomial = _ZERO_POLY,
        right_tail: Polynomial = _ZERO_POLY,
    ):
        bps = [as_fraction(b) for b in breakpoints]
        segs = [left_tail, *pieces, right_tail]
        if not bps:
            if len(segs) != 2:
                raise ValueError("pieces without breakpoints")
            if left_tail != right_tail:
                raise ValueError("tails must agree when there are no breakpoints")
        elif len(segs) != len(bps) + 1:
            raise ValueError("need exactly one piece per bounded interval")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        f = self._from_segments(bps, segs)
        object.__setattr__(self, "breakpoints", f.breakpoints)
        object.__setattr__(self, "segments", f.segments)

    @classmethod
    def _from_segments(cls, breakpoints: Sequence[Fraction],
                       segments: Sequence[Polynomial]) -> "PiecewisePolynomial":
        """Strictly increasing ``breakpoints`` and one segment more, in
        canonical form: a breakpoint between equal segments is dropped."""
        out_b: list[Fraction] = []
        out_s: list[Polynomial] = [segments[0]]
        for b, seg in zip(breakpoints, segments[1:]):
            if seg != out_s[-1]:
                out_b.append(b)
                out_s.append(seg)
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", tuple(out_b))
        object.__setattr__(f, "segments", tuple(out_s))
        return f

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PiecewisePolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewisePolynomial":
        return cls()

    @classmethod
    def from_global(cls, poly: Polynomial) -> "PiecewisePolynomial":
        return cls._from_segments((), (poly,))

    @classmethod
    def on_interval(cls, lo: QLike, hi: QLike, poly: Polynomial) -> "PiecewisePolynomial":
        """poly on [lo, hi), zero elsewhere."""
        return cls([lo, hi], [poly])

    # -- structure ----------------------------------------------------------

    # views of the first, middle and last segments
    left_tail = property(lambda self: self.segments[0])
    pieces = property(lambda self: self.segments[1:-1])
    right_tail = property(lambda self: self.segments[-1])

    def segment_at(self, x: QLike) -> Polynomial:
        return self.segments[bisect.bisect_right(self.breakpoints, as_fraction(x))]

    def iter_pieces(self) -> Iterator[tuple[Optional[Fraction], Optional[Fraction], Polynomial]]:
        """Yield (lo, hi, poly) over all segments; None marks an infinite end."""
        bounds: list[Optional[Fraction]] = [None, *self.breakpoints, None]
        return zip(bounds, bounds[1:], self.segments)

    def __call__(self, x: QLike) -> Fraction:
        return self.segment_at(x)(x)

    @property
    def is_continuous(self) -> bool:
        """True when the left and right limits agree at every breakpoint."""
        segs = self.segments
        return all(s(b) == t(b) for b, s, t in zip(self.breakpoints, segs, segs[1:]))

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints and self.segments[0].is_zero

    # -- pointwise algebra ---------------------------------------------------

    def _combine(self, other: "PiecewisePolynomial", op) -> "PiecewisePolynomial":
        # one merge pass over both breakpoint tuples: after each merged
        # breakpoint, a_segs[i] and b_segs[j] are the segments right of it
        a, b = self.breakpoints, other.breakpoints
        a_segs, b_segs = self.segments, other.segments
        merged: list[Fraction] = []
        segs = [op(a_segs[0], b_segs[0])]
        i = j = 0
        while i < len(a) or j < len(b):
            if j == len(b) or (i < len(a) and a[i] < b[j]):
                merged.append(a[i])
                i += 1
            elif i == len(a) or b[j] < a[i]:
                merged.append(b[j])
                j += 1
            else:
                merged.append(a[i])
                i += 1
                j += 1
            segs.append(op(a_segs[i], b_segs[j]))
        return PiecewisePolynomial._from_segments(merged, segs)

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a * b)

    def scale(self, c: QLike) -> "PiecewisePolynomial":
        c = as_fraction(c)
        return PiecewisePolynomial._from_segments(self.breakpoints,
                                                  [p * c for p in self.segments])

    # -- calculus ------------------------------------------------------------

    def integrate(self, a: QLike, b: QLike) -> Fraction:
        """Exact integral over [a, b]; reversed bounds are rejected."""
        a, b = as_fraction(a), as_fraction(b)
        if a > b:
            raise ValueError("reversed integration bounds")
        total = Fraction(0)
        for lo, hi, seg in self.iter_pieces():
            left = a if lo is None else max(a, lo)
            right = b if hi is None else min(b, hi)
            if left < right and not seg.is_zero:
                if seg.degree <= 1:
                    # the trapezoid rule is exact for degree <= 1
                    total += (right - left) * (seg(left) + seg(right)) / 2
                else:
                    anti = seg.antiderivative()
                    total += anti(right) - anti(left)
        return total

    def support_sup(self) -> Optional[Fraction]:
        """Supremum of the support when finite; None for an unbounded tail.

        The zero function returns 0 (neutral value for functions on [0, oo)).
        In canonical form the segment left of the last breakpoint differs
        from a zero right tail, so that breakpoint is the supremum.
        """
        if not self.segments[-1].is_zero:
            return None
        return self.breakpoints[-1] if self.breakpoints else Fraction(0)

    # -- transforms ----------------------------------------------------------

    def compose_affine(self, a: QLike, b: QLike) -> "PiecewisePolynomial":
        """Return g with g(x) = f(a*x + b), a != 0.

        For a < 0 the half-open orientation flips; the result is the
        right-continuous representative of the transformed function (exact
        whenever f is continuous).
        """
        a, b = as_fraction(a), as_fraction(b)
        if a == 0:
            raise ValueError("affine substitution must be invertible")
        bps = [(bp - b) / a for bp in self.breakpoints]
        segs = [seg.compose_affine(a, b) for seg in self.segments]
        if a < 0:
            bps.reverse()
            segs.reverse()
        return PiecewisePolynomial._from_segments(bps, segs)

    def reflect(self, c: QLike) -> "PiecewisePolynomial":
        """Return x -> f(c - x); f == f.reflect(c) is the symmetry test."""
        return self.compose_affine(-1, c)

    def truncate_before(self, c: QLike) -> "PiecewisePolynomial":
        """Zero the function on (-inf, c), keeping it unchanged on [c, inf)."""
        c = as_fraction(c)
        i = bisect.bisect_right(self.breakpoints, c)
        return PiecewisePolynomial._from_segments([c, *self.breakpoints[i:]],
                                                  [_ZERO_POLY, *self.segments[i:]])

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, PiecewisePolynomial)
                and self.breakpoints == other.breakpoints
                and self.segments == other.segments)

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.segments))

    def __repr__(self) -> str:
        parts = [f"[{fraction_str(lo) if lo is not None else '-inf'}, "
                 f"{fraction_str(hi) if hi is not None else 'inf'}): {seg!r}"
                 for lo, hi, seg in self.iter_pieces() if not seg.is_zero]
        return "PiecewisePolynomial(" + ("0" if not parts else "; ".join(parts)) + ")"

    # -- exact sign checks -----------------------------------------------------

    def is_nonnegative(self) -> bool:
        """Exact check that f >= 0 everywhere (tails included)."""
        for lo, hi, seg in self.iter_pieces():
            if seg.is_zero:
                continue
            if lo is None or hi is None:
                # unbounded ends: widen to a window past every real root,
                # where the sign is the limit sign
                bound = _cauchy_root_bound(seg)
                lo, hi = (lo if lo is not None else min(hi if hi is not None else 0, -bound) - 1,
                          hi if hi is not None else max(lo if lo is not None else 0, bound) + 1)
            if not is_nonneg_on_closed(seg, lo, hi):
                return False
        return True

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "breakpoints": [fraction_str(b) for b in self.breakpoints],
            "pieces": [[fraction_str(c) for c in p.coeffs] for p in self.pieces],
            "left_tail": [fraction_str(c) for c in self.left_tail.coeffs],
            "right_tail": [fraction_str(c) for c in self.right_tail.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewisePolynomial":
        """The function of a ``to_dict`` object; ValueError naming the field
        for anything but arrays of integers and ``"num/den"`` strings."""
        if not isinstance(data, dict):
            raise ValueError(f"density must be a JSON object, got {json.dumps(data)}")
        if missing := [k for k in ("breakpoints", "pieces", "left_tail", "right_tail")
                       if k not in data]:
            raise ValueError(f'density has no "{missing[0]}" key')
        pieces = _json_array(data["pieces"], "pieces")
        return cls(_json_rationals(data["breakpoints"], "breakpoints"),
                   [Polynomial(_json_rationals(p, f"pieces[{i}]")) for i, p in enumerate(pieces)],
                   Polynomial(_json_rationals(data["left_tail"], "left_tail")),
                   Polynomial(_json_rationals(data["right_tail"], "right_tail")))


def _json_array(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {json.dumps(value)}")
    return value


def _json_rationals(value, field: str) -> list[Fraction]:
    """A JSON array of integers and ``"num/den"`` strings as Fractions."""
    return [_json_rational(c, f"{field}[{i}]") for i, c in enumerate(_json_array(value, field))]


def _json_rational(value, field: str) -> Fraction:
    if type(value) is int or isinstance(value, str):  # a JSON true is no integer
        with contextlib.suppress(ValueError):
            return as_fraction(value)
    raise ValueError(f'{field} must be an integer or a "num/den" string, got {json.dumps(value)}')


def _cauchy_root_bound(p: Polynomial) -> Fraction:
    """All real roots of p lie in [-M, M]."""
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) / lead


def tent_function() -> PiecewisePolynomial:
    """x on [0,1], 2-x on [1,2], zero elsewhere."""
    return PiecewisePolynomial([0, 1, 2], [Polynomial([0, 1]), Polynomial([2, -1])])
