"""Exact univariate polynomials and piecewise polynomial functions over Q.

Everything here is built on ``fractions.Fraction``; no float ever enters a
computation.  A :class:`PiecewisePolynomial` is a function that is polynomial
on each half-open interval ``[b_i, b_{i+1})`` between consecutive breakpoints,
with two tail polynomials outside the breakpoint range.  Representations are
canonicalized on construction (adjacent equal pieces merged, redundant
breakpoints dropped), so two constructions of the same function compare equal.

The half-open convention makes evaluation at breakpoints deterministic.  For
continuous functions the convention is invisible; discontinuous functions are
stored as their right-continuous representative.

The kernels do no Fraction work that the exact result does not need, and each
shortcut rests on an argument, not on a tolerance:

- ``PiecewisePolynomial._combine`` merges the two sorted breakpoint tuples in
  one pass and steps through both segment lists alongside, in place of a
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
  ``positive_between`` decides it from its two end values; both
  ``is_positive_on_open`` (for a p of degree below 2, which
  ``is_nonneg_on_closed`` passes on unchanged) and ``symmetry_class`` call
  it.  Every piece of a bundle or syzygy density is linear.
- ``is_nonneg_on_closed`` tests the odd-multiplicity part of p on (a, b): p
  over it is a square, and it is squarefree, so its roots are p's sign changes.
- Canonical form makes two checks of ``hkfun.density`` local.  An affine
  substitution maps distinct neighbouring segments to distinct ones, so
  ``f.reflect(c)`` has exactly the breakpoints c - b in reverse order, and a
  mismatch there already means f != f.reflect(c).  The segment right of a
  breakpoint never equals the one left of it, so f vanishes on (-inf, 0)
  exactly when its left tail is zero and its first breakpoint, if any, is
  >= 0; this is ``f == f.truncate_before(0)`` without building either side.
- Continuity makes the dimension-2 symmetry test local.  Between consecutive
  cuts |b - 1| in (0, 1) of the breakpoints b, g(y) = f(1 - y) - f(1 + y) is
  the difference of two composed segments, and at a cut it has one value,
  the same from both sides, read once from f.  Where both segments are
  linear, g is too, and its values at the two cuts decide its sign; only a
  segment of degree >= 2 makes ``symmetry_class`` build g and run Sturm.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

QLike = Union[Fraction, int, str]


def as_fraction(value: QLike) -> Fraction:
    """Coerce an int, Fraction, or ``"num/den"`` string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
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

def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            a[i + k] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return a


def _quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b for b dividing a."""
    q, r = _poly_divmod(a.coeffs, b.coeffs)
    assert not r
    return Polynomial(q)


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'); same real roots, all simple."""
    if p.degree <= 1:
        return p
    g = Polynomial(_poly_gcd(p.coeffs, p.derivative().coeffs))
    if g.degree < 1:
        return p
    return _quotient(p, g)


def _sturm_chain(p: Polynomial):
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while chain[-1]:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for cs in chain:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(p: Polynomial, a: QLike, b: QLike) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    a, b = as_fraction(a), as_fraction(b)
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    if a >= b:
        return 0
    sf = squarefree_part(p)
    if sf.degree < 1:
        return 0
    if sf.degree == 1:
        c0, c1 = sf.coeffs
        return 1 if a < -c0 / c1 < b else 0
    chain = _sturm_chain(sf)
    n = _sign_variations(chain, a) - _sign_variations(chain, b)
    if sf(b) == 0:
        n -= 1
    return n


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
    g = Polynomial(_poly_gcd(p.coeffs, p.derivative().coeffs))
    return _quotient(_quotient(p, g), _odd_part(g))


def is_nonneg_on_closed(p: Polynomial, a: QLike, b: QLike) -> bool:
    """Exact test: p(x) >= 0 for all x in the closed interval [a, b]."""
    a, b = as_fraction(a), as_fraction(b)
    if a > b or p.is_zero:
        return True
    if a == b:
        return p(a) >= 0
    return is_positive_on_open(_odd_part(p), a, b)


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

class PiecewisePolynomial:
    """Piecewise polynomial on the real line with exact rational breakpoints.

    ``pieces[i]`` is the polynomial on ``[breakpoints[i], breakpoints[i+1])``;
    ``left_tail`` applies on ``(-inf, breakpoints[0])`` and ``right_tail`` on
    ``[breakpoints[-1], +inf)``.  With no breakpoints the function is a single
    global polynomial (stored in both tails).
    """

    __slots__ = ("breakpoints", "pieces", "left_tail", "right_tail")

    def __init__(
        self,
        breakpoints: Iterable[QLike] = (),
        pieces: Iterable[Polynomial] = (),
        left_tail: Polynomial = _ZERO_POLY,
        right_tail: Polynomial = _ZERO_POLY,
    ):
        bps = [as_fraction(b) for b in breakpoints]
        segs = [left_tail, *pieces, right_tail]
        if bps:
            # k breakpoints cut the line into k+1 regions
            if len(segs) != len(bps) + 1:
                raise ValueError("need exactly one piece per bounded interval")
        else:
            if len(segs) != 2:
                raise ValueError("pieces without breakpoints")
            if left_tail != right_tail:
                raise ValueError("tails must agree when there are no breakpoints")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # canonical form: drop any breakpoint whose neighbours carry the same
        # polynomial
        out_b: list[Fraction] = []
        out_s: list[Polynomial] = [segs[0]]
        for b, seg in zip(bps, segs[1:]):
            if seg == out_s[-1]:
                continue
            out_b.append(b)
            out_s.append(seg)
        object.__setattr__(self, "breakpoints", tuple(out_b))
        object.__setattr__(self, "pieces", tuple(out_s[1:-1]) if len(out_s) > 2 else ())
        object.__setattr__(self, "left_tail", out_s[0])
        object.__setattr__(self, "right_tail", out_s[-1] if len(out_s) > 1 else out_s[0])

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PiecewisePolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewisePolynomial":
        return cls()

    @classmethod
    def from_global(cls, poly: Polynomial) -> "PiecewisePolynomial":
        return cls((), (), poly, poly)

    @classmethod
    def on_interval(cls, lo: QLike, hi: QLike, poly: Polynomial) -> "PiecewisePolynomial":
        """poly on [lo, hi), zero elsewhere."""
        return cls([lo, hi], [poly])

    # -- structure ----------------------------------------------------------

    def _segments(self) -> list[Polynomial]:
        return [self.left_tail, *self.pieces, self.right_tail]

    def segment_at(self, x: QLike) -> Polynomial:
        x = as_fraction(x)
        i = bisect.bisect_right(self.breakpoints, x)
        return self._segments()[i]

    def iter_pieces(self) -> Iterator[tuple[Optional[Fraction], Optional[Fraction], Polynomial]]:
        """Yield (lo, hi, poly) over all segments; None marks an infinite end."""
        bounds: list[Optional[Fraction]] = [None, *self.breakpoints, None]
        for lo, hi, seg in zip(bounds, bounds[1:], self._segments()):
            yield lo, hi, seg

    def __call__(self, x: QLike) -> Fraction:
        return self.segment_at(x)(x)

    @property
    def is_continuous(self) -> bool:
        """True when the left and right limits agree at every breakpoint."""
        segs = self._segments()
        return all(segs[i](b) == segs[i + 1](b) for i, b in enumerate(self.breakpoints))

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints and self.left_tail.is_zero

    # -- pointwise algebra ---------------------------------------------------

    def _combine(self, other: "PiecewisePolynomial", op) -> "PiecewisePolynomial":
        # one merge pass over both breakpoint tuples: after each merged
        # breakpoint, a_segs[i] and b_segs[j] are the segments right of it
        a, b = self.breakpoints, other.breakpoints
        a_segs, b_segs = self._segments(), other._segments()
        merged: list[Fraction] = []
        segs = [op(self.left_tail, other.left_tail)]
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
        return PiecewisePolynomial(merged, segs[1:-1], segs[0], segs[-1])

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self._combine(other, lambda a, b: a * b)

    def scale(self, c: QLike) -> "PiecewisePolynomial":
        c = as_fraction(c)
        return PiecewisePolynomial(self.breakpoints, [p * c for p in self.pieces],
                                   self.left_tail * c, self.right_tail * c)

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
        """
        if not self.right_tail.is_zero:
            return None
        segs = self._segments()
        for i in range(len(self.pieces), 0, -1):
            if not segs[i].is_zero:
                return self.breakpoints[i]
        if not self.left_tail.is_zero:
            return self.breakpoints[0] if self.breakpoints else None
        return Fraction(0)

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
        if not self.breakpoints:
            g = self.left_tail.compose_affine(a, b)
            return PiecewisePolynomial.from_global(g)
        new_bps = [(bp - b) / a for bp in self.breakpoints]
        segs = [seg.compose_affine(a, b) for seg in self._segments()]
        if a > 0:
            return PiecewisePolynomial(new_bps, segs[1:-1], segs[0], segs[-1])
        return PiecewisePolynomial(list(reversed(new_bps)), list(reversed(segs[1:-1])),
                                   segs[-1], segs[0])

    def reflect(self, c: QLike) -> "PiecewisePolynomial":
        """Return x -> f(c - x); f == f.reflect(c) is the symmetry test."""
        return self.compose_affine(-1, c)

    def truncate_before(self, c: QLike) -> "PiecewisePolynomial":
        """Zero the function on (-inf, c), keeping it unchanged on [c, inf)."""
        c = as_fraction(c)
        bps = [c] + [b for b in self.breakpoints if b > c]
        pieces = [self.segment_at(b) for b in bps[:-1]]
        right = self.segment_at(bps[-1])
        return PiecewisePolynomial(bps, pieces, _ZERO_POLY, right)

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, PiecewisePolynomial)
                and self.breakpoints == other.breakpoints
                and self.pieces == other.pieces
                and self.left_tail == other.left_tail
                and self.right_tail == other.right_tail)

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.pieces, self.left_tail, self.right_tail))

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
        return cls(
            [as_fraction(b) for b in data["breakpoints"]],
            [Polynomial(p) for p in data["pieces"]],
            Polynomial(data["left_tail"]),
            Polynomial(data["right_tail"]),
        )


def _cauchy_root_bound(p: Polynomial) -> Fraction:
    """All real roots of p lie in [-M, M]."""
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) / lead


def tent_function() -> PiecewisePolynomial:
    """x on [0,1], 2-x on [1,2], zero elsewhere."""
    return PiecewisePolynomial([0, 1, 2], [Polynomial([0, 1]), Polynomial([2, -1])])
