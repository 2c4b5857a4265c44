"""Slice volumes of axis-aligned boxes and parameter-ideal pair densities.

``slice_volume`` returns the function x -> volume of the slice of the box
``[0,n_1] x ... x [0,n_m]`` by the hyperplane ``sum(y_i) = x``, normalized as
the convolution (projected) measure: it equals ``x^(m-1)/(m-1)!`` near 0 and
integrates to ``prod(n_i)``.  ``lattice_slice_count`` is the independent
integer-point oracle the volume function is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .density import PairDensity
from .piecewise import PiecewisePolynomial, Polynomial


@dataclass(frozen=True)
class BoxSliceSpec:
    """Edge lengths n_1, ..., n_m of an axis-aligned box (all >= 1)."""

    edge_lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_lengths) < 1:
            raise ValueError("need at least one edge length")
        if any(n < 1 or n != int(n) for n in self.edge_lengths):
            raise ValueError("edge lengths must be positive integers")
        object.__setattr__(self, "edge_lengths", tuple(int(n) for n in self.edge_lengths))


def slice_volume(spec: BoxSliceSpec) -> PiecewisePolynomial:
    """Degree-(m-1) piecewise polynomial supported exactly on [0, sum(n_i)].

    Computed by inclusion-exclusion over subset sums:
    ``V(x) = (1/(m-1)!) * sum_S (-1)^|S| * (x - n_S)_+^(m-1)``, its signed
    subset counts read off prod (1 - z^n_i), one edge at a time.  A cut with
    count c adds c * C(m-1, j) * (-cut)^(m-1-j) to the integer coefficient of
    x^j, and each piece divides by (m-1)! once.  Breakpoints land on the
    distinct subset sums; canonicalization merges any that turn out
    redundant.  The m = 1 case is the indicator of [0, n) and is the one
    discontinuous output of this module.
    """
    ns = spec.edge_lengths
    m = len(ns)
    if m == 1:
        return PiecewisePolynomial.on_interval(0, ns[0], Polynomial([1]))
    signed = {0: 1}  # every subset sum, zero coefficients kept
    for n in ns:
        for s, c in list(signed.items()):
            signed[s + n] = signed.get(s + n, 0) - c
    cuts = sorted(signed)
    fact = factorial(m - 1)
    acc = [0] * m  # (m-1)! times the sum so far, by power of x
    pieces = []
    for cut in cuts[:-1]:  # the first, 0, has c = 1
        if c := signed[cut]:
            power = c  # c * (-cut)^(m-1-j), from j = m-1 down
            for j in reversed(range(m)):
                acc[j] += comb(m - 1, j) * power
                power *= -cut
            piece = Polynomial([Fraction(a, fact) for a in acc])
        pieces.append(piece)
    # the full alternating sum telescopes to zero past the last subset sum
    return PiecewisePolynomial(cuts, pieces)


def lattice_slice_count(spec: BoxSliceSpec, q: int, m: int) -> int:
    """#{(a_1..a_k) integer, 0 <= a_i < n_i*q, sum a_i = m}.

    Dynamic programming over coordinates with a sliding window, so the cost is
    O(k * m) rather than O(k * m * q).
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if m < 0:
        return 0
    counts = [0] * (m + 1)
    counts[0] = 1
    for n in spec.edge_lengths:
        width = n * q
        out = [0] * (m + 1)
        running = 0
        for c in range(m + 1):
            running += counts[c]
            if c - width >= 0:
                running -= counts[c - width]
            out[c] = running
        counts = out
    return counts[m]


def parameter_density(mult: int, degrees: tuple[int, ...] | list[int]) -> PairDensity:
    """Density of a pair whose ideal is generated by a homogeneous system of
    parameters of the given degrees, in a ring of multiplicity ``mult``.

    The density is ``mult`` times the box slice volume of the degrees, with
    dimension = number of degrees.  It is symmetric about the degree sum, and
    its integral is ``mult * prod(degrees)``.
    """
    if mult < 1:
        raise ValueError("multiplicity must be a positive integer")
    spec = BoxSliceSpec(tuple(degrees))
    f = slice_volume(spec).scale(mult)
    return PairDensity(dim=len(spec.edge_lengths), mult=mult, f=f,
                       provenance="parameter-ideal")
