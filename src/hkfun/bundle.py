"""Densities of vector bundles on a polarized curve from their slope data,
and the syzygy decomposition that produces two-dimensional pair densities.

A bundle with slope data (a_1 > ... > a_k, ranks r_1..r_k) against a degree-d
polarization has the piecewise-linear density

    f(x) = d * sum_k r_k * max(x_k - x, 0),      x_k = 1 - a_k/d,

supported on (-inf, 1 - a_min/d]: linear left tail, convex and decreasing,
vanishing exactly at the largest breakpoint.  A two-dimensional pair whose
ideal is generated by mu forms of one degree has density f_V - f_M for the
syzygy bundle V and the free bundle M of the generators, clipped to [0, inf);
the checks of its ``SyzygySpec`` make that difference nonnegative.

Both are built in one pass from the right over signed slope data: a bundle's
slopes with their ranks, and for the pair V's slopes with +rank and M's one
slope with -mu.  Every piece is linear, c0 + c1*x, and crossing the cut x_k
leftwards adds r_k*(d - a_k) to c0 and -d*r_k to c1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import PairDensity
from .piecewise import PiecewisePolynomial, Polynomial, as_fraction


@dataclass(frozen=True)
class HNData:
    """Strictly decreasing slopes with positive integer ranks."""

    slopes: tuple[Fraction, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        slopes = tuple(as_fraction(a) for a in self.slopes)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if not self.slopes or len(self.slopes) != len(self.ranks):
            raise ValueError("slopes and ranks must be nonempty lists of equal length")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive integers")
        if any(a <= b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be strictly decreasing")

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    @property
    def total_degree(self) -> Fraction:
        return sum((a * r for a, r in zip(self.slopes, self.ranks)), Fraction(0))

    @property
    def min_slope(self) -> Fraction:
        return self.slopes[-1]


@dataclass(frozen=True)
class Polarization:
    """Degree of the polarizing line bundle."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("polarization degree must be >= 1")


def _slope_pieces(data: tuple[tuple[Fraction, int], ...], d: int
                  ) -> tuple[list[Fraction], list[Polynomial]]:
    """The cuts x_k = 1 - a_k/d, increasing, and the linear segments of
    d * sum_k r_k * max(x_k - x, 0), segments[i] left of cuts[i], over the
    pairs (a_k, r_k) of ``data`` in nonincreasing slope order.  Ranks may be
    negative; equal slopes share one cut."""
    cuts: list[Fraction] = []  # right to left
    segments: list[Polynomial] = []
    c0, c1 = Fraction(0), 0
    for a, r in reversed(data):
        x = 1 - a / d
        c0 += r * (d - a)
        c1 -= d * r
        if cuts and cuts[-1] == x:
            segments[-1] = Polynomial([c0, c1])
        else:
            cuts.append(x)
            segments.append(Polynomial([c0, c1]))
    cuts.reverse()
    segments.reverse()
    return cuts, segments


def bundle_density(hn: HNData, pol: Polarization) -> PiecewisePolynomial:
    """Piecewise-linear density of a bundle with the given slope data.

    Continuous on all of R, with breakpoints 1 - a_i/d and a linear left tail;
    identically zero from 1 - a_min/d on.  Strong Harder-Narasimhan slopes
    give the density in characteristic p; ordinary slopes give the
    large-characteristic limit.
    """
    cuts, segments = _slope_pieces(tuple(zip(hn.slopes, hn.ranks)), pol.degree)
    return PiecewisePolynomial(cuts, segments[1:], segments[0], Polynomial.zero())


def bundle_alpha(hn: HNData, pol: Polarization) -> Fraction:
    """Supremum of the density's support: 1 - a_min/d."""
    return 1 - hn.min_slope / pol.degree


@dataclass(frozen=True)
class SyzygySpec:
    """A two-dimensional pair presented through its syzygy bundle.

    ``mu`` generators, all of degree ``gen_degree``, on a curve polarized in
    degree d: the free bundle M has the single slope d*(1 - gen_degree) with
    rank mu, and the syzygy bundle V must have rank mu - 1 and total degree
    mu*d*(1 - gen_degree) - d.
    """

    mu: int
    gen_degree: int
    pol: Polarization
    hn_v: HNData

    def __post_init__(self):
        if self.mu < 2:
            raise ValueError("need at least two generators")
        if self.gen_degree < 1:
            raise ValueError("generator degree must be >= 1")
        d = self.pol.degree
        if self.hn_v.total_rank != self.mu - 1:
            raise ValueError("syzygy bundle rank must be mu - 1")
        expected = self.mu * d * (1 - self.gen_degree) - d
        if self.hn_v.total_degree != expected:
            raise ValueError(f"syzygy bundle degree must be {expected} "
                             f"(got {self.hn_v.total_degree})")
        # V is a subsheaf of M, a sum of copies of one line bundle, so no
        # subsheaf of V is steeper than M
        if self.hn_v.slopes[0] > self.free_slope:
            raise ValueError(f"largest slope {self.hn_v.slopes[0]} of V exceeds "
                             f"the slope {self.free_slope} of M")

    @property
    def free_slope(self) -> Fraction:
        return Fraction(self.pol.degree * (1 - self.gen_degree))

    @property
    def hn_m(self) -> HNData:
        return HNData((self.free_slope,), (self.mu,))


def syzygy_pair_density(spec: SyzygySpec) -> PairDensity:
    """Pair density f_V - f_M restricted to [0, inf), as a dimension-2 pair of
    multiplicity d, built in one pass: no slope of V exceeds M's, so M's
    slope with rank -mu leads V's slope data.  The spec's checks make the
    difference nonnegative, so it is returned as built."""
    data = ((spec.free_slope, -spec.mu), *zip(spec.hn_v.slopes, spec.hn_v.ranks))
    cuts, segments = _slope_pieces(data, spec.pol.degree)
    # every slope is at most mu(M) = d*(1 - g) with g = gen_degree >= 1, so
    # every cut is at least g and clipping at 0 adds the breakpoint 0 alone;
    # V's rank and degree give f = d*x on [0, g], and f = f_V >= 0 beyond
    f = PiecewisePolynomial([Fraction(0), *cuts], segments)
    return PairDensity(dim=2, mult=spec.pol.degree, f=f, provenance="syzygy-bundle")
