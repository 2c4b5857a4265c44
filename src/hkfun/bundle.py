"""Densities of vector bundles on a polarized curve from their slope data,
and the syzygy decomposition that produces two-dimensional pair densities.

A bundle with slope data (a_1 > ... > a_k, ranks r_1..r_k) against a degree-d
polarization has the piecewise-linear density

    f(x) = d * sum_k r_k * max(x_k - x, 0),      x_k = 1 - a_k/d,

supported on (-inf, 1 - a_min/d]: linear left tail, convex and decreasing,
vanishing exactly at the largest breakpoint.  A two-dimensional pair whose
ideal is generated by mu forms of one degree has density f_V - f_M for the
syzygy bundle V and the free bundle M of the generators, clipped to [0, inf).
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

    @property
    def mean_slope(self) -> Fraction:
        return self.total_degree / self.total_rank


@dataclass(frozen=True)
class Polarization:
    """Degree of the polarizing line bundle."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("polarization degree must be >= 1")


def bundle_density(hn: HNData, pol: Polarization) -> PiecewisePolynomial:
    """Piecewise-linear density of a bundle with the given slope data.

    Continuous on all of R, with breakpoints 1 - a_i/d and a linear left tail;
    identically zero from 1 - a_min/d on.  Strong Harder-Narasimhan slopes
    give the density in characteristic p; ordinary slopes give the
    large-characteristic limit.
    """
    d = pol.degree
    cuts = [1 - a / d for a in hn.slopes]  # increasing since slopes decrease
    segments: list[Polynomial] = []
    acc = Polynomial.zero()
    # build from the right: past the last cut the function is zero; moving
    # left across cut x_k adds d*r_k*(x_k - x)
    for x_k, r_k in zip(reversed(cuts), reversed(hn.ranks)):
        acc = acc + Polynomial([x_k * r_k * d, -r_k * d])
        segments.append(acc)
    segments.reverse()  # segments[i] applies left of cuts[i]
    left_tail = segments[0]
    pieces = segments[1:]
    return PiecewisePolynomial(cuts, pieces, left_tail, Polynomial.zero())


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
        # slope bookkeeping: a_min <= mean slope of V < slope of M
        if not (self.hn_v.min_slope <= self.hn_v.mean_slope < self.free_slope):
            raise ValueError("slope ordering a_min <= mu(V) < mu(M) violated")

    @property
    def free_slope(self) -> Fraction:
        return Fraction(self.pol.degree * (1 - self.gen_degree))

    @property
    def hn_m(self) -> HNData:
        return HNData((self.free_slope,), (self.mu,))


def syzygy_pair_density(spec: SyzygySpec) -> PairDensity:
    """Pair density f_V - f_M restricted to [0, inf), as a dimension-2 pair of
    multiplicity d.  The difference is verified nonnegative exactly, piece by
    piece, before the density is returned."""
    f = bundle_density(spec.hn_v, spec.pol) - bundle_density(spec.hn_m, spec.pol)
    f = f.truncate_before(0)
    if not f.is_nonnegative():
        raise ValueError("syzygy difference went negative; slope data is not "
                         "realizable for a pair")
    return PairDensity(dim=2, mult=spec.pol.degree, f=f, provenance="syzygy-bundle")
