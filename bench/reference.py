"""Independent references the benchmark checks the program against.

Nothing here imports ``hkfun``: each value is computed from its mathematical
definition, so a fault in the program cannot hide in the reference too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np


def _monomials(m: int) -> list[tuple[int, int, int]]:
    """Exponents of the degree-m monomials in three variables."""
    if m < 0:
        return []
    return [(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1 - a)]


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination on columns of a dense matrix."""
    a = a % p
    rank = 0
    for c in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, c])
        if nonzero.size == 0:
            continue
        r = rank + int(nonzero[0])
        a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != rank]
        a[others] = (a[others] - np.outer(a[others, c], a[rank])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def graded_length(p: int, poly: dict, q: int, m: int) -> int:
    """dim over F_p of the degree-m piece of F_p[x,y,z]/(h, x^q, y^q, z^q).

    From the definition: the span of h*S_{m-d} and of x_i^q*S_{m-q} inside
    S_m, whose codimension is the length.
    """
    rows = _monomials(m)
    index = {e: i for i, e in enumerate(rows)}
    d = sum(next(iter(poly)))
    columns = []
    for mu in _monomials(m - d):
        col = np.zeros(len(rows), dtype=np.int64)
        for e, c in poly.items():
            col[index[(mu[0] + e[0], mu[1] + e[1], mu[2] + e[2])]] += c
        columns.append(col)
    for i in range(3):
        for mu in _monomials(m - q):
            e = list(mu)
            e[i] += q
            col = np.zeros(len(rows), dtype=np.int64)
            col[index[tuple(e)]] = 1
            columns.append(col)
    if not columns:
        return len(rows)
    return len(rows) - _rank_mod_p(np.array(columns).T, p)


def hypersurface_hilbert(d: int, m: int) -> int:
    """Hilbert function of S/(h) for a plane curve h of degree d: the exact
    length of every degree m < q, where the Frobenius powers add nothing."""
    return comb(m + 2, 2) - (comb(m - d + 2, 2) if m >= d else 0)


def syzygy_ehk(d: int, c: Fraction) -> Fraction:
    """Hilbert-Kunz multiplicity of a degree-d plane curve whose syzygy bundle
    of (x, y, z) has support invariant c: the slopes are a_min = d(1 - c) and
    a_max = -d - a_min, and e_HK = 3d/4 + (a_max - a_min)^2 / (4d)."""
    a_min = d * (1 - c)
    a_max = -d - a_min
    return Fraction(3 * d, 4) + (a_max - a_min) ** 2 / (4 * d)


def taxicab_scan(t: tuple[int, int, int], lam: int, n: int, l: int,
                 steps: int) -> tuple[Fraction, int | None]:
    """First step s < steps where an integer point of odd coordinate sum lies
    within taxicab distance 1 of l^s * n * t / lam, with that distance.

    Every integer point within distance 1 of the vector in each coordinate is
    tried, at full size (no reduction modulo anything).  Returns (1, None)
    when no step has such a point.
    """
    for s in range(steps):
        scaled = [l ** s * n * ti for ti in t]   # the vector times lam
        ranges = [range(-(-(v - lam) // lam), (v + lam) // lam + 1) for v in scaled]
        best = None
        for u in product(*ranges):
            if sum(u) % 2:
                dist = sum(abs(v - lam * ui) for v, ui in zip(scaled, u))
                if dist < lam and (best is None or dist < best):
                    best = dist
        if best is not None:
            return Fraction(best, lam), s
    return Fraction(1), None


def simpson_integral(f, lo: int, hi: int) -> Fraction:
    """Integral over [lo, hi] of a function that is a polynomial of degree at
    most 3 on every unit interval, by Simpson's rule (exact in that case)."""
    total = Fraction(0)
    for k in range(lo, hi):
        a, b = Fraction(k), Fraction(k + 1)
        total += (f(a) + 4 * f((a + b) / 2) + f(b)) / 6
    return total
