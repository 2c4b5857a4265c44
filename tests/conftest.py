from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from hkfun.bundle import HNData, Polarization, SyzygySpec
from hkfun.piecewise import PiecewisePolynomial


def random_parameter_tuple(rng: random.Random, max_dim: int = 5, max_deg: int = 4):
    d = rng.randint(1, max_dim)
    return tuple(rng.randint(1, max_deg) for _ in range(d))


def random_syzygy_spec(rng: random.Random) -> SyzygySpec:
    """Slope data of a syzygy bundle of the irrelevant maximal ideal: mu
    degree-1 generators, total degree -d, all slopes <= 0."""
    mu = rng.randint(3, 6)
    d = rng.randint(1, 3)
    parts = rng.randint(1, min(3, mu - 1))
    ranks = [1] * parts
    for _ in range(mu - 1 - parts):
        ranks[rng.randrange(parts)] += 1
    # strictly increasing positive weights, scaled so the degree comes out
    weights = sorted(rng.sample(range(1, 40), parts))
    if parts > 1 and rng.random() < 0.3:
        weights[0] = 0  # allow a trivial summand at slope zero
    total = sum(w * r for w, r in zip(weights, ranks))
    scale = Fraction(d, total)
    slopes = tuple(-w * scale for w in weights)
    return SyzygySpec(mu=mu, gen_degree=1, pol=Polarization(degree=d),
                      hn_v=HNData(slopes, tuple(ranks)))


def plain_rank_modp(matrix, p):
    """Rank over F_p by plain gaussian elimination, one numpy row operation
    per pivot and every entry reduced at every step: the slow cross-check of
    ``oracle.dense_rank_modp``.  Exact for p < 2^31, where a product of two
    reduced entries fits in int64."""
    a = np.array(matrix, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        nonzero = np.flatnonzero(a[rank:, c])
        if nonzero.size == 0:
            continue
        a[[rank, rank + nonzero[0]]] = a[[rank + nonzero[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
    return rank


def brute_graded_length(p, hypersurface, generators, q, m, num_vars):
    """Definition-level graded length: dense elimination over F_p on the full
    multiplication matrix, written independently of the library paths."""
    def monomials(nv, deg):
        if nv == 1:
            return [(deg,)]
        out = []
        for e in range(deg + 1):
            out.extend((e,) + r for r in monomials(nv - 1, deg - e))
        return out

    # pigeonhole: once every variable has a pure-power generator x_i^c_i,
    # each monomial of degree m > sum(c_i - 1) has some exponent >= c_i
    caps = {}
    for g in generators:
        if len(g) == 1:
            (e, c), = g.items()
            support = [i for i, x in enumerate(e) if x]
            if c % p and len(support) == 1:
                i = support[0]
                caps[i] = min(caps.get(i, e[i] * q), e[i] * q)
    if len(caps) == num_vars and m > sum(c - 1 for c in caps.values()):
        return 0

    rows = monomials(num_vars, m)
    index = {e: i for i, e in enumerate(rows)}
    polys = []
    if hypersurface is not None:
        polys.append(dict(hypersurface))
    for g in generators:
        polys.append({tuple(x * q for x in e): pow(c, q, p) for e, c in g.items()})
    matrix = []
    for poly in polys:
        dg = sum(next(iter(poly)))
        if m < dg:
            continue
        for mu in monomials(num_vars, m - dg):
            col = [0] * len(rows)
            for e, c in poly.items():
                pos = tuple(mu[i] + e[i] for i in range(num_vars))
                col[index[pos]] = (col[index[pos]] + c) % p
            matrix.append(col)
    if not matrix:
        return len(rows)
    return len(rows) - plain_rank_modp(np.array(matrix), p)


def combine_by_lookup(f, g, op):
    """Pointwise op of two piecewise polynomials, the slow way: the sorted set
    of both breakpoint tuples, and a bisection lookup of both segments at
    each breakpoint."""
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    left = op(f.left_tail, g.left_tail)
    right = op(f.right_tail, g.right_tail)
    pieces = [op(f.segment_at(b), g.segment_at(b)) for b in merged[:-1]]
    return PiecewisePolynomial(merged, pieces, left, right)


def subtract_by_negation(a, b):
    """Polynomial a - b as a + (-b), written apart from Polynomial.__sub__."""
    return a + (-b)


@pytest.fixture
def rng():
    return random.Random(1729)
