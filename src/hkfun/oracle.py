"""Characteristic-p ground truth: graded colengths of Frobenius-power
quotients, computed as corank of an explicit multiplication matrix over F_p.

Polynomials are dicts mapping exponent tuples to coefficients mod p.  For a
degree-m piece the matrix columns are all monomial multiples (of the right
degree) of the hypersurface and of the q-th powers of the generators,
expressed in the monomial basis; the graded length is dim - rank.

``quotient_lengths`` sets up one quotient R/I^[q] once: it checks the input
(the number of variables is the one length of every exponent tuple of h and
the generators, never an option), brackets the generators and sorts them
into caps (the least pure power of each variable) and surviving mixed
monomials; a mixed monomial that a pure power divides adds nothing to the
ideal and is dropped.  That one analysis picks one of three rank paths and
the Gorenstein mirror below; one ``Quotient`` record holds them with the
variable count, the pair's dimension and the sweep bound, and no entry
derives those again.  A profile is the plain dict of its lengths.
``length(m)`` does only the work of degree m: a sweep or bisection sets up once.

- ``"diagonal"``: three variables, every generator a pure power (caps c_x,
  c_y, c_z) and h = c_1 x^d + c_2 y^d + c_3 z^d, the Fermat family.  Over
  k[X, Y, Z] with X = x^d, Y = y^d, Z = z^d, the ring S is free on the
  x^i y^j z^r with i, j, r < d, and h and the ideal (x^c_x, y^c_y, z^c_z)
  respect that basis: x^(d*alpha + i) lies in (x^c_x) exactly when
  alpha >= a_i = ceil((c_x - i)/d), and likewise b_j from c_y and k_r from
  c_z.  So the quotient is the direct sum over (i, j, r) of
  k[X,Y,Z]/(X^a_i, Y^b_j, Z^k_r, c_1 X + c_2 Y + c_3 Z), shifted to degree
  i + j + r.  Solving h for X leaves k[Y,Z]/(Y^b_j, Z^k_r, (c_2 Y + c_3 Z)^a_i),
  and Y -> Y/c_2, Z -> Z/c_3 is a graded automorphism that fixes the ideals
  (Y^b) and (Z^k) and sends the third generator to a unit times (Y + Z)^a_i,
  so no length changes.  The degree-t piece of such a block is a rank of a
  Toeplitz matrix with entries binom(a, s - u) mod p and at most
  min(b, k) rows: the two-variable blocks of Han (thesis, Brandeis 1991) and
  Han-Monsky (Math. Z. 1993).  Degree m of the quotient sums the d^2 blocks
  with i + j + r = m mod d at t = (m - i - j - r)/d.  There are at most 8
  distinct (a, b, k), so ``length`` keeps each block length it has found
  for the life of the quotient.
- ``"pure-power"``: three variables, every generator a pure power (caps
  x^c_x, y^c_y, z^c_z) and h containing a pure power x_v^d.  Then h is monic
  of degree d in x_v over A = k[x_a, x_b]/(x_a^c_a, x_b^c_b), so A[x_v]/(h) is
  a free A-module with basis 1, ..., x_v^(d-1), and the quotient is that
  module modulo the A-span of x_v^(c_v+i) mod h, i < d: the two-variable
  setting of Han-Monsky ("Some surprising Hilbert-Kunz functions", Math. Z.
  1993).  The d reductions of x_v^(c_v+i), and their nonzeros, are the
  setup; a degree is then a rank problem with at most d*max(c) rows and
  columns, in place of a walk over all monomials of that degree.  Each
  nonzero lands on the matrix along one run of shifts, so the matrix is
  written in one scatter.

  A curve without a pure power takes this path too when the caps are one Q
  that is a power of p, as for m^[q].  Over F_p every linear form satisfies
  l^Q = sum a_i x_i^Q, so (x^Q, y^Q, z^Q) is fixed by every graded linear
  automorphism g over F_p, and S/(h, x^Q, y^Q, z^Q) has the same graded
  lengths as S/(h o g, x^Q, y^Q, z^Q).  For the first point P of P^2(F_p)
  with h(P) != 0, written with P_i = 1, the shear x_j -> x_j + P_j x_i
  (j != i) makes h(P) the coefficient of x_i^d.  Such a point exists when
  p > d: a nonzero form of partial degrees below p does not vanish on all
  of F_p^3.  A curve through every point of P^2(F_p) takes the walk.
- ``"walk"``: every other case.  The monomial generators cut out a box of
  standard monomials.  The hypersurface columns are eliminated
  structurally: a column whose lex-largest entry stays inside the box is
  already a pivot, and the few columns whose lead falls outside reduce by
  walking down the lattice (each step strictly decreases the lex-largest
  entry, so the walk terminates).  Each multiple mu*g of a non-monomial
  generator g, with mu outside the box's ideal, is cut to the box and
  reduced by the same walk.  The structural pivots have distinct leads, so
  the rank is their number plus the rank of the reduced residual columns,
  whichever polynomial a column came from.  Only that small residual
  system reaches dense elimination, and it is capped in size.

All three paths end in one rank kernel, ``dense_rank_modp``.  It first peels
singletons: a row or column with one nonzero is a pivot, and zero rows and
columns drop out, pass after pass.  The core left is eliminated with delayed
reduction, after the FFLAS/FFPACK kernels of Dumas, Giorgi and Pernet (ACM
TOMS 2008): a step reduces only the pivot column and the pivot row mod p,
subtracts their outer product from the trailing block unreduced, and the
block is reduced only when one more step could carry an entry past the
bound of its type.  As there, the type follows from p (``_rank_dtype``):
a step moves an entry by less than (p - 1)^2, so int32, with the bound
2^30, holds a step for p <= 32749, and int64, with 2^62, for p < 2^31,
which ``quotient_lengths`` checks.  The paths build their matrices in that
type.  No float is involved.

``colength_profile`` and ``top_nonzero_degree`` rank only the upper half of
a profile when the bracketed generators are exactly the pure powers
x_1^c_1, ..., x_n^c_n (after the redundant mixed monomials are dropped) and
a hypersurface h of degree d is given, in any number of variables: the
caps that also open the diagonal and pure-power paths.  Then
T = S/(x_1^c_1, ..., x_n^c_n) is a monomial complete intersection,
Gorenstein with socle degree s = sum (c_i - 1), so (0 :_T h)_k is dual to
(T/hT)_(s-k) (Matlis duality, Eisenbud, GTM 150, Section 21.2).  The exact sequence
0 -> (0 :_T h)(-d) -> T(-d) -> T -> T/hT -> 0 then gives, with
N = s + d and t_m the coefficient of z^m in prod (1 - z^c_i)/(1 - z)^n,

    l_m = t_m - t_(m-d) + l_(N-m),

so every degree below ceil(N/2) follows from one at or above it.  The sweep
ranks the degrees from ceil(N/2) up to the first zero and fills in the rest;
the top search gallops upward from ceil(N/2).  h = None is left out: the
quotient is then T itself, whose lengths are the t_m alone, and the Kunz
and ``monomial_alpha`` checks that use it must stay on ranks to check
anything.  A surviving mixed monomial or a non-monomial generator keeps the
every-degree sweep too, since the ring it cuts out need not be Gorenstein.

``monomial_alpha`` is the support invariant of a monomial ideal J of the
polynomial ring S in n variables: the top nonzero degree of S/J, which
``Quotient.top`` finds on the walk, plus n.  Polynomials are
multiplied mod p in one place, ``_poly_mul``; the literal powers of
``scaling_check`` and the shear of the pure-power path are built from it.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .trinomial import is_prime

Poly = Mapping[tuple[int, ...], int]

_RESIDUAL_CELL_LIMIT = 6_000_000
# the largest degree of h and of a bracketed generator g^[q]: the tables
# sized by them (the t_m of the Gorenstein mirror, the pure-power reductions,
# the diagonal blocks and classes) would outgrow memory past it, and no path
# finishes a degree of that size anyway
_BRACKET_DEGREE_LIMIT = 1 << 16
_NO_ZERO_TAIL = "no zero tail at the sweep bound; the ideal does not have finite colength"
_WRONG_COUNT = "num_vars = {}, but the polynomials are written in {} variables"


class OracleError(ValueError):
    """An input the oracle cannot take, so a ValueError: an ideal without
    finite colength, or a residual system beyond the size cap."""


# ---------------------------------------------------------------------------
# polynomial plumbing
# ---------------------------------------------------------------------------

def poly_degree(poly: Poly) -> int:
    degs = {sum(e) for e in poly}
    if len(degs) != 1:
        raise ValueError("polynomials must be homogeneous")
    return degs.pop()


def normalize_poly(poly: Poly, p: int) -> dict[tuple[int, ...], int]:
    out = {}
    for e, c in poly.items():
        c %= p
        if c:
            out[tuple(int(x) for x in e)] = c
    if not out:
        raise ValueError("polynomial vanishes mod p")
    return out


def frobenius_power(poly: Poly, q: int, p: int) -> dict[tuple[int, ...], int]:
    """q-th power of a polynomial in characteristic p, q a power of p.

    Freshman's dream: exponents multiply by q and coefficients are fixed by
    c -> c^q = c on the prime field.
    """
    return {tuple(x * q for x in e): c for e, c in normalize_poly(poly, p).items()}


def _poly_mul(f: Poly, g: Poly, p: int) -> dict[tuple[int, ...], int]:
    """f*g mod p, without zero terms."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        for e2, c2 in g.items():
            s = tuple(a + b for a, b in zip(e, e2))
            out[s] = (out.get(s, 0) + c * c2) % p
    return {e: c for e, c in out.items() if c}


def _literal_power(poly: Poly, k: int, p: int) -> dict[tuple[int, ...], int]:
    """poly^k mod p by k polynomial multiplications, without freshman's
    dream."""
    poly = normalize_poly(poly, p)
    power = {(0,) * len(next(iter(poly))): 1}
    for _ in range(k):
        power = _poly_mul(power, poly, p)
    return power


def variable_powers(num_vars: int, n: int) -> list[dict[tuple[int, ...], int]]:
    """Generators x_i^n of the n-th power-coordinate ideal, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = []
    for i in range(num_vars):
        e = [0] * num_vars
        e[i] = n
        gens.append({tuple(e): 1})
    return gens


def trinomial_poly(curve) -> dict[tuple[int, int, int], int]:
    """Unit-coefficient polynomial of a trinomial curve object."""
    return {e: 1 for e in curve.monomials()}


_VAR_NAMES = "xyzw"
MAX_VARS = len(_VAR_NAMES)  # the variables a polynomial can be written in


def parse_polynomial(text: str, num_vars: int) -> dict[tuple[int, ...], int]:
    """Parse expressions like ``x^2*y - 3*z^3`` into an exponent-dict."""
    if num_vars > MAX_VARS:
        raise ValueError("at most four variables are supported")
    cleaned = text.replace(" ", "").replace("**", "^")
    if not cleaned:
        raise ValueError("empty polynomial")
    # each term keeps its one sign; a sign with no term after it is left
    # with an empty body, which is malformed
    terms = re.split(r"(?=[+-])", cleaned)
    if not terms[0]:
        del terms[0]  # the empty piece before a leading sign
    out: dict[tuple[int, ...], int] = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term[1:] if term[0] in "+-" else term
        coeff = 1
        exps = [0] * num_vars
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"malformed term {term!r}")
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = re.fullmatch(r"([a-z])(?:\^(\d+))?", factor)
            if not m or m.group(1) not in _VAR_NAMES[:num_vars]:
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            exps[_VAR_NAMES.index(m.group(1))] += int(m.group(2) or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    out = {e: c for e, c in out.items() if c}
    if not out:
        raise ValueError(f"polynomial {text!r} is zero")
    return out


def monomials_of_degree(num_vars: int, m: int) -> Iterator[tuple[int, ...]]:
    if m < 0:
        return
    if num_vars == 1:
        yield (m,)
        return
    for e in range(m + 1):
        for rest in monomials_of_degree(num_vars - 1, m - e):
            yield (e,) + rest


# ---------------------------------------------------------------------------
# dense rank over F_p
# ---------------------------------------------------------------------------

def _check_prime_bound(p: int) -> None:
    """The int64 arithmetic of ``dense_rank_modp`` needs p < 2^31."""
    if p >= 1 << 31:
        raise ValueError(f"p = {p} is too large: the F_p arithmetic is exact in "
                         f"int64 only for p < 2^31")


def _rank_dtype(p: int) -> type:
    """The type ``dense_rank_modp`` eliminates in: int32 when one unreduced
    step fits below 2^30 (p^2 < 2^30, so p <= 32749), int64 otherwise."""
    return np.int32 if p * p < 1 << 30 else np.int64


def _peel_singletons(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Pivots found by peeling singletons off a, and the core left over.

    A column whose one nonzero lies in row r is a pivot: column operations
    with it clear row r, so the rank is 1 plus the rank without row r and
    that column.  The same holds for a row with one nonzero.  One pass takes
    every singleton column, then every singleton row among the rows left,
    and drops zero rows and columns.  These pivots share no row or column:
    a singleton column and a singleton row meet only at a common pivot, and
    of several singleton columns on one row only one counts (the others are
    zero once that row goes); likewise for rows on one column."""
    rank = 0
    while a.size:
        nonzero = a != 0
        col_count = nonzero.sum(axis=0)
        row_count = nonzero.sum(axis=1)
        pivot_rows = np.zeros(a.shape[0], dtype=bool)
        pivot_rows[nonzero[:, col_count == 1].argmax(axis=0)] = True
        single_rows = (row_count == 1) & ~pivot_rows
        pivot_cols = np.zeros(a.shape[1], dtype=bool)
        pivot_cols[nonzero[single_rows].argmax(axis=1)] = True
        rank += int(pivot_rows.sum()) + int(pivot_cols.sum())
        keep_rows = (row_count > 1) & ~pivot_rows
        keep_cols = (col_count > 1) & ~pivot_cols
        if keep_rows.all() and keep_cols.all():
            break
        a = a[np.ix_(keep_rows, keep_cols)]
    return rank, a


def dense_rank_modp(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime p < 2^31.

    The matrix is reduced mod p and cast to ``_rank_dtype(p)``: int32 for
    p <= 32749, int64 above.  Singletons are peeled first
    (``_peel_singletons``); the core is then eliminated with delayed
    reduction.  At each step only the pivot column (to find the pivot) and
    the pivot row (scaled to a leading 1) are reduced mod p; the update
    ``block -= outer(col, row)`` of the trailing block is not.  Reduced
    factors are below p, so a step moves an entry by less than (p - 1)^2, and
    the block is reduced only when one more step could carry an entry past
    2^30 in int32 or 2^62 in int64."""
    _check_prime_bound(p)
    dtype = _rank_dtype(p)
    a = np.asarray(matrix)
    # a matrix of another type may hold entries the narrow type cannot
    a = a % p if a.dtype == dtype else \
        (np.asarray(a, dtype=np.int64) % p).astype(dtype, copy=False)
    rank, a = _peel_singletons(a)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()  # pivot over the shorter side
    rows, cols = a.shape
    limit = 1 << (np.iinfo(dtype).bits - 2)  # 2^30 in int32, 2^62 in int64
    room = (limit - p) // (p - 1) ** 2  # unreduced steps the block can take
    pending = 0
    r = 0  # pivots found in the core, and the next pivot row
    for c in range(cols):
        col = a[r:, c] % p
        hits = col.nonzero()[0]
        if hits.size == 0:
            continue
        if hits[0]:
            a[[r, r + hits[0]], c:] = a[[r + hits[0], r], c:]
            col[[0, hits[0]]] = col[[hits[0], 0]]
        r += 1
        below = hits[1:]  # positions in col of the nonzeros under the pivot
        if below.size == 0:
            continue
        if pending == room:
            a[r:, c + 1:] %= p
            pending = 0
        row = a[r - 1, c + 1:] % p * pow(int(col[0]), -1, p) % p
        if 2 * below.size > rows - r:
            a[r:, c + 1:] -= col[1:, None] * row
        else:
            a[r - 1 + below, c + 1:] -= col[below, None] * row
        pending += 1
    return rank + r


# ---------------------------------------------------------------------------
# graded piece lengths
# ---------------------------------------------------------------------------

def _caps_and_mixed(exps: Sequence[tuple[int, ...]], num_vars: int):
    """Smallest pure-power exponent per variable (None where there is none)
    and the exponents of the mixed monomials that no pure power divides; the
    others add nothing to the ideal."""
    caps: list[Optional[int]] = [None] * num_vars
    mixed = []
    for e in exps:
        support = [i for i, x in enumerate(e) if x]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or e[i] < caps[i]:
                caps[i] = e[i]
        else:
            mixed.append(e)
    mixed = [e for e in mixed
             if not any(c is not None and x >= c for x, c in zip(e, caps))]
    return caps, mixed


def _walk_lengths(p: int, hyp: Optional[Poly], caps: Sequence[Optional[int]],
                  extras: Sequence[tuple[int, ...]],
                  non_monomial: Sequence[Poly]) -> Callable[[int], int]:
    """The walk over the ideal of ``_caps_and_mixed``'s caps and extras and
    the bracketed non-monomial generators."""
    num_vars = len(caps)
    non_monomial = [(g, poly_degree(g)) for g in non_monomial]

    def in_j(e: tuple[int, ...]) -> bool:
        """Membership in the ideal of the monomial generators."""
        for i, cap in enumerate(caps):
            if cap is not None and e[i] >= cap:
                return True
        for g in extras:
            if all(e[i] >= g[i] for i in range(num_vars)):
                return True
        return False

    if hyp is not None:
        dh = poly_degree(hyp)
        terms = sorted(hyp.items(), key=lambda t: t[0], reverse=True)
        (e_max, c_max), tail = terms[0], terms[1:]
        inv_cmax = pow(c_max, -1, p)

    def residual(mu: tuple[int, ...], poly: Poly) -> dict[tuple[int, ...], int]:
        """The column mu*poly inside the box, reduced by the structural
        pivots of h: what is left has no entry at a structural lead."""
        vec = {pos: c % p for e, c in poly.items()
               if not in_j(pos := tuple(mu[i] + e[i] for i in range(num_vars)))}
        if hyp is None:
            return vec
        heap = [tuple(-x for x in r) for r in vec]
        heapq.heapify(heap)
        settled: dict[tuple[int, ...], int] = {}
        while heap:
            r = tuple(-x for x in heapq.heappop(heap))
            c = vec.get(r, 0)
            if not c:
                continue  # stale heap entry
            delta = tuple(r[i] - e_max[i] for i in range(num_vars))
            if min(delta) >= 0 and not in_j(delta):
                # eliminate against the structural pivot with lead r; the
                # replacement entries are strictly lex-smaller than r
                del vec[r]
                f = (c * inv_cmax) % p
                for e, ce in tail:
                    pos = tuple(delta[i] + e[i] for i in range(num_vars))
                    if in_j(pos):
                        continue
                    val = (vec.get(pos, 0) - f * ce) % p
                    if val:
                        if pos not in vec:
                            heapq.heappush(heap, tuple(-x for x in pos))
                        vec[pos] = val
                    elif pos in vec:
                        del vec[pos]
            else:
                settled[r] = c
                del vec[r]
        return settled

    def length(m: int) -> int:
        nrows = sum(1 for e in monomials_of_degree(num_vars, m) if not in_j(e))
        if nrows == 0:
            return nrows
        n_structural = 0
        columns: list[dict[tuple[int, ...], int]] = []
        if hyp is not None:
            for mu in monomials_of_degree(num_vars, m - dh):
                if in_j(mu):
                    continue
                lead = tuple(mu[i] + e_max[i] for i in range(num_vars))
                if not in_j(lead):
                    n_structural += 1  # lead is unique to this column
                else:
                    columns.append(residual(mu, hyp))
        for g, dg in non_monomial:
            columns.extend(residual(mu, g) for mu in monomials_of_degree(num_vars, m - dg)
                           if not in_j(mu))
        columns = [vec for vec in columns if vec]
        if not columns:
            return nrows - n_structural
        rows = sorted(set().union(*columns))
        if len(rows) * len(columns) > _RESIDUAL_CELL_LIMIT:
            raise OracleError(
                f"the residual rank of degree {m} is a {len(rows)} x {len(columns)} "
                f"matrix, beyond the size cap of {_RESIDUAL_CELL_LIMIT} entries")
        index = {r: i for i, r in enumerate(rows)}
        a = np.zeros((len(rows), len(columns)), dtype=_rank_dtype(p))
        for j, vec in enumerate(columns):
            for r, c in vec.items():
                a[index[r], j] = c
        return nrows - n_structural - dense_rank_modp(a, p)

    return length


def _pure_power_lengths(p: int, hyp: Poly, caps: Sequence[int],
                        v: int) -> Callable[[int], int]:
    a, b = (i for i in range(3) if i != v)
    cv, ca, cb = caps[v], caps[a], caps[b]
    d = poly_degree(hyp)

    # x_v^k mod h for k = c_v .. c_v+d-1, as state[j, s] = coefficient of
    # x_v^j x_a^s x_b^(k-j-s).  Multiplying by x_v shifts j up and replaces
    # x_v^d by -(h - lead*x_v^d)/lead.  Terms with x_b-exponent >= c_b are
    # kept: nothing divides back out of the ideal, so the rows drop them.
    # Row j of the product sums its sources: row j - 1 with weight 1, and for
    # each tail term c x_v^j x_a^e the top row shifted by e, with weight c
    # (row 0 gets a zero source, so that every row has one).  A step gathers
    # every source at once, reduces each product mod p and sums per row; the
    # sums stay below (sources per row)*p, so int64 holds them for p < 2^31.
    inv = pow(hyp[tuple(d if i == v else 0 for i in range(3))], -1, p)
    sources = sorted([(0, 0, 0, 0)] + [(j, j - 1, 0, 1) for j in range(1, d)]
                     + [(e[v], d - 1, e[a], (-c * inv) % p) for e, c in hyp.items()
                        if e[v] < d and e[a] < ca])
    target, row, shift, weight = (np.array(x, dtype=np.int64) for x in zip(*sources))
    s = np.arange(ca) - shift[:, None]
    inside = s >= 0
    gather = np.where(inside, row[:, None] * ca + s, 0)  # flat positions in state
    weights = np.where(inside, weight[:, None], 0)
    starts = np.searchsorted(target, np.arange(d))
    state = np.zeros((d, ca), dtype=np.int64)
    state[0, 0] = 1
    reductions = []
    for k in range(1, cv + d):
        state = np.add.reduceat(weights * np.take(state, gather) % p, starts) % p
        if k >= cv:
            reductions.append(state)

    # the nonzeros of the reductions: x_v^(c_v+i) mod h has coefficient
    # nz_val at x_v^j x_a^e
    stacked = np.array(reductions)
    nz_i, nz_j, nz_e = np.nonzero(stacked)
    dtype = _rank_dtype(p)
    nz_val = stacked[nz_i, nz_j, nz_e].astype(dtype)
    steps = np.arange(d)

    def spans(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi): the x_a-exponents of the monomials x_a^s x_b^(k-s) of A_k."""
        lo = np.maximum(0, k - cb + 1)
        return lo, np.maximum(lo, np.minimum(ca, k + 1))

    def length(m: int) -> int:
        # rows: the basis of B_m = sum_j A_(m-j) x_v^j; columns: the
        # A-multiples x_a^t x_b^(m-c_v-i-t) of x_v^(c_v+i) mod h
        row_lo, row_hi = spans(m - steps)
        col_lo, col_hi = spans(m - cv - steps)
        nrows = int((row_hi - row_lo).sum())
        ncols = int((col_hi - col_lo).sum())
        if nrows == 0 or ncols == 0:
            return nrows
        # the first row and column of each block, less its lowest exponent
        row_base = np.cumsum(row_hi - row_lo) - row_hi
        col_base = np.cumsum(col_hi - col_lo) - col_hi
        # the shifts t for which nonzero (i, j, e) lands on a row: one run each
        lo = np.maximum(col_lo[nz_i], row_lo[nz_j] - nz_e)
        count = np.maximum(np.minimum(col_hi[nz_i], row_hi[nz_j] - nz_e) - lo, 0)
        t = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        matrix = np.zeros((nrows, ncols), dtype=dtype)
        matrix[t + np.repeat(row_base[nz_j] + nz_e, count),
               t + np.repeat(col_base[nz_i], count)] = np.repeat(nz_val, count)
        return nrows - dense_rank_modp(matrix, p)

    return length


def _diagonal_lengths(p: int, caps: Sequence[int], d: int) -> Callable[[int], int]:
    # a[i] = ceil((c_x - i)/d) >= 0, the least alpha with x^(d*alpha + i) in
    # the ideal, and likewise b[j] from c_y and k[r] from c_z
    a, b, k = ([-((i - c) // d) for i in range(d)] for c in caps)
    dtype = _rank_dtype(p)
    binomials = {ea: np.array([math.comb(ea, e) % p for e in range(ea + 1)], dtype=dtype)
                 for ea in set(a)}
    blocks: dict[tuple[int, int, int, int], int] = {}

    def block_length(ea: int, eb: int, ek: int, t: int) -> int:
        """Length of the degree-t piece of k[Y,Z]/(Y^eb, Z^ek, (Y+Z)^ea)."""
        # rows: Y^s Z^(t-s) with s < eb, t-s < ek; columns: the multiples
        # Y^u Z^(t-ea-u) (Y+Z)^ea, with entry binom(ea, s-u) in row s
        row_lo, row_hi = max(0, t - ek + 1), min(eb, t + 1)
        col_lo, col_hi = max(0, t - ea - ek + 1), min(eb, t - ea + 1)
        nrows = max(0, row_hi - row_lo)
        if nrows == 0 or col_hi <= col_lo:
            return nrows
        diff = np.arange(row_lo, row_hi)[:, None] - np.arange(col_lo, col_hi)
        inside = (diff >= 0) & (diff <= ea)
        matrix = np.zeros(diff.shape, dtype=dtype)
        matrix[inside] = binomials[ea][diff[inside]]
        return nrows - dense_rank_modp(matrix, p)

    def length(m: int) -> int:
        total = 0
        for i in range(d):
            for j in range(d):
                r = (m - i - j) % d
                t = (m - i - j - r) // d
                if t >= 0:
                    key = (a[i], b[j], k[r], t)
                    if key not in blocks:
                        blocks[key] = block_length(*key)
                    total += blocks[key]
        return total

    return length


def _point_off_curve(hyp: Poly, p: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """(i, P) for the first point P of P^2(F_p) with h(P) != 0 mod p, written
    with first nonzero coordinate P_i = 1; None when h vanishes on all of
    P^2(F_p), which needs p <= deg h."""
    for i in range(3):
        for rest in product(range(p), repeat=2 - i):
            point = (0,) * i + (1,) + rest
            value = sum(c * math.prod(pow(x, k, p) for x, k in zip(point, e))
                        for e, c in hyp.items())
            if value % p:
                return i, point
    return None


def _shear(hyp: Poly, p: int, i: int, point: Sequence[int]) -> dict[tuple[int, ...], int]:
    """h after x_j -> x_j + P_j x_i for every j != i, the sum of the
    c x_i^e_i prod_j (x_j + P_j x_i)^e_j; its x_i^d coefficient is h(P)."""
    unit = [tuple(int(k == j) for k in range(3)) for j in range(3)]
    images = [{unit[j]: 1} if j == i else {unit[j]: 1, unit[i]: point[j]} for j in range(3)]
    out: dict[tuple[int, ...], int] = {}
    for e, c in hyp.items():
        term = {(0, 0, 0): c}
        for image, k in zip(images, e):
            term = _poly_mul(term, _literal_power(image, k, p), p)
        for f, cf in term.items():
            out[f] = (out.get(f, 0) + cf) % p
    return {f: c for f, c in out.items() if c}


Mirror = tuple[int, Callable[[int], int]]


def _gorenstein_mirror(caps: Sequence[int], d: int) -> Mirror:
    """(N, e) with l_m = e(m) + l_(N-m) for every degree m of
    S/(h, x_1^c_1, ..., x_n^c_n), deg h = d, where e(m) = t_m - t_(m-d)
    (module docstring)."""
    # t[m]: the monomials of degree m with every exponent below its cap, the
    # coefficients of the product of the 1 + z + ... + z^(c_i - 1).  A factor
    # turns t into its window sums, for m < n + c - 1 (n = len(t)),
    # t'[m] = P[min(m + 1, n)] - P[max(0, m - c + 1)] over the prefix sums P
    # of t: two shifted copies of P
    t = [1]
    for c in caps:
        prefix = [0, *accumulate(t)]
        t = list(map(operator.sub, prefix[1:] + [prefix[-1]] * (c - 1),
                     [0] * (c - 1) + prefix[:-1]))
    s = len(t) - 1

    def excess(m: int) -> int:
        return (t[m] if 0 <= m <= s else 0) - (t[m - d] if 0 <= m - d <= s else 0)

    return s + d, excess


def _num_vars(hyp: Optional[Poly], gens: Sequence[Poly]) -> int:
    """The number of variables h and the generators are written in: the one
    length of every exponent tuple of them all."""
    if hyp is None and not gens:
        raise OracleError("the zero ideal does not have finite colength")
    counts = sorted({len(e) for poly in ([hyp] if hyp is not None else []) + list(gens)
                     for e in poly})
    if len(counts) != 1:
        raise ValueError("the polynomials mix numbers of variables: "
                         + ", ".join(map(str, counts)))
    return counts[0]


def _is_power_of(q: int, p: int) -> bool:
    while q > 1 and q % p == 0:
        q //= p
    return q == 1


class Quotient(NamedTuple):
    """S/(h, g_1^q, ..., g_t^q) as ``quotient_lengths`` sets it up: the rank
    path, ``length(m)``, the mirror (N, e) or None, the variable count n, the
    pair's dimension (n - 1 with h, n without) and the sweep bound
    q*sum(deg g_i) + (deg h, or n without h) + 1, a degree above the top of
    the quotient whenever its ideal has finite colength."""

    path: str
    length: Callable[[int], int]
    mirror: Optional[Mirror]
    num_vars: int
    dim: int
    bound: int

    def finite(self) -> Quotient:
        """This quotient, whose ideal has finite colength: by the caps of the
        mirror, or else by a zero length at the sweep bound (OracleError if not)."""
        if self.mirror is None and self.length(self.bound) != 0:
            raise OracleError(_NO_ZERO_TAIL)
        return self

    def sweep(self) -> dict[int, int]:
        """The lengths at the degrees 0, 1, ..., top, all nonzero.  A zero
        piece forces every higher piece to zero in a standard graded
        quotient, so the sweep stops at the first zero, and OracleError is
        raised when the sweep bound passes without one.  With the Gorenstein
        mirror (module docstring) it starts at ceil(N/2) and fills in the
        degrees below from the ones it ranked."""
        start = 0 if self.mirror is None else (self.mirror[0] + 1) // 2
        upper: dict[int, int] = {}
        for m in range(start, self.bound + 1):
            value = self.length(m)
            if value == 0:
                break
            upper[m] = value
        else:
            raise OracleError(_NO_ZERO_TAIL)
        lengths: dict[int, int] = {}
        if self.mirror is not None:
            n_top, excess = self.mirror
            for m in range(start):
                value = excess(m) + upper.get(n_top - m, 0)
                if value == 0:
                    return lengths
                lengths[m] = value
        lengths.update(upper)
        return lengths

    def top(self) -> int:
        """The largest degree with a nonzero piece, by bisection: zero pieces
        are upward-closed in a standard graded quotient.  With the Gorenstein
        mirror (module docstring) the search starts at ceil(N/2): if that
        degree is zero, the top is the last lower degree with a positive
        t_k - t_(k-d); otherwise it gallops upward (steps 1, 2, 4, ... up to
        the sweep bound) and bisects."""
        lo, hi = 0, self.finite().bound  # degree 0 holds the constants, never 0
        if self.mirror is not None:
            n_top, excess = self.mirror
            lo = (n_top + 1) // 2
            if self.length(lo) == 0:
                # below ceil(N/2), l_k = t_k - t_(k-d) + l_(N-k) and l_(N-k) = 0
                return max(k for k in range(lo) if excess(k) > 0)
            step = 1
            while (probe := min(lo + step, hi)) < hi and self.length(probe) != 0:
                lo, step = probe, 2 * step
            hi = probe
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.length(mid) == 0:
                hi = mid
            else:
                lo = mid
        return lo


def quotient_lengths(p: int, hypersurface: Optional[Poly], generators: Sequence[Poly],
                     q: int) -> Quotient:
    """Set up S/(h, g_1^q, ..., g_t^q) once and return its ``Quotient``:
    the rank path ("diagonal", "pure-power" or "walk"), ``length(m)``, the
    length of the degree-m piece, the Gorenstein mirror (N, e) of
    ``_gorenstein_mirror`` or None, the number of variables, the pair's
    dimension and the sweep bound.  One ``_caps_and_mixed`` of the bracketed
    generators decides path and mirror (module docstring): h over exactly the
    pure powers x_1^c_1, ..., x_n^c_n gets the mirror, and in three variables
    the diagonal or the pure-power path where one applies; the rest walks.

    Raises ValueError when the polynomials mix numbers of variables, p is
    not prime or not below 2^31, q is not a power of p, a polynomial is
    constant or not homogeneous, a coefficient is 0 mod p, or h or a
    bracketed generator passes degree 2^16: the brackets rest on freshman's
    dream, the rank kernel on int64 arithmetic (``dense_rank_modp``), the
    grading on homogeneous forms of positive degree, the path choice on the
    terms of h mod p, and the tables on degrees that fit in memory; and
    OracleError when there is neither h nor a generator.  The checks run
    once, before any path looks at a degree."""
    num_vars = _num_vars(hypersurface, generators)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    _check_prime_bound(p)
    if not _is_power_of(q, p):
        raise ValueError(f"q = {q} is not a power of p = {p}")
    for poly in ([hypersurface] if hypersurface is not None else []) + list(generators):
        if poly_degree(poly) < 1:
            raise ValueError("polynomials must have positive degree")
        if any(c % p == 0 for c in poly.values()):
            raise ValueError(f"a coefficient of {dict(poly)} is 0 mod {p}")
    gen_degrees = [poly_degree(g) for g in generators]
    top = q * max(gen_degrees, default=0)
    if top > _BRACKET_DEGREE_LIMIT:
        raise ValueError(f"q = {q} is too large: the bracketed generators reach degree "
                         f"{top}, past the oracle's limit of {_BRACKET_DEGREE_LIMIT}")
    d = poly_degree(hypersurface) if hypersurface is not None else 0
    if d > _BRACKET_DEGREE_LIMIT:
        raise ValueError(f"the hypersurface has degree {d}, past the oracle's limit "
                         f"of {_BRACKET_DEGREE_LIMIT}")
    hyp = normalize_poly(hypersurface, p) if hypersurface is not None else None
    gens_q = [frobenius_power(g, q, p) for g in generators]
    caps, mixed = _caps_and_mixed([next(iter(g)) for g in gens_q if len(g) == 1],
                                  num_vars)
    non_monomial = [g for g in gens_q if len(g) > 1]
    # h over exactly the pure powers x_1^c_1, ..., x_n^c_n
    pure_caps = hyp is not None and not mixed and not non_monomial and None not in caps
    mirror = _gorenstein_mirror(caps, d) if pure_caps else None
    dim = num_vars - (hyp is not None)
    facts = (mirror, num_vars, dim,
             q * sum(gen_degrees) + (d if hyp is not None else num_vars) + 1)
    if pure_caps and num_vars == 3:
        pure = [v for v in range(3) if tuple(d if i == v else 0 for i in range(3)) in hyp]
        if len(pure) == 3 == len(hyp):  # h = c_1 x^d + c_2 y^d + c_3 z^d
            return Quotient("diagonal", _diagonal_lengths(p, caps, d), *facts)
        # h containing a pure power x_v^d; v is the variable with the
        # largest cap when there are several
        if pure:
            v = max(pure, key=lambda v: caps[v])
            return Quotient("pure-power", _pure_power_lengths(p, hyp, caps, v), *facts)
        # caps (x^Q, y^Q, z^Q) with Q a power of p: a shear over F_p
        # changes no length and gives h a pure power (module docstring)
        if len(set(caps)) == 1 and _is_power_of(caps[0], p) \
                and (found := _point_off_curve(hyp, p)) is not None:
            i, point = found
            sheared = _shear(hyp, p, i, point)
            return Quotient("pure-power", _pure_power_lengths(p, sheared, caps, i), *facts)
    return Quotient("walk", _walk_lengths(p, hyp, caps, mixed, non_monomial), *facts)


def graded_piece_length_raw(p: int, hypersurface: Optional[Poly],
                            generators: Sequence[Poly], q: int, m: int,
                            num_vars: Optional[int] = None) -> int:
    """Length of the degree-m piece of S/(h, g_1^q, ..., g_t^q); sweeps and
    bisections should call ``quotient_lengths`` once instead.  A num_vars
    given must be the number of variables the polynomials are written in."""
    quotient = quotient_lengths(p, hypersurface, generators, q)
    if num_vars not in (None, quotient.num_vars):
        raise ValueError(_WRONG_COUNT.format(num_vars, quotient.num_vars))
    return quotient.length(m)


# ---------------------------------------------------------------------------
# profiles and estimates
# ---------------------------------------------------------------------------

def colength_profile(p: int, hypersurface: Optional[Poly],
                     generators: Sequence[Poly], q: int) -> dict[int, int]:
    """The lengths at the degrees 0, 1, ..., top, all nonzero, swept by
    ``Quotient.sweep``; the top is ``len(lengths) - 1``."""
    return quotient_lengths(p, hypersurface, generators, q).sweep()


def top_nonzero_degree(p: int, hypersurface: Optional[Poly],
                       generators: Sequence[Poly], q: int) -> int:
    """Largest degree with a nonzero piece, bisected by ``Quotient.top``."""
    return quotient_lengths(p, hypersurface, generators, q).top()


def fn_sample(p: int, hypersurface: Optional[Poly], generators: Sequence[Poly],
              q: int, x: Fraction) -> Fraction:
    """Normalized graded length at degree floor(x*q) for a two-dimensional
    pair: the finite-q sample of the density function.  Raises OracleError
    when the ideal does not have finite colength; past that check every
    degree outside [0, sweep bound) has length 0 and is not ranked."""
    quotient = quotient_lengths(p, hypersurface, generators, q)
    if quotient.dim != 2:
        raise ValueError("density samples are defined for two-dimensional pairs")
    m = math.floor(Fraction(x) * q)
    return Fraction(quotient.length(m) if 0 <= m < quotient.finite().bound else 0, q)


def ehk_estimate(p: int, hypersurface: Optional[Poly], generators: Sequence[Poly],
                 q: int) -> Fraction:
    """sum_m length / q^dim: the finite-q multiplicity estimate."""
    quotient = quotient_lengths(p, hypersurface, generators, q)
    return Fraction(sum(quotient.sweep().values()), q ** quotient.dim)


def fthreshold_estimate(p: int, hypersurface: Optional[Poly], n: int, q: int) -> Fraction:
    """top_nonzero/q for the pair (curve, (x^n, y^n, z^n)): the finite-q
    F-threshold estimate."""
    if hypersurface is None:
        raise ValueError("fthreshold needs a hypersurface")
    gens = variable_powers(_num_vars(hypersurface, []), n)
    return Fraction(top_nonzero_degree(p, hypersurface, gens, q), q)


def monomial_alpha(num_vars: int, generators: Sequence[Poly]) -> int:
    """The top nonzero degree of S/J plus num_vars, for a finite-colength
    monomial ideal J written in num_vars >= 2 variables.  Monomial lengths
    do not depend on p, so they are taken at p = 2; the top search raises
    OracleError when J does not have finite colength."""
    if num_vars < 2:
        raise ValueError("the support formula needs dimension >= 2")
    if any(len(g) != 1 for g in generators):
        raise ValueError("generators must be monomials")
    quotient = quotient_lengths(2, None, [dict.fromkeys(g, 1) for g in generators], 1)
    if num_vars != quotient.num_vars:
        raise ValueError(_WRONG_COUNT.format(num_vars, quotient.num_vars))
    return quotient.top() + num_vars


def scaling_check(p: int, hypersurface: Optional[Poly], generators: Sequence[Poly],
                  q0: int, q: int) -> bool:
    """Exact check of the Frobenius brackets: on a grid of ten degrees below
    the sweep bound, the colengths of the ideal of the literal powers
    (g^q0)^q, multiplied out mod p, agree with those of I^[q0*q], which
    ``frobenius_power`` brackets by freshman's dream."""
    powers = [_literal_power(_literal_power(g, q0, p), q, p) for g in generators]
    lhs = quotient_lengths(p, hypersurface, powers, 1).length
    rhs = quotient_lengths(p, hypersurface, generators, q0 * q)
    return all(lhs(m) == rhs.length(m) for m in ((rhs.bound * i) // 10 for i in range(10)))
