"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them).  Tolerances are pinned here, not
configurable.  Two criteria encode expectations that independent computation
contradicts; they are asserted as stated and fail honestly, with the measured
values in the failure message (see notes in the repository root README and
the test bodies).  Criteria 5 and 9 assert threshold values corrected against
the oracle's exact tops, and check them against the oracle.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import prod

import pytest

from conftest import random_parameter_tuple, random_syzygy_spec
from hkfun import verify
from hkfun.bundle import HNData, Polarization, bundle_alpha, syzygy_pair_density
from hkfun.density import SymmetryClass, frobenius_bracket_scale, segre, symmetry_class
from hkfun.oracle import ehk_estimate, fthreshold_estimate, monomial_alpha, \
    scaling_check, variable_powers
from hkfun.piecewise import Polynomial, tent_function
from hkfun.trinomial import Irregular, classify, cyclic, f_threshold, fermat, \
    residue_table
from hkfun.verify import QUADRIC_CONE, SEGRE_QUADRIC, irregular_quintic_witness, \
    quadric_cone_pair
from hkfun.volume import parameter_density


def _finish(num: int, name: str, failures: list[str], started: float, limit: float):
    elapsed = time.monotonic() - started
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {limit:.0f}s limit")
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} [{elapsed:.1f}s / limit {limit:.0f}s]",
          flush=True)
    for item in failures:
        print(f"  - {item}", flush=True)
    if failures:
        pytest.fail(f"criterion {num} ({name}): " + " | ".join(failures))


def test_criterion_1_parameter_exactness():
    started = time.monotonic()
    failures = []
    if parameter_density(1, (1, 1)).f != tent_function():
        failures.append("unit parameter density is not the tent function")
    rng = random.Random(101)
    for _ in range(25):
        degrees = random_parameter_tuple(rng, max_dim=5, max_deg=4)
        e = rng.randint(1, 3)
        pair = parameter_density(e, degrees)
        total = sum(degrees)
        if pair.f != pair.f.reflect(total):
            failures.append(f"density of {degrees} not symmetric about {total}")
        if pair.f.integrate(0, total) != e * prod(degrees):
            failures.append(f"mass of e={e}, {degrees} is not e*prod(n_i)")
    _finish(1, "parameter-ideal exactness", failures, started, 1.0)


def test_criterion_2_volume_oracle_convergence():
    started = time.monotonic()
    failures = []
    result = verify.run_case("volume-convergence")
    if not result.passed:
        # The stated 2/q tolerance is not attainable for this family: the
        # deterministic gap between the lattice count and the volume scales
        # like (m/2)*|V'|/q, which reaches ~12/q on the largest boxes.  The
        # convergence itself is real and is covered, with an honest constant,
        # by test_volume.test_oracle_convergence_with_empirical_constant.
        failures.append(f"tolerance 2/q violated: {result.measured} at {result.detail}")
    _finish(2, "volume-oracle convergence", failures, started, 5.0)


def test_criterion_3_segre_quadric():
    started = time.monotonic()
    failures = []
    pair = segre(parameter_density(1, (1, 1)), parameter_density(1, (1, 1)))
    if pair.f.integrate(0, 2) != Fraction(4, 3):
        failures.append(f"segre integral is {pair.f.integrate(0, 2)}, not 4/3")
    estimate = ehk_estimate(2, SEGRE_QUADRIC, variable_powers(4, 1), 8)
    if abs(estimate - Fraction(4, 3)) > Fraction(15, 100):
        failures.append(f"ehk estimate {estimate} not within 0.15 of 4/3")
    _finish(3, "segre quadric", failures, started, 120.0)


def test_criterion_4_quadric_cone():
    started = time.monotonic()
    failures = []
    pair = quadric_cone_pair()
    if pair.f.segment_at(Fraction(1, 2)) != Polynomial([0, 2]) or \
            pair.f.segment_at(Fraction(5, 4)) != Polynomial([6, -4]):
        failures.append("density is not 2x on [0,1], 6-4x on [1,3/2]")
    if pair.alpha != Fraction(3, 2):
        failures.append(f"alpha is {pair.alpha}, not 3/2")
    for q in (3, 9, 27):
        est = fthreshold_estimate(3, QUADRIC_CONE, 1, q)
        if abs(est - Fraction(3, 2)) > Fraction(3, q):
            failures.append(f"threshold estimate {est} at q={q} not within 3/q of 3/2")
    ehk = ehk_estimate(3, QUADRIC_CONE, variable_powers(3, 1), 27)
    if abs(ehk - Fraction(3, 2)) > Fraction(5, 100):
        failures.append(f"ehk estimate {ehk} at q=27 not within 0.05 of 3/2")
    _finish(4, "quadric cone", failures, started, 60.0)


def test_criterion_5_fermat_thresholds():
    started = time.monotonic()
    failures = []
    # c = 3n/2 + lambda(1 - T)/(2 p^D d), T the least corner distance.  At
    # q = p^2 the oracle's exact top is q*c + 1 for the quartic at p = 29
    # (1277 = 841 * 44/29 + 1) and q*c + 4 for the septic at p = 23
    # (809 = 529 * 35/23 + 4): above q*c by at most d - 3.
    expected = [
        (fermat(4), 17, Fraction(3, 2)),
        (fermat(4), 29, Fraction(44, 29)),
        (fermat(7), 23, Fraction(35, 23)),
    ]
    for curve, p, target in expected:
        value = f_threshold(curve, 1, p)
        if value != target:
            failures.append(f"threshold of degree-{curve.degree} curve at p={p} "
                            f"is {value}, not {target}")
    for curve, p in ((fermat(4), 29), (fermat(7), 23)):
        q = p * p
        top = q * fthreshold_estimate(p, {e: 1 for e in curve.monomials()}, 1, q)
        excess = top - q * f_threshold(curve, 1, p)
        if not 0 <= excess <= curve.degree - 3:
            failures.append(f"oracle top {top} at q={q} is q*c + {excess} for the "
                            f"degree-{curve.degree} curve, want 0..{curve.degree - 3}")
    for p in (17, 29):
        est = fthreshold_estimate(p, {e: 1 for e in fermat(4).monomials()}, 1, p)
        target = f_threshold(fermat(4), 1, p)
        if abs(est - target) > Fraction(3, p):
            failures.append(f"oracle estimate {est} at q={p} not within 3/p of {target}")
    _finish(5, "fermat F-thresholds", failures, started, 180.0)


def test_criterion_6_irregular_formula():
    started = time.monotonic()
    failures = []
    witness = irregular_quintic_witness()
    kind = classify(witness)
    if kind != Irregular(multiplicity=3):
        failures.append(f"witness {witness} classified as {kind}, not multiplicity 3")
    value = f_threshold(witness, 1, 13)
    stated = Fraction(151, 100)
    p, q = 13, 169
    est = fthreshold_estimate(p, {e: 1 for e in witness.monomials()}, 1, q)
    if value != stated:
        # Asserted as stated; fails by construction.  The quadratic correction
        # ((2r-d)n/2d)^2 = 1/100 is not what characteristic-p computations
        # give: brute force converges to 8/5 (e.g. tops 79/49, 272/169 at
        # q=49, 169 across every degree-5 multiplicity-3 trinomial sampled),
        # matching the linear correction (2r-d)n/(2d) that f_threshold
        # implements.  The quadratic form also cannot hold for large n: it
        # would outgrow the degree-sum bound on the threshold.  Details in
        # the project notes.
        failures.append(f"threshold is {value}, criterion expects {stated} "
                        f"(oracle at q={q}: {est} = {float(est):.4f})")
    if abs(est - value) > Fraction(3, q):
        failures.append(f"oracle estimate {est} at q={q} not within 3/q of {value}")
    _finish(6, "irregular formula", failures, started, 300.0)


def test_criterion_7_invariant_suite():
    started = time.monotonic()
    failures = []
    rng = random.Random(707)

    # alpha <= c, with equality, on every pair with a closed-form threshold
    for _ in range(10):
        degrees = random_parameter_tuple(rng, max_dim=4, max_deg=3)
        e = rng.randint(1, 3)
        pair = parameter_density(e, degrees)
        if pair.alpha != sum(degrees):
            failures.append(f"alpha != degree sum on parameter pair {degrees}")
    left = parameter_density(1, (1, 2))
    right = parameter_density(2, (2, 2, 1))
    both = segre(left, right)
    if both.alpha != max(left.alpha, right.alpha):
        failures.append("segre support is not the max of the factors")
    cone = quadric_cone_pair()
    c = bundle_alpha(HNData((Fraction(-1),), (2,)), Polarization(2))
    if not cone.alpha <= c or cone.alpha != c:
        failures.append("quadric cone support differs from the slope formula")

    # dimension-2 dichotomy on 50 random syzygy data
    for _ in range(50):
        shape = symmetry_class(syzygy_pair_density(random_syzygy_spec(rng)))
        if shape not in (SymmetryClass.SYMMETRIC_AT_HALF_D,
                         SymmetryClass.STRICTLY_LEFT_HEAVY):
            failures.append(f"dichotomy violated: {shape}")
            break

    # exact Frobenius-bracket agreement between the closed form and the oracle
    if not scaling_check(3, QUADRIC_CONE, variable_powers(3, 1), 3, 3):
        failures.append("bracket scaling check failed on the quadric cone")
    scaled = frobenius_bracket_scale(quadric_cone_pair(), 3)
    if scaled.alpha != 3 * Fraction(3, 2):
        failures.append("scaled support is not q0 * alpha")
    if scaled.f.integrate(0, 5) != 3 ** 2 * Fraction(3, 2):
        failures.append("scaled integral is not q0^d * e_HK")

    # residue table periodicity for the degree-4 and degree-5 diagonal curves
    for d in (4, 5):
        curve = fermat(d)
        lam_h = classify(curve).invariants.lambda_h
        t1 = [(r.representative, r.T, r.D) for r in residue_table(curve, 1)]
        t2 = [(r.representative, r.T, r.D) for r in residue_table(curve, 1 + 2 * lam_h)]
        if t1 != t2:
            failures.append(f"residue table not periodic for the degree-{d} curve")
    _finish(7, "invariant suite", failures, started, 120.0)


def test_criterion_8_polynomial_ring_alpha():
    started = time.monotonic()
    failures = []
    rng = random.Random(808)

    def _monomials(nv, deg):
        if nv == 1:
            return [(deg,)]
        out = []
        for e in range(deg + 1):
            out.extend((e,) + r for r in _monomials(nv - 1, deg - e))
        return out

    def brute_alpha(num_vars, gens, caps):
        # all monomials of degree past sum(cap_i - 1) divide into the ideal
        exps = [next(iter(g)) for g in gens]
        best = 0
        for s in range(sum(c - 1 for c in caps) + 1):
            if any(not any(all(x >= y for x, y in zip(m, g)) for g in exps)
                   for m in _monomials(num_vars, s)):
                best = s
        return best + num_vars

    for _ in range(30):
        nv = rng.randint(2, 3)
        caps = [rng.randint(1, 4) for _ in range(nv)]
        gens = []
        for i, cap in enumerate(caps):
            e = [0] * nv
            e[i] = cap
            gens.append({tuple(e): 1})
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(0, cap - 1) for cap in caps)
            if any(e):
                gens.append({e: 1})
        computed = monomial_alpha(nv, gens)
        independent = brute_alpha(nv, gens, caps)
        if computed != independent:
            failures.append(f"monomial alpha mismatch on {gens}: "
                            f"{computed} vs {independent}")
    _finish(8, "polynomial-ring alpha", failures, started, 10.0)


def test_criterion_9_calibration_gate():
    """Every closed-form residue value for the diagonal and cyclic families in
    degrees 4-7 must be reproduced exactly by the residue search."""
    started = time.monotonic()
    failures = []

    def check(curve, rep, want_T, want_D, want_weight, sample_prime=None,
              sample_value=None):
        rows = {r.representative: r for r in residue_table(curve, 1)}
        row = rows.get(rep)
        tag = f"degree-{curve.degree} {type(curve).__name__} class {rep}"
        if row is None:
            failures.append(f"{tag}: missing row")
            return
        if (row.T, row.D, row.weight) != (want_T, want_D, want_weight):
            failures.append(f"{tag}: (T, D, weight) = ({row.T}, {row.D}, "
                            f"{row.weight}), want ({want_T}, {want_D}, {want_weight})")
        if sample_prime is not None and row.threshold_at(sample_prime) != sample_value:
            failures.append(f"{tag}: threshold at p={sample_prime} is "
                            f"{row.threshold_at(sample_prime)}, want {sample_value}")

    one = Fraction(1)
    # diagonal curves x^d + y^d + z^d; the D = 1 rows are checked against the
    # oracle below
    check(fermat(4), 1, one, None, 0, 17, Fraction(3, 2))
    check(fermat(4), 3, Fraction(3, 4), 1, 4, 29, Fraction(44, 29))
    check(fermat(5), 1, one, None, 0)
    check(fermat(6), 1, one, None, 0)
    check(fermat(6), 5, Fraction(1, 2), 1, 18, 41, Fraction(63, 41))
    check(fermat(7), 1, one, None, 0)
    check(fermat(7), 5, Fraction(6, 7), 1, 7, 23, Fraction(35, 23))
    # the oracle at q = p lies above these values by at most (d - 3)/q:
    # 45/29, 66/41 and 39/23
    for curve, p in ((fermat(4), 29), (fermat(6), 41), (fermat(7), 23)):
        est = fthreshold_estimate(p, {e: 1 for e in curve.monomials()}, 1, p)
        excess = p * (est - f_threshold(curve, 1, p))
        if not 0 <= excess <= curve.degree - 3:
            failures.append(f"degree-{curve.degree} Fermat curve: oracle estimate "
                            f"{est} at q={p} is c + {excess}/q, want 0..{curve.degree - 3}")
    # cyclic curves x^(d-1)y + y^(d-1)z + z^(d-1)x
    check(cyclic(4), 1, one, None, 0)
    check(cyclic(5), 1, one, None, 0)
    check(cyclic(5), 11, Fraction(6, 13), 3, 7, 31,
          Fraction(3, 2) + Fraction(7, 2 * 5 * 31 ** 3))
    check(cyclic(6), 1, one, None, 0)
    check(cyclic(6), 19, Fraction(5, 7), 2, 6, 23,
          Fraction(3, 2) + Fraction(1, 2 * 23 ** 2))
    check(cyclic(7), 1, one, None, 0)
    check(cyclic(7), 29, Fraction(30, 31), 1, 1, 29,
          Fraction(3, 2) + Fraction(1, 14 * 29))
    # table sizes: one row per residue class
    for curve, classes in ((fermat(4), 2), (fermat(5), 2), (fermat(6), 2),
                           (fermat(7), 3), (cyclic(4), 3), (cyclic(5), 6),
                           (cyclic(6), 6), (cyclic(7), 15)):
        rows = residue_table(curve, 1)
        if len(rows) != classes:
            failures.append(f"degree-{curve.degree} table has {len(rows)} rows, "
                            f"want {classes}")
    _finish(9, "calibration gate", failures, started, 60.0)
