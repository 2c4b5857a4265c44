"""Named cross-checks pairing each closed form with the brute-force oracle.

The CLI ``verify`` subcommand runs the registry.  Of the acceptance suite,
criterion 2 runs its ``volume-convergence`` case; the other criteria make
their own checks and share this module's fixtures.  Every case returns the
measured value, the target, the tolerance and the gap, all exact where the
computation permits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import oracle
from .bundle import HNData, Polarization, SyzygySpec, syzygy_pair_density
from .density import segre
from .piecewise import fraction_str, tent_function
from .trinomial import TrinomialCurve, TypeI, cyclic, f_threshold, fermat
from .volume import BoxSliceSpec, lattice_slice_count, parameter_density, slice_volume

QUADRIC_CONE = {(1, 1, 0): 1, (0, 0, 2): -1}
SEGRE_QUADRIC = {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}


# cases that fail on correct code, kept with their pinned tolerance
FAILS_BY_DESIGN = {"volume-convergence": "fails by design, like acceptance criterion 2; "
                                         'see README "Acceptance status"'}


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    measured: str
    target: str
    tolerance: str
    gap: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"case": self.name, "passed": self.passed, "measured": self.measured,
                "target": self.target, "tolerance": self.tolerance,
                "gap": self.gap, "detail": self.detail}


def quadric_cone_pair():
    """The dimension-2 pair with density 2x on [0,1], 6-4x on [1,3/2]."""
    spec = SyzygySpec(mu=3, gen_degree=1, pol=Polarization(degree=2),
                      hn_v=HNData((Fraction(-1),), (2,)))
    return syzygy_pair_density(spec)


def tent_pair():
    return parameter_density(1, (1, 1))


def irregular_quintic_witness() -> TypeI:
    """The first degree-5 shape (in lexicographic exponent order) whose
    largest coordinate-point multiplicity is exactly 3."""
    return TypeI(0, 5, 0, 5, 3, 2)


def _result(name: str, measured: Fraction, target: Fraction, tol: Fraction,
            detail: str = "") -> VerifyResult:
    gap = abs(measured - target)
    return VerifyResult(name=name, passed=gap <= tol,
                        measured=fraction_str(measured), target=fraction_str(target),
                        tolerance=fraction_str(tol), gap=fraction_str(gap),
                        detail=detail)


def _verdict(name: str, ok: bool, yes: str, no: str, detail: str) -> VerifyResult:
    """A yes/no check: ``yes`` or ``no`` against the target ``yes``, tolerance 0, gap 0 or 1."""
    return VerifyResult(name=name, passed=ok, measured=yes if ok else no, target=yes,
                        tolerance="0", gap="0" if ok else "1", detail=detail)


def _case_tent_exact() -> VerifyResult:
    return _verdict("tent-exact", tent_pair().f == tent_function(), "tent", "other",
                    "unit parameter density equals the tent function exactly")


def _threshold_case(name: str, curve: TrinomialCurve, p: int, q: int, tol: Fraction,
                    detail: str = "threshold estimate at q={q} against the residue formula"
                    ) -> Callable[[], VerifyResult]:
    """The oracle's F-threshold estimate of (curve, m) at q against the
    residue formula at p; ``detail`` is formatted with the curve and q."""
    def run() -> VerifyResult:
        target = f_threshold(curve, 1, p)
        measured = oracle.fthreshold_estimate(p, oracle.trinomial_poly(curve), 1, q)
        return _result(name, measured, target, tol, detail=detail.format(curve=curve, q=q))
    return run


def _case_quadric_thresholds() -> VerifyResult:
    target = quadric_cone_pair().alpha
    worst_gap = Fraction(0)
    details = []
    passed = True
    for q in (3, 9, 27):  # the last estimate, at q = 27, is the one reported
        measured = oracle.fthreshold_estimate(3, QUADRIC_CONE, 1, q)
        gap = abs(measured - target)
        worst_gap = max(worst_gap, gap)
        ok = gap <= Fraction(3, q)
        passed = passed and ok
        details.append(f"q={q}: {fraction_str(measured)} (gap {fraction_str(gap)}, "
                       f"tol {fraction_str(Fraction(3, q))})")
    return VerifyResult(name="quadric-cone-f3", passed=passed,
                        measured=fraction_str(measured), target=fraction_str(target),
                        tolerance="3/q", gap=fraction_str(worst_gap),
                        detail="; ".join(details))


def _case_quadric_ehk() -> VerifyResult:
    target = quadric_cone_pair().f.integrate(0, 2)
    measured = oracle.ehk_estimate(3, QUADRIC_CONE, oracle.variable_powers(3, 1), 27)
    return _result("quadric-cone-ehk", measured, target, Fraction(1, 20),
                   detail="multiplicity estimate at q=27 against the exact integral")


def _case_segre_quadric() -> VerifyResult:
    pair = segre(tent_pair(), tent_pair())
    target = pair.f.integrate(0, pair.alpha)
    measured = oracle.ehk_estimate(2, SEGRE_QUADRIC, oracle.variable_powers(4, 1), 8)
    return _result("segre-quadric-f2-q8", measured, target, Fraction(3, 20),
                   detail="four-variable multiplicity estimate at q=8 against the "
                          "exact Segre integral")


def _case_scaling() -> VerifyResult:
    # non-monomial generators, so that the bracket's coefficients matter
    gens = [oracle.parse_polynomial(g, 3) for g in ("x + y", "x + 2*y", "z")]
    ok = oracle.scaling_check(3, QUADRIC_CONE, gens, 3, 3)
    return _verdict("scaling-quadric-cone", ok, "equal", "unequal",
                    "for I = (x + y, x + 2y, z), colengths of the literal "
                    "powers (g^3)^3 mod 3 and of I^[9] agree degree by degree")


def _case_profile_mirror() -> VerifyResult:
    """The cyclic quartic over m^[49] at p = 7: ``colength_profile`` ranks
    only the degrees from ceil(N/2) up and mirrors the rest; every degree is
    ranked here instead, through the same ``length``."""
    p, q = 7, 49
    hyp = oracle.trinomial_poly(cyclic(4))
    gens = oracle.variable_powers(3, 1)
    profile = oracle.colength_profile(p, hyp, gens, q)
    length = oracle.quotient_lengths(p, hyp, gens, q).length
    ranked: dict[int, int] = {}
    while value := length(len(ranked)):
        ranked[len(ranked)] = value
    ok = profile == ranked  # the top is len(lengths) - 1 on both
    return _verdict("profile-mirror-cyclic4-p7-q49", ok, "equal", "unequal",
                    f"mirrored profile (top {len(profile) - 1}) against a rank "
                    f"at every degree 0..{len(ranked)}")


def _case_kunz_regular() -> VerifyResult:
    """Kunz's theorem on the regular ring k[x, y, z]: l(S/J^[q]) = q^3 l(S/J)
    for every m-primary J.  J has a binomial generator, whose multiples join
    the walk's residual system on both sides; no closed form is involved."""
    p, q = 2, 4
    texts = ("x^2", "x*y + z^2", "y^2", "z^3")
    gens = [oracle.parse_polynomial(g, 3) for g in texts]
    colength = sum(oracle.colength_profile(p, None, gens, 1).values())
    measured = sum(oracle.colength_profile(p, None, gens, q).values())
    return _result("kunz-regular-dense", Fraction(measured), Fraction(q ** 3 * colength),
                   Fraction(0), detail=f"l(S/J^[{q}]) against {q}^3 l(S/J) = {q}^3*{colength} "
                                       f"for J = ({', '.join(texts)}) mod {p}")


def _case_volume_convergence() -> VerifyResult:
    """Lattice-count convergence at tolerance 2/q over random small boxes.

    The worst scaled error over the family is reported; the case fails by
    design (``FAILS_BY_DESIGN``).
    """
    rng = random.Random(20260808)
    worst = Fraction(0)
    worst_at = ""
    passed = True
    for _ in range(10):
        m = rng.randint(1, 4)
        ns = tuple(rng.randint(1, 3) for _ in range(m))
        spec = BoxSliceSpec(ns)
        volume = slice_volume(spec)
        span = sum(ns) + 1
        for q in (16, 32, 64):
            for j in range(1, 21):
                x = Fraction(span * j, 21)
                count = lattice_slice_count(spec, q, int(x * q))
                err = abs(Fraction(count, q ** (m - 1)) - volume(x))
                if err > Fraction(2, q):
                    passed = False
                if err * q > worst:
                    worst = err * q
                    worst_at = f"spec={ns} q={q} x={fraction_str(x)}"
        del volume
    return VerifyResult(name="volume-convergence", passed=passed,
                        measured=f"worst q*error = {fraction_str(worst)}",
                        target="q*error <= 2", tolerance="2/q",
                        gap=fraction_str(max(Fraction(0), worst - 2)),
                        detail=f"{worst_at}; {FAILS_BY_DESIGN['volume-convergence']}")


CASES: dict[str, Callable[[], VerifyResult]] = {
    "tent-exact": _case_tent_exact,
    "fermat4-p17-q17": _threshold_case("fermat4-p17-q17", fermat(4), 17, 17, Fraction(3, 17)),
    "fermat4-p29-q29": _threshold_case("fermat4-p29-q29", fermat(4), 29, 29, Fraction(3, 29)),
    # at q = p^2 the top is exact: q*c + 1 = 1277, within (d - 3)/q of c
    "fermat4-p29-q841": _threshold_case("fermat4-p29-q841", fermat(4), 29, 841,
                                        Fraction(1, 841)),
    "quadric-cone-f3": _case_quadric_thresholds,
    "quadric-cone-ehk": _case_quadric_ehk,
    "segre-quadric-f2-q8": _case_segre_quadric,
    "irregular-d5-oracle": _threshold_case("irregular-d5-oracle", irregular_quintic_witness(),
                                           13, 169, Fraction(3, 169),
                                           "witness {curve}; threshold estimate at q=p^2={q}"),
    "scaling-quadric-cone": _case_scaling,
    "kunz-regular-dense": _case_kunz_regular,
    "profile-mirror-cyclic4-p7-q49": _case_profile_mirror,
    "volume-convergence": _case_volume_convergence,
}


def run_case(name: str) -> VerifyResult:
    if name not in CASES:
        raise ValueError(f"unknown verify case {name!r}; known: {', '.join(sorted(CASES))}")
    return CASES[name]()
