"""The benchmark's own tests: every check accepts the program's answer and
rejects a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from hkfun import bundle, density, trinomial  # noqa: E402


def _reference_job(name, seed=7):
    jobs = workloads.WORKLOADS[name](seed)
    return next(j for j in jobs if j.q == workloads.REFERENCE_Q)


def test_dense_reference_matches_hilbert_function_below_q():
    job = _reference_job("sweep-cyclic")
    for m in range(0, workloads.REFERENCE_Q, 4):
        assert reference.graded_length(job.p, job.poly, job.q, m) == \
            reference.hypersurface_hilbert(job.degree, m)


def test_threshold_top_plus_one_rejected():
    job = _reference_job("threshold-purepower")
    status, text = job.run()
    assert job.check((status, text)) == []
    out = json.loads(text)
    bumped = Fraction(out["fthreshold_estimate"]) + Fraction(1, job.q)
    out["fthreshold_estimate"] = str(bumped)
    assert job.check((status, json.dumps(out)))


def test_profile_top_plus_one_rejected():
    job = _reference_job("sweep-cyclic")
    status, text = job.run()
    assert job.check((status, text)) == []
    out = json.loads(text)
    out["top_nonzero"] += 1
    out["lengths"][str(out["top_nonzero"])] = 1
    assert job.check((status, json.dumps(out)))


def test_known_fault_excuses_only_the_closed_form_gap():
    job = next(j for j in workloads.WORKLOADS["threshold-purepower"](7) if j.known_fault)
    status, text = job.run()
    assert job.check((status, text)) == []
    assert job.check((1, text))
    out = json.loads(text)
    out["fthreshold_estimate"] = str(Fraction(out["fthreshold_estimate"])
                                     + Fraction(1, job.q))
    assert job.check((status, json.dumps(out)))


def test_profile_sum_off_by_more_than_one_over_q_rejected():
    job = _reference_job("sweep-cyclic")
    status, text = job.run()
    out = json.loads(text)
    # degree q is past the Hilbert-function check; the sum moves by (q+2)/q^2
    out["lengths"][str(job.q)] += job.q + 2
    assert job.check((status, json.dumps(out)))


@pytest.mark.parametrize("curve", [trinomial.fermat(4), trinomial.fermat(6),
                                   trinomial.cyclic(5), trinomial.cyclic(7)],
                         ids=repr)
def test_traw_off_by_one_over_lambda_h_rejected(curve):
    inv = trinomial.classify(curve).invariants
    a, lam_h = inv.common_factor, inv.lambda_h
    tables = {n: trinomial.residue_table(curve, n) for n in (1, 2)}
    assert workloads.check_residue_tables(inv, tables) == []
    for n, rows in tables.items():
        for i, row in enumerate(rows):
            t_raw = 1 - a * (1 - row.T)
            for shift in (Fraction(1, lam_h), -Fraction(1, lam_h)):
                # the perturbed distance, reported raw or renormalised
                for bad_T in (t_raw + shift, 1 - (1 - t_raw - shift) / a):
                    bad = dataclasses.replace(row, T=bad_T)
                    perturbed = {**tables, n: rows[:i] + [bad] + rows[i + 1:]}
                    assert workloads.check_residue_tables(inv, perturbed), (n, row, bad_T)


def test_syzygy_integral_off_by_one_over_q_squared_rejected():
    d, p = 5, 31
    curve = trinomial.cyclic(d)
    c = trinomial.f_threshold(curve, 1, p)
    a_min = d * (1 - c)
    spec = bundle.SyzygySpec(mu=3, gen_degree=1, pol=bundle.Polarization(d),
                             hn_v=bundle.HNData((-d - a_min, a_min), (1, 1)))
    pair = bundle.syzygy_pair_density(spec)
    shape, verdict = density.symmetry_class(pair), density.regularity_verdict(pair)
    integral = pair.f.integrate(0, pair.alpha)
    assert workloads.check_syzygy_density(d, c, pair, shape, verdict, integral, "") == []
    for off in (Fraction(1, p * p), -Fraction(1, p * p)):
        assert workloads.check_syzygy_density(d, c, pair, shape, verdict,
                                              integral + off, "")


def test_census_job_passes_its_checks():
    job = next(j for j in workloads.WORKLOADS["census"](3) if j.degree == 4)
    assert job.check(job.run()) == []


def test_inputs_follow_the_seed():
    for name in ("threshold-purepower", "sweep-cyclic"):
        first = [j.argv() for j in workloads.WORKLOADS[name](11)]
        assert first == [j.argv() for j in workloads.WORKLOADS[name](11)]
        assert first != [j.argv() for j in workloads.WORKLOADS[name](12)]
