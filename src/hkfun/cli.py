"""Command-line frontend: one subcommand per computation, JSON/CSV output,
and plot-ready exact sampling.

Each subcommand takes only the options it reads: ``--format`` and ``--out``
everywhere, ``--format samples`` and ``--samples`` on volume, density, segre,
bundle and syzygy.  ``--samples`` is read only with ``--format samples``, and
``verify --list`` prints a plain listing, so it takes no ``--format csv``.
``--precision`` is read only where a ``*_dec`` field is printed: with
``--format samples``, and in the JSON of ``trinomial --prime`` (without
``--table``) and of ``oracle --op ehk|fthreshold``.
``trinomial`` and ``oracle`` take one curve flag at most; each pair density
of ``density`` and ``segre`` comes from degrees or from a JSON file.

Exit status is 0 on success (for ``verify``: only when the check passed),
1 with a one-line diagnostic on a ValueError (invalid input, an option value
the command would ignore), an ArithmeticError or an OSError, 2 on usage
errors (unknown or conflicting options).  Any other exception is a fault.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from . import oracle, verify
from .bundle import HNData, Polarization, SyzygySpec, bundle_alpha, bundle_density, \
    syzygy_pair_density
from .density import PairDensity, segre
from .piecewise import PiecewisePolynomial, as_fraction, fraction_str
from .trinomial import Irregular, TypeI, TypeII, classify, cyclic, \
    f_threshold, fermat, prime_class, residue_table
from .volume import BoxSliceSpec, parameter_density, slice_volume


def decimal_string(value: Fraction, precision: int) -> str:
    """Correctly rounded (half-even) decimal rendering of an exact rational;
    the integer part and the fraction are converted to text apart."""
    n = round(value * 10 ** precision)
    whole, fraction = divmod(abs(n), 10 ** precision)
    sign = "-" if n < 0 else ""
    if precision == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{fraction:0{precision}d}"


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _fraction_list(text: str) -> list[Fraction]:
    return [as_fraction(t) for t in text.split(",") if t != ""]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc


def _density_window(f: PiecewisePolynomial) -> tuple[Fraction, Fraction]:
    lo = min(Fraction(0), f.breakpoints[0]) if f.breakpoints else Fraction(0)
    sup = f.support_sup()
    hi = sup if sup is not None and sup > lo else \
        (f.breakpoints[-1] if f.breakpoints else lo + 1)
    if hi <= lo:
        hi = lo + 1
    return lo, hi


def _precision(args) -> int:
    return 12 if args.precision is None else args.precision


def _reject_unread(args, option: str, read: bool, where: str) -> None:
    """Refuse ``option`` when it is given where the command would not read it."""
    if getattr(args, option[2:]) is not None and not read:
        raise ValueError(f"{option} is read only {where}")


def _sample_rows(f: PiecewisePolynomial, n: int, precision: int) -> list[dict]:
    lo, hi = _density_window(f)
    xs = [lo + (hi - lo) * j / (n - 1) for j in range(n)]
    return [{"x": fraction_str(x), "f": fraction_str(y),
             "x_dec": decimal_string(x, precision), "f_dec": decimal_string(y, precision)}
            for x, y in zip(xs, map(f, xs))]


def _piece_rows(f: PiecewisePolynomial) -> list[dict]:
    return [{"start": fraction_str(lo) if lo is not None else "-inf",
             "end": fraction_str(hi) if hi is not None else "inf",
             "coefficients": " ".join(fraction_str(c) for c in seg.coeffs) or "0"}
            for lo, hi, seg in f.iter_pieces()]


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, rows: Optional[list[dict]], args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _write(text, args)


def _emit_density(f: PiecewisePolynomial, extra: dict, args) -> None:
    for option in ("--precision", "--samples"):
        _reject_unread(args, option, args.format == "samples", "with --format samples")
    if args.format == "samples":
        rows = _sample_rows(f, 256 if args.samples is None else args.samples,
                            _precision(args))
        _emit({**extra, "samples": rows}, rows, args)
    elif args.format == "csv":
        _emit(extra, _piece_rows(f), args)
    else:
        _emit({**extra, "density": f.to_dict()}, None, args)


def _pair_payload(pair: PairDensity) -> dict:
    return {"dim": pair.dim, "mult": pair.mult, "provenance": pair.provenance,
            "alpha": fraction_str(pair.alpha),
            "ehk": fraction_str(pair.f.integrate(0, pair.alpha))}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_volume(args) -> int:
    _reject_unread(args, "--eval", args.format == "json", "with --format json")
    spec = BoxSliceSpec(tuple(_int_list(args.degrees)))
    f = slice_volume(spec)
    payload = {"edge_lengths": list(spec.edge_lengths),
               "support_sup": fraction_str(f.support_sup() or Fraction(0))}
    if args.eval is not None:
        x = as_fraction(args.eval)
        payload["value_at"] = {"x": fraction_str(x), "f": fraction_str(f(x))}
    _emit_density(f, payload, args)
    return 0


def _input_pair(path: Optional[str], mult: Optional[int], degrees: Optional[str],
                flags: tuple[str, str, str]) -> PairDensity:
    """The pair density in a JSON file, or the parameter density of the
    degrees; the parser admits exactly one of the two sources."""
    if path is None:
        return parameter_density(1 if mult is None else mult, tuple(_int_list(degrees)))
    if mult is not None:
        raise ValueError(f"{flags[1]} is read only with {flags[2]}, not with {flags[0]}")
    return PairDensity.from_dict(_load_json(path))


def _cmd_density(args) -> int:
    pair = _input_pair(args.infile, args.mult, args.degrees, ("--in", "--mult", "--degrees"))
    _emit_density(pair.f, _pair_payload(pair), args)
    return 0


def _cmd_segre(args) -> int:
    a = _input_pair(args.left, args.mult, args.degrees, ("--left", "--mult", "--degrees"))
    b = _input_pair(args.right, args.mult2, args.degrees2,
                    ("--right", "--mult2", "--degrees2"))
    pair = segre(a, b)
    _emit_density(pair.f, _pair_payload(pair), args)
    return 0


def _parse_hn(args) -> tuple[HNData, Polarization]:
    return (HNData(tuple(_fraction_list(args.slopes)), tuple(_int_list(args.ranks))),
            Polarization(degree=args.poldeg))


def _cmd_bundle(args) -> int:
    hn, pol = _parse_hn(args)
    f = bundle_density(hn, pol)
    payload = {"alpha": fraction_str(bundle_alpha(hn, pol)),
               "slopes": [fraction_str(a) for a in hn.slopes],
               "ranks": list(hn.ranks), "poldeg": pol.degree}
    _emit_density(f, payload, args)
    return 0


def _cmd_syzygy(args) -> int:
    hn, pol = _parse_hn(args)
    spec = SyzygySpec(mu=args.mu, gen_degree=args.d0, pol=pol, hn_v=hn)
    pair = syzygy_pair_density(spec)
    _emit_density(pair.f, _pair_payload(pair), args)
    return 0


def _curve_from_args(args):
    if args.fermat is not None:
        return fermat(args.fermat)
    if args.cyclic is not None:
        return cyclic(args.cyclic)
    for flag, text, shape in (("--typeI", args.typeI, TypeI),
                              ("--typeII", args.typeII, TypeII)):
        if text is not None:
            exps = _int_list(text)
            if len(exps) != 6:
                raise ValueError(f"{flag} takes 6 integers, got {len(exps)}")
            return shape(*exps)
    return None


def _cmd_trinomial(args) -> int:
    _reject_unread(args, "--precision", args.prime is not None and not args.table,
                   "with --prime and without --table")
    _reject_unread(args, "--precision", args.format == "json", "with --format json")
    curve = _curve_from_args(args)
    kind = classify(curve)
    payload: dict = {"curve": repr(curve), "degree": curve.degree, "n": args.n}
    if isinstance(kind, Irregular):
        payload["class"] = "irregular"
        payload["multiplicity"] = kind.multiplicity
    else:
        inv = kind.invariants
        payload["class"] = "regular"
        payload["invariants"] = {"alpha": inv.alpha, "beta": inv.beta, "nu": inv.nu,
                                 "lambda": inv.lam, "lambda_h": inv.lambda_h}
    if args.prime is not None and not args.table:
        value = f_threshold(curve, args.n, args.prime)
        payload.update(prime=args.prime, threshold=fraction_str(value),
                       threshold_dec=decimal_string(value, _precision(args)))
        _emit(payload, [{"threshold": fraction_str(value)}], args)
        return 0
    if args.prime is not None:
        prime_class(kind, args.prime)  # the check that f_threshold makes
    if isinstance(kind, Irregular):
        value = f_threshold(curve, args.n, 2)
        payload["threshold"] = fraction_str(value)
        _emit(payload, [{"threshold": fraction_str(value)}], args)
        return 0
    rows = []
    for row in residue_table(curve, args.n):
        entry = {"residue": row.representative, "T": fraction_str(row.T),
                 "D": "inf" if row.D is None else row.D, "formula": row.formula}
        if args.prime is not None:
            entry["threshold_at_p"] = fraction_str(row.threshold_at(args.prime))
        rows.append(entry)
    payload["table"] = rows
    _emit(payload, rows, args)
    return 0


def _oracle_ideal(args, n: int):
    curve = _curve_from_args(args)
    if curve is not None:
        if args.vars is not None:
            raise ValueError("a curve flag fixes 3 variables; --vars is for --hypersurface")
        hyp = oracle.trinomial_poly(curve)
        nv = 3
    elif args.hypersurface is not None:
        nv = 3 if args.vars is None else args.vars
        hyp = oracle.parse_polynomial(args.hypersurface, nv)
    else:
        hyp = None
        nv = 2 if args.vars is None else args.vars
    if args.gens is not None:
        gens = [oracle.parse_polynomial(g, nv) for g in args.gens.split(",")]
    else:
        gens = oracle.variable_powers(nv, n)
    return curve, hyp, gens


def _cmd_oracle(args) -> int:
    _reject_unread(args, "--x", args.op == "fn", f"by --op fn, not --op {args.op}")
    _reject_unread(args, "--n", args.gens is None, "without --gens")
    _reject_unread(args, "--precision", args.op in ("ehk", "fthreshold"),
                   f"by --op ehk and --op fthreshold, not --op {args.op}")
    _reject_unread(args, "--precision", args.format == "json", "with --format json")
    n = 1 if args.n is None else args.n
    curve, hyp, gens = _oracle_ideal(args, n)
    p, q = args.prime, args.q
    echo = {"p": p, "q": q,
            "hypersurface": args.hypersurface or (repr(curve) if curve else None),
            "generators": args.gens or f"coordinate powers n={n}"}
    if args.op == "profile":
        lengths = oracle.colength_profile(p, hyp, gens, q)
        rows = [{"m": m, "length": lengths[m]} for m in sorted(lengths)]
        _emit({**echo, "top_nonzero": len(lengths) - 1,
               "lengths": {str(m): lengths[m] for m in sorted(lengths)}},
              rows, args)
    elif args.op == "ehk":
        value = oracle.ehk_estimate(p, hyp, gens, q)
        _emit({**echo, "ehk_estimate": fraction_str(value),
               "ehk_dec": decimal_string(value, _precision(args))},
              [{"ehk_estimate": fraction_str(value)}], args)
    elif args.op == "fthreshold":
        if args.gens is not None:
            raise ValueError("fthreshold takes the coordinate powers of --n, not --gens")
        value = oracle.fthreshold_estimate(p, hyp, n, q)
        _emit({**echo, "fthreshold_estimate": fraction_str(value),
               "fthreshold_dec": decimal_string(value, _precision(args))},
              [{"fthreshold_estimate": fraction_str(value)}], args)
    else:  # fn
        if args.x is None:
            raise ValueError("--x is required for op=fn")
        value = oracle.fn_sample(p, hyp, gens, q, as_fraction(args.x))
        _emit({**echo, "x": args.x, "fn_sample": fraction_str(value)},
              [{"x": args.x, "fn_sample": fraction_str(value)}], args)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        if args.format == "csv":
            raise ValueError("--format csv is read only with --case")
        notes = verify.FAILS_BY_DESIGN
        _write("".join(f"{name}  ({notes[name]})\n" if name in notes else f"{name}\n"
                       for name in sorted(verify.CASES)), args)
        return 0
    result = verify.run_case(args.case)
    _emit(result.to_dict(), [result.to_dict()], args)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _output_options(formats: tuple[str, ...], precision: bool = True):
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=formats, default="json")
    if "samples" in formats:
        parent.add_argument("--samples", type=int,
                            help="number of sample points (default 256)")
    if precision:
        parent.add_argument("--precision", type=int,
                            help="decimal digits for rendered values (default 12)")
    parent.add_argument("--out", help="write output to this path instead of stdout")
    return parent


def _curve_options(parser: argparse.ArgumentParser, required: bool):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--fermat", type=int, help="degree d of x^d + y^d + z^d")
    group.add_argument("--cyclic", type=int, help="degree d of x^(d-1)y + y^(d-1)z + z^(d-1)x")
    group.add_argument("--typeI", help="a1,a2,b1,b2,c1,c2")
    group.add_argument("--typeII", help="d,a1,a2,a3,b,c")
    return group


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept for the
    life of the process: parsing leaves it unchanged, and ``main`` may run
    many times in one process."""
    density_out = _output_options(("json", "csv", "samples"))
    value_out = _output_options(("json", "csv"))
    verdict_out = _output_options(("json", "csv"), precision=False)
    slope_data = argparse.ArgumentParser(add_help=False)
    slope_data.add_argument("--slopes", required=True, help="comma-separated rationals")
    slope_data.add_argument("--ranks", required=True, help="comma-separated integers")
    slope_data.add_argument("--poldeg", type=int, required=True)

    parser = argparse.ArgumentParser(prog="hkfun",
                                     description="exact Hilbert-Kunz density and "
                                                 "F-threshold computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser("volume", parents=[density_out], help="box slice volume function")
    p_vol.add_argument("--degrees", required=True, help="comma-separated edge lengths")
    p_vol.add_argument("--eval", help="also evaluate at this rational point")
    p_vol.set_defaults(func=_cmd_volume)

    p_den = sub.add_parser("density", parents=[density_out], help="parameter-ideal pair density")
    p_den.add_argument("--mult", type=int, help="multiplicity for --degrees (default 1)")
    source = p_den.add_mutually_exclusive_group(required=True)
    source.add_argument("--degrees", help="comma-separated generator degrees")
    source.add_argument("--in", dest="infile", help="read a pair density from JSON")
    p_den.set_defaults(func=_cmd_density)

    p_seg = sub.add_parser("segre", parents=[density_out], help="Segre product of two pairs")
    p_seg.add_argument("--mult", type=int, help="multiplicity for --degrees (default 1)")
    p_seg.add_argument("--mult2", type=int, help="multiplicity for --degrees2 (default 1)")
    first = p_seg.add_mutually_exclusive_group(required=True)
    first.add_argument("--degrees")
    first.add_argument("--left", help="JSON file with the first pair density")
    second = p_seg.add_mutually_exclusive_group(required=True)
    second.add_argument("--degrees2")
    second.add_argument("--right", help="JSON file with the second pair density")
    p_seg.set_defaults(func=_cmd_segre)

    p_bun = sub.add_parser("bundle", parents=[density_out, slope_data],
                           help="bundle density from slope data")
    p_bun.set_defaults(func=_cmd_bundle)

    p_syz = sub.add_parser("syzygy", parents=[density_out, slope_data],
                           help="pair density from a syzygy bundle")
    p_syz.add_argument("--mu", type=int, required=True)
    p_syz.add_argument("--d0", type=int, required=True)
    p_syz.set_defaults(func=_cmd_syzygy)

    p_tri = sub.add_parser("trinomial", parents=[value_out],
                           help="trinomial classification, residue table, thresholds")
    _curve_options(p_tri, required=True)
    p_tri.add_argument("--n", type=int, default=1)
    p_tri.add_argument("--prime", type=int)
    p_tri.add_argument("--table", action="store_true",
                       help="emit the full residue table (with a threshold "
                            "column when --prime is given)")
    p_tri.set_defaults(func=_cmd_trinomial)

    p_ora = sub.add_parser("oracle", parents=[value_out],
                           help="characteristic-p colength computations")
    p_ora.add_argument("--prime", type=int, required=True)
    p_ora.add_argument("--q", type=int, required=True)
    p_ora.add_argument("--n", type=int,
                       help="coordinate-power exponent for the default ideal (default 1)")
    _curve_options(p_ora, required=False).add_argument(
        "--hypersurface", help="e.g. 'x*y - z^2'")
    p_ora.add_argument("--vars", type=int, help="number of variables (1-4)")
    p_ora.add_argument("--gens", help="comma-separated generators")
    p_ora.add_argument("--op", choices=("profile", "ehk", "fthreshold", "fn"),
                       default="profile")
    p_ora.add_argument("--x", help="sample point for op=fn")
    # accepted and ignored: the benchmark's job argv still passes it
    p_ora.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p_ora.set_defaults(func=_cmd_oracle)

    p_ver = sub.add_parser("verify", parents=[verdict_out],
                           help="run a named closed-form vs oracle cross-check")
    what = p_ver.add_mutually_exclusive_group(required=True)
    what.add_argument("--case")
    what.add_argument("--list", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # exact output prints integers of any length: lift CPython's digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an option the subcommand lacks, or that is left unset, passes; the
        # bounds keep --precision's powers of ten and --samples' rows small
        for name, least, most in (("precision", 0, 4000), ("samples", 2, 100_000),
                                  ("vars", 1, oracle.MAX_VARS)):
            value = getattr(args, name, None)
            if value is not None and not least <= value <= most:
                bound = f">= {least}" if value < least else f"<= {most}"
                raise ValueError(f"--{name} must be {bound}, got {value}")
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"hkfun: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
