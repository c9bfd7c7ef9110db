"""Command-line front end.

Input polynomials come from a file, stdin (`-`), or an inline string, in
either the text grammar or the JSON schemas.  Reports go to stdout as text or
as JSON with sorted keys, so a fixed seed gives a byte-identical report.

Exit codes: 0 success, 1 bad input or bad flags, 2 decomposition failure,
141 stdout closed early (128 + SIGPIPE, as a shell reports a killed writer).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .binary import binary_decompose
from .core import (
    DEFAULT_TOL,
    DecompositionError,
    HomogeneousPoly,
    PolyParseError,
    decomposition_from_json,
    decomposition_to_json,
    finite_coeff,
    format_poly,
    json_value,
    monomials,
    parse_poly,
    poly_from_json,
)
from .decompose import classify_ternary_cubic, decompose, verify


def parse_input(text: str) -> HomogeneousPoly:
    """Polynomial from the text grammar or one of the JSON schemas."""
    stripped = text.strip()
    if not stripped.startswith("{"):
        return parse_poly(stripped)
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON input: {exc}")
    if "tensor" in obj:
        return _poly_from_tensor(obj)
    return poly_from_json(obj)


def _poly_from_tensor(obj: dict) -> HomogeneousPoly:
    """Flat multi-index coefficient array, graded-lex exponent order."""
    try:
        nvars = json_value(obj["nvars"], int, "nvars")
        degree = json_value(obj["degree"], int, "degree")
        flat = json_value(obj["tensor"], list, "tensor")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad tensor JSON: {exc}")
    if nvars < 1 or degree < 0:
        raise ValueError(
            f"bad tensor JSON: no form has {nvars} variables and degree {degree}"
        )
    # the entries are counted before any exponent is listed, which a large
    # shape would not fit in memory; past k = 64 the count C(n+d-1, k) is
    # above 2^64, more than any list holds
    k = min(degree, nvars - 1)
    count = math.comb(nvars + degree - 1, k) if k < 64 else None
    if len(flat) != count:
        want = "more than 2^64" if count is None else count
        raise ValueError(f"tensor array has {len(flat)} entries, expected {want}")
    exps = monomials(nvars, degree)
    coeffs = {}
    for i, (exp, v) in enumerate(zip(exps, flat)):
        # a real number or an [re, im] pair
        kind = complex if isinstance(v, list) else float
        coeffs[exp] = finite_coeff(json_value(v, kind, "tensor entry {}", i))
    return HomogeneousPoly(nvars, degree, coeffs)


def _read_source(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, "r") as fh:
            return fh.read()
    return arg


def _emit(report: dict, fmt: str, text_lines) -> None:
    """Print the report as JSON, or the lines `text_lines()` returns as text:
    they are formatted only when they are printed."""
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _decomposition_report(rep) -> dict:
    """The decomposition's JSON, whose rank and residual are the report's,
    with what the search did."""
    return {
        **decomposition_to_json(rep.decomposition),
        "basis": [list(e) for e in rep.basis],
        "free_count": rep.free_count,
        "retries": rep.retries,
        "seed": rep.seed,
    }


def _term_lines(dec) -> list[str]:
    out = []
    for w, k in dec.terms:
        kp = ", ".join(f"{complex(v):.6g}" for v in k)
        out.append(f"  {complex(w):.6g} * ({kp})^{dec.degree}")
    return out


def _error(fmt: str, code: str, exc: Exception, status: int) -> int:
    if fmt == "json":
        print(json.dumps({"error": {"code": code, "message": str(exc)}}, sort_keys=True))
    print(f"error: {exc}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`): nothing left to report to, and the
        # flush at interpreter exit must not hit the dead pipe again
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    return code


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="file path, inline polynomial, or - for stdin")
    common.add_argument("--format", choices=["text", "json"], default="text")
    solve = argparse.ArgumentParser(add_help=False, parents=[common])
    solve.add_argument("--tol", type=float, default=DEFAULT_TOL)
    solve.add_argument("--seed", type=int, default=0)
    search = argparse.ArgumentParser(add_help=False, parents=[solve])
    search.add_argument("--max-rank", type=int, default=None)
    ap = argparse.ArgumentParser(
        prog="waring",
        description="decompose homogeneous polynomials into sums of powers of linear forms",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("decompose", help="minimal power-sum decomposition", parents=[search])
    sub.add_parser("rank", help="symmetric rank only", parents=[search])
    sub.add_parser("classify", help="orbit class of a ternary cubic", parents=[solve])
    sub.add_parser("sylvester", help="binary decomposition directly", parents=[search])
    pv = sub.add_parser(
        "verify", help="check a decomposition against a polynomial", parents=[common]
    )
    pv.add_argument("--decomposition", required=True, help="decomposition JSON file")
    return ap


# built once, at import: setting argparse up costs more than a small input
_PARSER = _build_parser()


def _main(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which it has
        # already printed; 2 is reserved for a failed decomposition here
        return 1 if exc.code else 0
    fmt = args.format

    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError("--tol must be finite and positive")
        if getattr(args, "max_rank", None) is not None and args.max_rank < 1:
            raise ValueError("--max-rank must be at least 1")
        if "seed" in args and args.seed < 0:
            raise ValueError("--seed must be at least 0")
        f = parse_input(_read_source(args.input))
    except (PolyParseError, ValueError, OverflowError, OSError) as exc:
        # OverflowError: a JSON integer too large for a float; OSError: an
        # input path that exists but cannot be read (a directory, no permission)
        return _error(fmt, "invalid-input", exc, 1)

    try:
        if args.command == "decompose":
            rep = decompose(f, tol=args.tol, max_rank=args.max_rank, seed=args.seed)
            report = _decomposition_report(rep)
            _emit(report, fmt, lambda: [
                f"rank {rep.rank}  residual {rep.residual:.3g}  "
                f"retries {rep.retries}  seed {rep.seed}",
                *_term_lines(rep.decomposition),
            ])
        elif args.command == "rank":
            rep = decompose(f, tol=args.tol, max_rank=args.max_rank, seed=args.seed)
            _emit({"rank": rep.rank, "residual": rep.residual, "seed": rep.seed},
                  fmt, lambda: [str(rep.rank)])
        elif args.command == "classify":
            cls = classify_ternary_cubic(f, seed=args.seed, tol=args.tol)
            _emit({"class": cls.label, "rank": cls.rank}, fmt,
                  lambda: [f"{cls.label} (rank {cls.rank})"])
        elif args.command == "sylvester":
            if f.nvars != 2:
                raise ValueError("sylvester needs a binary form")
            dec = binary_decompose(
                f, seed=args.seed, tol=args.tol, max_rank=args.max_rank
            ).normalized()
            report = decomposition_to_json(dec)
            report["seed"] = args.seed
            _emit(report, fmt, lambda: [
                f"rank {dec.rank}  residual {dec.residual:.3g}",
                *_term_lines(dec),
            ])
        elif args.command == "verify":
            with open(args.decomposition, "r") as fh:
                dec = decomposition_from_json(json.load(fh))
            vr = verify(f, dec)
            _emit(
                {
                    "residual": vr.residual,
                    "max_coeff_err": vr.max_coeff_err,
                    "collisions": vr.collisions,
                },
                fmt,
                lambda: [
                    f"residual {vr.residual:.6g}  max coefficient error "
                    f"{vr.max_coeff_err:.6g}  collisions {vr.collisions}",
                    f"input: {format_poly(f)}",
                ],
            )
    except BrokenPipeError:
        raise
    except (PolyParseError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        return _error(fmt, "invalid-input", exc, 1)
    except DecompositionError as exc:
        return _error(fmt, "decomposition-failed", exc, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
