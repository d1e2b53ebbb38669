"""Command-line front end.

Exit codes: 0 affirmative/success, 1 negative decision or failed check,
2 usage error, 3 convergence failure in the numerical realizer.  ``main``
is the one place that turns an exception into an exit code, after printing
``error: <message>``: NotATFFSequence gives 1, ConvergenceFailure 3, and any
other TFFCombError, OSError, ValueError or KeyError (a bad option or input
file) 2; so a subcommand missing an option raises InvalidParameter.  Each
duality flag stores its kind, which ``DUALS`` maps to the duality maps.
Every subcommand takes ``--json`` for machine-readable output; rationals are
written as "p/q" and rank lists as comma-separated integers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import configmat, dualities, realize, tffcore
from .configmat import ConfigMatrix
from .errors import (
    ConvergenceFailure, InvalidParameter, NotATFFSequence, TFFCombError)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# duality kind -> (sequence-level map, certificate-level map)
DUALS = {
    "spatial": (dualities.spatial_dual, dualities.config_spatial_dual),
    "naimark": (dualities.naimark_dual, dualities.config_naimark_dual),
    "strip": (dualities.recur_strip, None),
}


def _parse_ranks(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rank list {text!r}")
    return parts


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")


def _canonical_ranks(ranks: tuple[int, ...], dim: int) -> tuple[int, ...]:
    ordered, _ = configmat.canonical_instance(ranks, dim)
    if ordered != ranks:
        print(
            f"warning: ranks {list(ranks)} not weakly decreasing;"
            f" using {list(ordered)}",
            file=sys.stderr,
        )
    return ordered


def _emit(payload: dict, text: str, as_json: bool, out: str | None = None) -> None:
    body = json.dumps(payload, indent=2) if as_json else text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _matrix_text(a: ConfigMatrix) -> str:
    width = max(len(str(x)) for row in a.entries for x in row)
    lines = []
    for row in a.entries:
        cells = []
        col = 0
        for k, r in enumerate(a.ranks):
            cells.append(" ".join(str(x).rjust(width) for x in row[col:col + r]))
            col += r
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def _load_config(path: str) -> ConfigMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return ConfigMatrix.from_json_dict(json.load(fh))


def _find_certificate(args) -> ConfigMatrix:
    """The first certificate for ``--ranks`` in ``--dim``; raises
    NotATFFSequence when there is none."""
    ranks = _canonical_ranks(args.ranks, args.dim)
    cert = configmat.find_config(ranks, args.dim)
    if cert is None:
        raise NotATFFSequence(
            f"no certificate for {list(ranks)} in dimension {args.dim}"
        )
    return cert


def _cmd_decide(args) -> int:
    ranks = _canonical_ranks(args.ranks, args.dim)
    tight, cert = tffcore.decide(ranks, args.dim, certificate=True)
    alpha = Fraction(sum(ranks), args.dim)
    payload = {
        "dim": args.dim,
        "ranks": list(ranks),
        "alpha": str(alpha),
        "tight": tight,
    }
    if tight and cert is not None:
        payload["certificate"] = cert.to_json_dict()
        text = (
            f"{list(ranks)} in dimension {args.dim}: tight, bound {alpha}\n"
            + _matrix_text(cert)
        )
    else:
        text = f"{list(ranks)} in dimension {args.dim}: not tight"
    _emit(payload, text, args.json)
    return EXIT_OK if tight else EXIT_NEGATIVE


def _cmd_count(args) -> int:
    ranks = _canonical_ranks(args.ranks, args.dim)
    count = configmat.count_configs(ranks, args.dim)
    payload = {"dim": args.dim, "ranks": list(ranks), "count": count}
    _emit(payload, str(count), args.json)
    return EXIT_OK


def _cmd_certificate(args) -> int:
    cert = _find_certificate(args)
    _emit(cert.to_json_dict(), _matrix_text(cert), args.json, args.out)
    return EXIT_OK


def _cmd_tableau(args) -> int:
    if args.infile:
        cert = _load_config(args.infile)
    elif args.ranks is None or args.dim is None:
        raise InvalidParameter("need --ranks and --dim (or --in)")
    else:
        cert = _find_certificate(args)
    cells = configmat.tableau_cells(cert)
    payload = {
        "dim": cert.dim,
        "ranks": list(cert.ranks),
        "cells": [[[k, v] for (k, v) in row] for row in cells],
    }
    _emit(payload, configmat._tableau_text(cells), args.json)
    return EXIT_OK


def _maximal_payload(alpha: Fraction, dim: int) -> dict:
    """One cell of the table, with the seconds ``maximal_elements`` took."""
    started = time.perf_counter()
    tops = tffcore.maximal_elements(alpha, dim)
    return {
        "alpha": str(alpha),
        "dim": dim,
        "maximal": [list(t) for t in tops],
        "seconds": round(time.perf_counter() - started, 6),
    }


def _cmd_maximal(args) -> int:
    if args.all:
        if args.max_dim < 1:
            raise InvalidParameter("--max-dim must be positive")
        tables = []
        for dim in range(1, args.max_dim + 1):
            for total in range(dim, 2 * dim + 1):
                alpha = Fraction(total, dim)
                tables.append(_maximal_payload(alpha, dim))
        payload = {"max_dim": args.max_dim, "tables": tables}
        text = "\n".join(
            f"dim {t['dim']}  alpha {t['alpha']}: "
            + "  ".join(str(m) for m in t["maximal"])
            for t in tables
        )
        _emit(payload, text, args.json, args.out)
        return EXIT_OK
    if args.alpha is None or args.dim is None:
        raise InvalidParameter("need --alpha and --dim (or --all)")
    payload = _maximal_payload(args.alpha, args.dim)
    text = "\n".join(str(m) for m in payload["maximal"])
    _emit(payload, text, args.json, args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    seqs = tffcore.enumerate_tff(args.alpha, args.dim)
    payload = {
        "alpha": str(Fraction(args.alpha)),
        "dim": args.dim,
        "sequences": [list(s) for s in seqs],
    }
    _emit(payload, "\n".join(str(list(s)) for s in seqs), args.json)
    return EXIT_OK


def _cmd_dual(args) -> int:
    if args.kind == "alpha-reduce":
        if args.alpha is None:
            raise InvalidParameter("--alpha-reduce needs --alpha")
        new_alpha, new_dim = dualities.alpha_reduce(args.alpha, args.dim)
        payload = {
            "dual": "alpha-reduce",
            "alpha": str(new_alpha),
            "dim": new_dim,
            "source_alpha": str(Fraction(args.alpha)),
            "source_dim": args.dim,
        }
        _emit(payload, f"alpha {new_alpha}  dim {new_dim}", args.json)
        return EXIT_OK
    if args.ranks is None:
        raise InvalidParameter("need --ranks")
    ranks = _canonical_ranks(args.ranks, args.dim)
    new_ranks, new_dim = DUALS[args.kind][0](ranks, args.dim)
    payload = {
        "dual": args.kind,
        "source_ranks": list(ranks),
        "source_dim": args.dim,
        "ranks": list(new_ranks),
        "dim": new_dim,
    }
    _emit(payload, f"ranks {list(new_ranks)}  dim {new_dim}", args.json)
    return EXIT_OK


def _cmd_dual_config(args) -> int:
    cert = _load_config(args.infile)
    dual = DUALS[args.kind][1](cert)
    payload = {"dual": args.kind, "source_ranks": list(cert.ranks)}
    payload.update(dual.to_json_dict())
    _emit(payload, _matrix_text(dual), args.json, args.out)
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    ranks = _canonical_ranks(args.ranks, args.dim)
    alpha = Fraction(sum(ranks), args.dim)
    if args.alpha is not None:
        alpha = configmat.check_alpha(args.alpha, args.dim)[0]
    padded = ranks + (0, 0, 0)
    checks = {
        "first3": tffcore.first3_check(*padded[:3], alpha, args.dim)
        if 1 < alpha < 2 else None,
        "k_block": tffcore.k_block_bound(ranks, args.dim, alpha)
        if alpha >= 1 else None,
    }
    payload = {
        "dim": args.dim,
        "ranks": list(ranks),
        "alpha": str(Fraction(alpha)),
        "checks": checks,
    }
    lines = [
        f"{name}: {'n/a' if ok is None else ('pass' if ok else 'FAIL')}"
        for name, ok in checks.items()
    ]
    _emit(payload, "\n".join(lines), args.json)
    return EXIT_NEGATIVE if False in checks.values() else EXIT_OK


def _parse_spectrum(text: str) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    try:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            lam, _, mult = item.partition(":")
            out[Fraction(lam)] = out.get(Fraction(lam), 0) + int(mult or "1")
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad spectrum {text!r}")
    return out


def _cmd_two_proj(args) -> int:
    parsed = realize._spectrum(args.p, args.q, args.dim, args.spectrum)
    payload = {
        "p": args.p,
        "q": args.q,
        "dim": args.dim,
        "spectrum": {str(k): v for k, v in args.spectrum.items()},
        "valid": parsed is not None,
    }
    if parsed is None:
        _emit(payload, "multiplicity function is not realizable", args.json)
        return EXIT_NEGATIVE
    pmat, qmat = realize._two_projections(*parsed)
    payload["P"] = [[float(x) for x in row] for row in pmat]
    payload["Q"] = [[float(x) for x in row] for row in qmat]
    eigs = sorted(np.linalg.eigvalsh(pmat + qmat))
    text = "realizable; spectrum of P+Q: " + ", ".join(f"{x:.6f}" for x in eigs)
    _emit(payload, text, args.json)
    return EXIT_OK


def _cmd_realize(args) -> int:
    ranks = _canonical_ranks(args.ranks, args.dim)
    pset = realize.realize_tff(
        ranks, args.dim, seed=args.seed, tol=args.tol,
        max_restarts=args.max_restarts,
    )
    report = realize.verify_tff(pset, tol=args.tol)
    payload = pset.to_json_dict()
    payload["sum_residual"] = report.sum_residual
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(pset.to_csv() + "\n")
    text = (
        f"realized {list(ranks)} in dimension {args.dim};"
        f" residual {report.sum_residual:.3e}"
    )
    if args.out:
        _emit(payload, text, True, args.out)
    _emit(payload, text, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        pset = realize.ProjectionSet.from_json_dict(json.load(fh))
    alpha = pset.alpha
    if args.alpha is not None:
        alpha = configmat.check_alpha(args.alpha, pset.dim)[0]
    report = realize.verify_tff(pset, alpha=alpha, tol=args.tol)
    payload = {
        "dim": pset.dim,
        "ranks": list(pset.ranks),
        "alpha": str(Fraction(alpha)),
        **asdict(report),
    }
    text = (
        f"sum residual {report.sum_residual:.3e}; "
        f"ranks {list(report.block_ranks)}; "
        + ("pass" if report.passed else "FAIL")
    )
    _emit(payload, text, args.json)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tffcomb",
        description="Tight fusion frame sequences: decide, count, dualize,"
        " enumerate, and realize numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, instance=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        if instance:
            p.add_argument("--dim", type=int, required=True)
            p.add_argument("--ranks", type=_parse_ranks, required=True)
        return p

    def kinds(p, *names):  # one required flag per kind, stored in ``kind``
        group = p.add_mutually_exclusive_group(required=True)
        for kind in names:
            group.add_argument(f"--{kind}", dest="kind", action="store_const",
                               const=kind)

    add("decide", _cmd_decide, True, help="decide tightness of a rank sequence")
    add("count", _cmd_count, True, help="count certificate matrices")

    p = add("certificate", _cmd_certificate, True, help="print one certificate")
    p.add_argument("--out", help="write to file instead of stdout")

    p = add("tableau", _cmd_tableau, help="render the union skew tableau")
    p.add_argument("--dim", type=int)
    p.add_argument("--ranks", type=_parse_ranks)
    p.add_argument("--in", dest="infile", help="certificate JSON file")

    p = add("maximal", _cmd_maximal, help="dominance-maximal tight sequences")
    p.add_argument("--alpha", type=_parse_rational)
    p.add_argument("--dim", type=int)
    p.add_argument("--all", action="store_true",
                   help="all alpha <= 2 cells up to --max-dim")
    p.add_argument("--max-dim", type=int, default=9)
    p.add_argument("--out", help="write to file instead of stdout")

    p = add("enumerate", _cmd_enumerate, help="all tight sequences for (alpha, dim)")
    p.add_argument("--alpha", type=_parse_rational, required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add("dual", _cmd_dual, help="sequence-level dualities")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ranks", type=_parse_ranks)
    p.add_argument("--alpha", type=_parse_rational)
    kinds(p, "spatial", "naimark", "alpha-reduce", "strip")

    p = add("dual-config", _cmd_dual_config, help="certificate-level dualities")
    p.add_argument("--in", dest="infile", required=True,
                   help="certificate JSON file")
    kinds(p, "spatial", "naimark")
    p.add_argument("--out", help="write to file instead of stdout")

    p = add("check-bounds", _cmd_check_bounds, True,
            help="run the necessary-condition filters")
    p.add_argument("--alpha", type=_parse_rational,
                   help="defaults to sum(ranks)/dim")

    p = add("two-proj", _cmd_two_proj,
            help="build two projections with a prescribed sum spectrum")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spectrum", type=_parse_spectrum, required=True,
                   help='eigenvalue:multiplicity list, e.g. "3/2:1,1/2:1"')

    p = add("realize", _cmd_realize, True,
            help="numerically realize a tight sequence")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=realize.DEFAULT_TOL)
    p.add_argument("--max-restarts", type=int, default=realize.DEFAULT_RESTARTS)
    p.add_argument("--out", help="write ProjectionSet JSON to file")
    p.add_argument("--csv", help="also write the concatenated basis as CSV")

    p = add("verify", _cmd_verify, help="verify a ProjectionSet JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=_parse_rational)
    p.add_argument("--tol", type=float, default=realize.DEFAULT_TOL)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TFFCombError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotATFFSequence):
            return EXIT_NEGATIVE
        if isinstance(exc, ConvergenceFailure):
            return EXIT_INTERNAL
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
