"""Command-line surface: bound sweeps, degree profiles, code construction
and export, distance oracles, erasure simulation, figure data, and the
self-check suites.

Output is byte-identical across runs with the same flags and seed: CSV for
tables (long format for figure curves), JSON with sorted keys elsewhere.
Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from . import analysis, bounds, codec, verify
from .degrees import degree_profile
from .field import MAX_EXTENSION_DEGREE
from .linearized import instantiate_standard

FIGURES = {
    "eg1": (32, 8),
    "eg2a": (32, 16),
    "eg2b": (128, 64),
    "eg3": (32, 25),
}


def _parse_k_range(text: str, r: int) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if not 1 <= lo <= hi <= r * r:
        raise ValueError(f"k range must satisfy 1 <= a <= b <= r^2, got {text}")
    return list(range(lo, hi + 1))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bounds_rows(n: int, r: int, ks) -> list[dict]:
    rows = []
    for rep in bounds.bound_sweep(n, r, ks):
        rows.append(
            {
                "k": rep.k,
                "partial_k": rep.partial_k,
                "rs_degree_lower": rep.rs_degree_lower,
                "lower_opt": rep.lower_opt,
                "lrc_upper": rep.lrc_upper,
                "grid_upper": rep.grid_upper,
                "gridv2_upper": rep.gridv2_upper,
                "exact": rep.exact,
                "witness_a": rep.witness_ab[0],
                "witness_b": rep.witness_ab[1],
                "witness_nr": rep.witness_nrnc[0],
                "witness_nc": rep.witness_nrnc[1],
            }
        )
    return rows


def cmd_bounds(args: argparse.Namespace) -> int:
    ks = _parse_k_range(args.k, args.r)
    rows = _bounds_rows(args.n, args.r, ks)
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    buf = io.StringIO()
    # the csv module writes None as an empty cell
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    prof = degree_profile(args.n, args.r)
    payload = {
        "n": prof.n_frak,
        "r": prof.r,
        "D": list(prof.D),
        "breakpoints": [
            {"t": t, "k": k, "partial": d} for t, k, d in prof.breakpoints
        ],
        "intervals": [list(iv) for iv in prof.intervals],
        "max_degree_exceeds_length": max(prof.D) >= prof.n_frak**2,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _make_code(args: argparse.Namespace):
    pair = instantiate_standard(
        args.q_log,
        c=int(args.c, 16) if args.c else None,
        reduction_poly=int(args.field_poly, 16) if args.field_poly else None,
    )
    return codec.build_code(pair, args.r, args.k)


def cmd_build(args: argparse.Namespace) -> int:
    code = _make_code(args)
    _emit(codec.export_generator_csv(code), args.out)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    code = _make_code(args)
    msg = [int(x, 16) for x in args.msg.split(",")]
    word = codec.encode(code, msg)
    _emit(",".join(format(int(x), "x") for x in word) + "\n", args.out)
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    code = _make_code(args)
    lower, _ = bounds.lower_opt(
        code.n_frak, args.r, args.k, code.profile.partial(args.k)
    )
    payload = {
        "q": code.pair.f.q,
        "n": code.n_frak,
        "r": args.r,
        "k": args.k,
        "lower_bound": lower,
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d, spectrum = analysis.exhaustive_distance(
                code, budget=args.budget, workers=args.threads
            )
        payload.update(
            {
                "method": "exhaustive",
                "distance": d,
                "equals_lower_bound": d == lower,
                "conclusive": True,
            }
        )
        if args.spectrum:
            payload["spectrum"] = {str(w): c for w, c in sorted(spectrum.counts.items())}
    except analysis.BudgetExceeded:
        est = analysis.sampled_distance(code, args.trials, seed=args.seed)
        payload.update(
            {
                "method": "sampled",
                "upper_estimate": est,
                "trials": args.trials,
                "seed": args.seed,
                "conclusive": False,
            }
        )
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _sim_masks(args: argparse.Namespace, n: int, rng: np.random.Generator):
    if args.model == "uniform-p":
        if args.p is None or not 0 <= args.p <= 1:
            raise ValueError("uniform-p requires --p in [0, 1]")
        for _ in range(args.trials):
            yield analysis.ErasureMask(n, rng.random((n, n)) < args.p)
    elif args.model == "random-t-cells":
        if args.t is None or not 0 <= args.t <= n * n:
            raise ValueError("random-t-cells requires --t in [0, n^2]")
        for _ in range(args.trials):
            flat = np.zeros(n * n, dtype=bool)
            flat[rng.choice(n * n, size=args.t, replace=False)] = True
            yield analysis.ErasureMask.from_flat(n, flat)
    elif args.model in ("fig1", "fig2"):
        if args.a is None or args.b is None:
            raise ValueError(f"{args.model} requires --a and --b")
        build = (
            analysis.block_margin_mask if args.model == "fig1" else analysis.strip_margin_mask
        )
        yield build(n, args.r, args.a, args.b)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown model {args.model}")


def cmd_erasure_sim(args: argparse.Namespace) -> int:
    code = _make_code(args)
    rng = np.random.default_rng(args.seed)
    total = 0
    good = 0
    for mask in _sim_masks(args, code.n_frak, rng):
        total += 1
        if analysis.erasure_recoverable(code, mask):
            good += 1
    payload = {
        "q": code.pair.f.q,
        "n": code.n_frak,
        "r": args.r,
        "k": args.k,
        "model": args.model,
        "params": {
            key: getattr(args, key)
            for key in ("p", "t", "a", "b")
            if getattr(args, key) is not None
        },
        "trials": total,
        "seed": args.seed,
        "recoverable": good,
        "rate": good / total,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(args.level, threads=args.threads, seed=args.seed)
    failed = [r for r in results if not r.ok]
    for r in results:
        line = f"[verify] {r.name}: {'PASS' if r.ok else 'FAIL'}"
        if r.detail and not r.ok:
            line += f" ({r.detail})"
        print(line)
    print(f"[verify] {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_figure(args: argparse.Namespace) -> int:
    n, r = FIGURES[args.name]
    rows = _bounds_rows(n, r, range(1, r * r + 1))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "value", "series"])
    for series in ("lower_opt", "grid_upper", "gridv2_upper"):
        for row in rows:
            if row[series] is not None:
                writer.writerow([row["k"], row[series], series])
    _emit(buf.getvalue(), args.out)
    return 0


def _q_log(text: str) -> int:
    """--q-log e, checked before any field is built: GF(2^(2e)) must not
    exceed the largest supported extension degree."""
    e = int(text)
    top = MAX_EXTENSION_DEGREE // 2
    if not 1 <= e <= top:
        raise argparse.ArgumentTypeError(
            f"must be in [1, {top}] (the field GF(2^(2e)) supports 2e <= "
            f"{MAX_EXTENSION_DEGREE}), got {e}"
        )
    return e


def _positive(text: str) -> int:
    """--threads and --trials, checked at parsing: a count of at least 1
    (the worker count is further capped at the CPU count)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_field_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q-log", dest="q_log", type=_q_log, required=True,
                    help="e with q = 2^e; the field is GF(2^(2e))")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--field-poly", dest="field_poly",
                    help="reduction polynomial override, hex bit vector")
    sp.add_argument("--c", help="hex override for the subfield coset representative")
    sp.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsprod",
        description="Subcodes of Reed-Solomon product codes: construction, "
        "bounds, and erasure analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="bound table for a parameter pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", required=True, help="single value or a..b")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("profile", help="degree profile as JSON")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("build", help="construct a code and export its generator")
    _add_field_flags(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("encode", help="encode a message")
    _add_field_flags(sp)
    sp.add_argument("--msg", required=True, help="comma-separated hex symbols")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("distance", help="exhaustive or sampled minimum distance")
    _add_field_flags(sp)
    sp.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    sp.add_argument("--trials", type=_positive, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=_positive, default=os.cpu_count() or 1)
    sp.add_argument("--spectrum", action="store_true", help="include the weight spectrum")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("erasure-sim", help="Monte-Carlo erasure recoverability")
    _add_field_flags(sp)
    sp.add_argument(
        "--model",
        required=True,
        choices=("uniform-p", "random-t-cells", "fig1", "fig2"),
    )
    sp.add_argument("--p", type=float)
    sp.add_argument("--t", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--trials", type=_positive, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_erasure_sim)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--level", choices=("fast", "full"), default="fast")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=_positive, default=os.cpu_count() or 1)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("figure", help="bound curves in long CSV format")
    sp.add_argument("--name", required=True, choices=sorted(FIGURES))
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
