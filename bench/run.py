"""Benchmark for rsprod: exhaustive distances and erasure oracles.

Run from anywhere inside a checkout that has ``src/rsprod``:

    python3 bench/run.py --workload exact-distance --seed 1 --seconds 35 --trace 0

Workloads (closed loop: one process issues the next call only after the
previous one returned; enumeration uses at most two worker processes):

* ``exact-distance``: ``exhaustive_distance`` at (q=4, r=3, k=7), 2^28
  codewords on the packed-uint64 path, and at (q=8, r=3, k=4), 2^24
  codewords on the unpacked-uint8 path.  Each round also decodes a few
  random (d-1)-erasure patterns of both codes, which a code of distance d
  must always recover.
* ``erasure-sparse``: q-log 5 (n=32), r=16, k=240 with uniform masks at
  p=0.15: every mask is repaired by local peeling, and the rank oracle and
  set-up dominate.
* ``erasure-dense``: q-log 4 (n=16), r=12, k=132 with uniform masks at
  p=0.45 plus the Fig. 1 and Fig. 2 stopping sets: peeling always falls back
  to the global solve.

Every input is drawn from ``--seed``; round j of a run uses the generator
seeded with (seed, j), so a run's inputs do not depend on its speed.  Every
answer is checked against an oracle, and failures and exceptions count
into ``failed``.  With ``--trace 0`` the run measures for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number
of rounds untraced and again traced, and reports per-layer metrics from the
spans.  A human-readable report goes to stderr, a record with the machine
and the parameters to ``bench/out/``, and the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKERS = min(2, os.cpu_count() or 1)
# set-up is repeated at least this often and for at least this long
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0

# (label, q_log, r, k, sha256 of the "weight:count" spectrum)
EXACT_CASES = (
    ("packed", 2, 3, 7, "771cd7cf302ab73d1f50eb4736f60d54fb744214249e91956d8a0824acb619cd"),
    ("unpacked", 3, 3, 4, "f5342709aff7918c40e6c7aa901e240a08d5d72d58312b5c1bbc7f626b36224d"),
)
PROBES_PER_CASE = 32

ERASURE = {
    "erasure-sparse": {
        "q_log": 5, "r": 16, "k": 240, "p": 0.15,
        "masks_per_round": 2, "encode_reps": 8, "stopping_sets": False,
    },
    "erasure-dense": {
        "q_log": 4, "r": 12, "k": 132, "p": 0.45,
        "masks_per_round": 16, "encode_reps": 16, "stopping_sets": True,
    },
}

# rough seconds per round on two cores; only sizes the traced run, whose
# round count must not depend on speed so that its counts repeat exactly
NOMINAL_ROUND_S = {"exact-distance": 3.5, "erasure-sparse": 2.0, "erasure-dense": 1.2}

# name -> (unit, computed rather than measured)
E2E_UNITS = {
    "setup_s": ("s", False),
    "codewords_per_s": ("1/s", False),
    "verdicts_per_s": ("1/s", False),
    "decodes_per_s": ("1/s", False),
    "peak_rss_mb": ("MB", False),
}

LAYER_UNITS = {
    "field.mul_arr.calls": ("count", False),
    "field.mul_arr.elems": ("count", True),
    "field.mul_arr.self_s": ("s", False),
    "field.mat_rref.calls": ("count", False),
    "field.mat_rref.cells": ("count", True),
    "field.mat_rref.self_s": ("s", False),
    "field.poly_eval_many.self_s": ("s", False),
    "field.poly_divmod.calls": ("count", False),
    "field.poly_divmod.self_s": ("s", False),
    "field.poly_from_roots.calls": ("count", False),
    "field.poly_from_roots.self_s": ("s", False),
    "linearized.instantiate_standard.s": ("s", False),
    "degrees.ref_basis.s": ("s", False),
    "degrees.ref_basis.cells": ("count", True),
    "codec.build_code.self_s": ("s", False),
    "codec.build_code.point_evals": ("count", True),
    "codec.encode.calls": ("count", False),
    "codec.encode.self_s": ("s", False),
    "bounds.lower_opt.s": ("s", False),
    "bounds.exact_distance.s": ("s", False),
    "analysis.exhaustive_distance.packed.s": ("s", False),
    "analysis.exhaustive_distance.packed.codewords": ("count", True),
    "analysis.exhaustive_distance.unpacked.s": ("s", False),
    "analysis.exhaustive_distance.unpacked.codewords": ("count", True),
    "analysis.enum.serial_codewords_per_s": ("1/s", False),
    "analysis.enum.scaling_eff": ("ratio", False),
    "analysis.erasure_recoverable.calls": ("count", False),
    "analysis.erasure_recoverable.self_s": ("s", False),
    "analysis.erasure_recoverable.ms_p50": ("ms", False),
    "analysis.peel_decode.calls": ("count", False),
    "analysis.peel_decode.self_s": ("s", False),
    "analysis.peel_decode.ms_p50": ("ms", False),
    "analysis.peel_decode.global_share": ("ratio", False),
    "analysis.peel_decode.local_share": ("ratio", False),
    "analysis.erasure.recoverable_share": ("ratio", False),
    "analysis.erasure.erased_mean": ("count", False),
    "trace.overhead_s": ("s", False),
    "trace.overhead_frac": ("ratio", False),
    "failed_frac": ("ratio", False),
}


def import_rsprod():
    """The package from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "rsprod" / "__init__.py").is_file():
        sys.exit(f"bench: no rsprod sources under {src}")
    sys.path.insert(0, str(src))
    import rsprod

    if Path(rsprod.__file__).resolve().parent != src / "rsprod":
        sys.exit(f"bench: imported rsprod from {rsprod.__file__}, not from {src}")
    return rsprod


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Checked operations; a wrong answer or an exception is a failure."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass
class Round:
    """Timed work and outcomes of one round."""

    # pass name -> [operations, seconds spent in library calls]
    work: dict = field(default_factory=dict)
    # (erased cells, verdict, used the global solve) per random mask
    outcomes: list = field(default_factory=list)

    def add(self, name: str, ops: int, seconds: float) -> None:
        w = self.work.setdefault(name, [0, 0.0])
        w[0] += ops
        w[1] += seconds

    def busy_s(self) -> float:
        return sum(s for _, s in self.work.values())


def call(fn, *args, **kwargs):
    """(result, seconds, error) of one library call."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by the caller
        return None, time.perf_counter() - t0, repr(exc)
    return out, time.perf_counter() - t0, None


def spectrum_digest(spectrum) -> str:
    text = ",".join(f"{w}:{c}" for w, c in sorted(spectrum.counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def guaranteed_distance(rs, code) -> int:
    """Largest proven lower bound on the distance of the code."""
    n = code.n_frak
    low, _ = rs.lower_opt(n, code.r, code.k, code.profile.partial(code.k))
    exact = rs.exact_distance(n, code.r, code.k)
    return max(low, exact or 0)


def erasure_passes(rs, code, masks, msgs, expect, rnd, tally, first_random) -> list:
    """Rank verdicts on every mask, then encode + peel_decode on the same
    masks in a separately timed pass.  ``expect[i]`` is the verdict the
    mask must get, or None when only the decoder can tell; masks from
    ``first_random`` on are random and their outcomes are recorded.
    Returns the encoded words."""
    verdicts = []
    for mask, want in zip(masks, expect):
        v, dt, err = call(rs.erasure_recoverable, code, mask)
        rnd.add("verdicts", 1, dt)
        verdicts.append(v)
        tally.record(
            err is None and (want is None or v == want),
            f"verdict {v} (expected {want}) on {mask.count} erasures {err or ''}",
        )
    words = []
    for i, (mask, msg, v) in enumerate(zip(masks, msgs, verdicts)):
        t0 = time.perf_counter()
        try:
            word = rs.encode(code, msg)
            res = rs.peel_decode(code, word, mask)
            err = None
        except Exception as exc:  # counted as a failed operation
            word, res, err = None, None, repr(exc)
        rnd.add("decodes", 1, time.perf_counter() - t0)
        words.append(word)
        ok = (
            err is None
            and res.ok == v
            and (not res.ok or np.array_equal(res.word, word))
        )
        tally.record(ok, f"decode ok={getattr(res, 'ok', None)} verdict={v} {err or ''}")
        if i >= first_random and res is not None:
            rnd.outcomes.append((mask.count, bool(v), bool(res.used_global)))
    return words


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class ExactDistance:
    """Both enumeration paths; the (d-1)-erasure probes keep the verdict
    and decode rates defined here while costing little next to them."""

    name = "exact-distance"

    def __init__(self, rs):
        self.rs = rs

    def params(self) -> dict:
        return {
            "cases": [
                {"label": lab, "q_log": e, "r": r, "k": k} for lab, e, r, k, _ in EXACT_CASES
            ],
            "workers": WORKERS,
            "probes_per_case": PROBES_PER_CASE,
        }

    def setup(self):
        rs = self.rs
        return [rs.build_code(rs.instantiate_standard(e), r, k) for _, e, r, k, _ in EXACT_CASES]

    def enumerate_case(self, code, case, tally, workers, rnd=None) -> float:
        rs = self.rs
        label, _, r, k, digest = case
        size = code.ctx.order ** k
        out, dt, err = call(rs.exhaustive_distance, code, workers=workers)
        ok = err is None
        if ok:
            d, spectrum = out
            expect = rs.exact_distance(code.n_frak, r, k)
            low, _ = rs.lower_opt(code.n_frak, r, k, code.profile.partial(k))
            ok = (
                d == expect
                and d >= low
                and spectrum.total == size
                and spectrum_digest(spectrum) == digest
            )
        tally.record(ok, f"{label} enumeration with {workers} workers {err or ''}")
        if rnd is not None:
            rnd.add("codewords", size, dt)
        return dt

    def round(self, codes, rng, tally) -> Round:
        rnd = Round()
        for code, case in zip(codes, EXACT_CASES):
            self.enumerate_case(code, case, tally, WORKERS, rnd)
        for code in codes:
            d = guaranteed_distance(self.rs, code)
            masks, msgs = [], []
            for _ in range(PROBES_PER_CASE):
                flat = np.zeros(code.length, dtype=bool)
                flat[rng.choice(code.length, size=d - 1, replace=False)] = True
                masks.append(self.rs.ErasureMask.from_flat(code.n_frak, flat))
                msgs.append(rng.integers(0, code.ctx.order, size=code.k))
            erasure_passes(self.rs, code, masks, msgs, [True] * len(masks), rnd, tally, 0)
        return rnd


class Erasure:
    """Uniform-p masks, and optionally the paper's two stopping sets as
    must-fail probes, sized as in acceptance criterion 8."""

    def __init__(self, rs, name):
        self.rs = rs
        self.name = name
        self.spec = ERASURE[name]

    def params(self) -> dict:
        return dict(self.spec)

    def setup(self):
        s = self.spec
        return [self.rs.build_code(self.rs.instantiate_standard(s["q_log"]), s["r"], s["k"])]

    def stopping_sets(self, code) -> list:
        n, r, k = code.n_frak, code.r, code.k
        a = b = int(np.ceil(np.sqrt(r * r - k + 1)))
        fig1 = self.rs.block_margin_mask(n, r, a, b)
        a2 = n - (k - 2) // (r - 1)
        b2 = n - 1 - ((k - 2) % (r - 1))
        fig2 = self.rs.strip_margin_mask(n, r, a2, b2)
        return [fig1, fig2]

    def round(self, codes, rng, tally) -> Round:
        rs, s = self.rs, self.spec
        (code,) = codes
        rnd = Round()
        d = guaranteed_distance(rs, code)
        probes = self.stopping_sets(code) if s["stopping_sets"] else []
        uniform = [
            rs.ErasureMask.from_flat(code.n_frak, rng.random(code.length) < s["p"])
            for _ in range(s["masks_per_round"])
        ]
        masks = probes + uniform
        msgs = [rng.integers(0, code.ctx.order, size=code.k) for _ in masks]
        expect = [False] * len(probes) + [True if m.count < d else None for m in uniform]
        words = erasure_passes(rs, code, masks, msgs, expect, rnd, tally, len(probes))
        for _ in range(s["encode_reps"]):
            for msg, sent in zip(msgs, words):
                word, dt, err = call(rs.encode, code, msg)
                rnd.add("codewords", 1, dt)
                tally.record(
                    err is None and sent is not None and np.array_equal(word, sent),
                    f"encode disagrees with the decode pass {err or ''}",
                )
        return rnd


def make_workload(rs, name):
    return ExactDistance(rs) if name == "exact-distance" else Erasure(rs, name)


# ---------------------------------------------------------------------------
# Phases and metrics
# ---------------------------------------------------------------------------


def run_setup(workload):
    """Median seconds of instantiate_standard + build_code over repeated
    fresh set-ups (each builds its own field, so the lazy log tables
    count)."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        codes = workload.setup()
        times.append(time.perf_counter() - t0)
    return codes, statistics.median(times), times


def run_rounds(workload, codes, seed, tally, seconds=None, count=None) -> list:
    """Rounds 0, 1, ... until ``seconds`` have passed (at least one round)
    or exactly ``count`` rounds."""
    rounds = []
    start = time.perf_counter()
    j = 0
    while True:
        if count is not None and j >= count:
            break
        if seconds is not None and j and time.perf_counter() - start >= seconds:
            break
        rng = np.random.default_rng([seed, j])
        rounds.append(workload.round(codes, rng, tally))
        j += 1
    return rounds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def pooled_rate(rounds: list, name: str) -> float:
    """The pass's operations over all rounds per second spent in them."""
    return sum(r.work[name][0] for r in rounds) / sum(r.work[name][1] for r in rounds)


def e2e_metrics(setup_s: float, rounds: list) -> dict:
    return {
        "setup_s": setup_s,
        "codewords_per_s": pooled_rate(rounds, "codewords"),
        "verdicts_per_s": pooled_rate(rounds, "verdicts"),
        "decodes_per_s": pooled_rate(rounds, "decodes"),
        "peak_rss_mb": peak_rss_mb(),
    }


def enumeration_baseline(workload, codes, tally) -> dict:
    """Each exact case timed whole from this process, with the worker
    pool and serially; the rates give the scaling efficiency."""
    if not isinstance(workload, ExactDistance):
        workload = ExactDistance(workload.rs)
        codes = workload.setup()
    out = {}
    par_s = ser_s = 0.0
    total = 0
    for code, case in zip(codes, EXACT_CASES):
        label = case[0]
        size = code.ctx.order ** code.k
        dt = workload.enumerate_case(code, case, tally, WORKERS)
        ser_s += workload.enumerate_case(code, case, tally, 1)
        par_s += dt
        total += size
        out[f"analysis.exhaustive_distance.{label}.s"] = dt
        out[f"analysis.exhaustive_distance.{label}.codewords"] = size
    serial_rate = total / ser_s
    out["analysis.enum.serial_codewords_per_s"] = serial_rate
    out["analysis.enum.scaling_eff"] = total / par_s / (WORKERS * serial_rate)
    return out


# metric suffix -> span summary key, for metrics named <span>.<suffix>
SPAN_KEYS = {
    "calls": "calls", "s": "s", "self_s": "self_s", "ms_p50": "ms_p50",
    "elems": "work", "cells": "work", "point_evals": "work",
}


def layer_metrics(summary: dict, rounds: list) -> dict:
    """Span totals for every metric named after a traced function, and the
    outcome shares over the random masks."""
    out = {}
    for name in LAYER_UNITS:
        span, _, suffix = name.rpartition(".")
        if span in summary and suffix in SPAN_KEYS:
            out[name] = summary[span][SPAN_KEYS[suffix]]
    outcomes = [o for r in rounds for o in r.outcomes]
    n = max(len(outcomes), 1)
    out["analysis.peel_decode.global_share"] = sum(g for _, _, g in outcomes) / n
    out["analysis.peel_decode.local_share"] = sum(not g for _, _, g in outcomes) / n
    out["analysis.erasure.recoverable_share"] = sum(v for _, v, _ in outcomes) / n
    out["analysis.erasure.erased_mean"] = sum(c for c, _, _ in outcomes) / n
    return out


# ---------------------------------------------------------------------------
# Machine record and output
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def report(title: str, metrics: dict, units: dict) -> None:
    print(title, file=sys.stderr)
    for name, value in metrics.items():
        unit, computed = units[name]
        label = "  (computed)" if computed else ""
        print(f"  {name:<50} {value:>18.6g} {unit}{label}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("exact-distance", *ERASURE)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    rs = import_rsprod()
    workload = make_workload(rs, args.workload)
    tally = Tally()
    record = {
        "workload": args.workload,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
    }

    codes, setup_s, setup_times = run_setup(workload)
    record["setup_times_s"] = setup_times
    if args.trace == 0:
        rounds = run_rounds(workload, codes, args.seed, tally, seconds=args.seconds)
        metrics = e2e_metrics(setup_s, rounds)
        units = E2E_UNITS
        record["rounds"] = len(rounds)
        record["round_rates"] = {
            name: [r.work[name][0] / r.work[name][1] for r in rounds] for name in rounds[0].work
        }
    else:
        from tracer import Tracer

        count = max(1, round(args.seconds / 2 / NOMINAL_ROUND_S[args.workload]))
        tracer = Tracer()
        with tracer.patched(rs):
            t0 = time.perf_counter()
            codes = workload.setup()
            traced_setup_s = time.perf_counter() - t0
            traced = run_rounds(workload, codes, args.seed, tally, count=count)
        # the untraced reference runs second, so that both see the heap the
        # span arrays left behind (forked enumeration workers inherit it)
        plain = run_rounds(workload, codes, args.seed, tally, count=count)
        e2e = e2e_metrics(setup_s, plain)
        report(f"[{args.workload}] end-to-end, untraced reference ({count} rounds)", e2e, E2E_UNITS)
        metrics = layer_metrics(tracer.summary(), traced)
        metrics.update(enumeration_baseline(workload, codes, tally))
        plain_s = setup_s + sum(r.busy_s() for r in plain)
        traced_s = traced_setup_s + sum(r.busy_s() for r in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
        record["rounds"] = count
        record["spans"] = len(tracer.start)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{args.workload}.npz")

    report(f"[{args.workload}] {'per-layer (traced)' if args.trace else 'end-to-end'}", metrics, units)
    correct = tally.failed == 0
    print(
        f"[{args.workload}] correct={correct} attempted={tally.attempted} "
        f"failed={tally.failed} failed_frac={tally.failed / max(tally.attempted, 1):.6g}",
        file=sys.stderr,
    )
    for err in tally.errors:
        print(f"  failure: {err}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }
    record.update(result)
    record["computed_counts"] = sorted(n for n in metrics if units[n][1])
    record["errors"] = tally.errors
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
