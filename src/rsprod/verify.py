"""Self-check suites runnable from the CLI: invariants of every module at
desk scale, with a fuller tier that adds the larger field and the
exhaustive heavy-parity distances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, bounds, codec
from .degrees import degree_profile, ref_degree_oracle
from .field import FieldCtx, bipoly_eval_many, poly_compose, poly_eval_many
from .linearized import instantiate_standard


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def check_field_axioms(ctx: FieldCtx, rng: np.random.Generator, samples: int = 2000) -> Optional[str]:
    """Associativity, distributivity, and inverse roundtrip on random
    triples; returns a failure description or None."""
    triples = rng.integers(0, ctx.order, size=(samples, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        left = ctx.mul(ctx.mul(a, b), c)
        right = ctx.mul(a, ctx.mul(b, c))
        if left != right:
            return f"field axiom broken: ({a}*{b})*{c} = {left} != {right} = {a}*({b}*{c})"
        if ctx.mul(a, b ^ c) != ctx.mul(a, b) ^ ctx.mul(a, c):
            return f"field axiom broken: {a} does not distribute over {b}+{c}"
        if a:
            try:
                if ctx.mul(a, ctx.inv(a)) != 1:
                    return f"field axiom broken: {a} * inv({a}) != 1"
            except ValueError as exc:
                return f"field axiom broken: inv({a}) failed: {exc}"
    return None


def _check_fields(e_values, rng) -> CheckResult:
    for e in e_values:
        ctx = instantiate_standard(e).ctx
        msg = check_field_axioms(ctx, rng)
        if msg:
            return CheckResult(f"field-axioms(M={ctx.extension_degree})", False, msg)
    return CheckResult(f"field-axioms(e={list(e_values)})", True)


def _check_degree_oracle(e_values) -> CheckResult:
    for e in e_values:
        pair = instantiate_standard(e)
        n = pair.n_frak
        for r in range(1, n + 1):
            prof = degree_profile(n, r)
            got = ref_degree_oracle(pair, r)
            if got != prof.D:
                return CheckResult(
                    f"degree-oracle(q={n},r={r})",
                    False,
                    f"row echelon degrees {got} != formula {prof.D}",
                )
            if len(got) != r * r:
                return CheckResult(
                    f"degree-oracle(q={n},r={r})", False, f"|D| = {len(got)} != r^2"
                )
    return CheckResult(f"degree-oracle(e={list(e_values)})", True)


def _check_diagram(e_values, rng, per_r: int = 10) -> CheckResult:
    for e in e_values:
        pair = instantiate_standard(e)
        ctx = pair.ctx
        n = pair.n_frak
        pts = np.array(pair.eval_points, dtype=np.int64)
        betas = np.repeat(np.array(pair.Zf, dtype=np.int64), n)
        gammas = np.tile(np.array(pair.Zg, dtype=np.int64), n)
        gx, fx = pair.g.to_unipoly(), pair.f.to_unipoly()
        for r in range(1, n + 1):
            for _ in range(per_r):
                s = rng.integers(0, ctx.order, size=(r, r))
                left = bipoly_eval_many(ctx, s, betas, gammas)
                right = poly_eval_many(ctx, poly_compose(ctx, s, gx, fx), pts)
                if not np.array_equal(left, right):
                    return CheckResult(
                        f"diagram(q={n},r={r})",
                        False,
                        "composed univariate evaluation disagrees with bivariate grid",
                    )
    return CheckResult(f"diagram(e={list(e_values)})", True)


def _check_pair_structure(e_values) -> CheckResult:
    for e in e_values:
        pair = instantiate_standard(e)
        n = pair.n_frak
        if len(set(pair.eval_points)) != n * n:
            return CheckResult(f"pair(q={n})", False, "evaluation points collide")
        for i, beta in enumerate(pair.Zf):
            for j, gamma in enumerate(pair.Zg):
                alpha = pair.eval_points[i * n + j]
                if pair.g.eval(alpha) != beta or pair.f.eval(alpha) != gamma:
                    return CheckResult(
                        f"pair(q={n})",
                        False,
                        f"projection failed at ({beta},{gamma})",
                    )
        for space in (pair.Zf, pair.Zg):
            members = set(space)
            for a in space:
                for b in space:
                    if a ^ b not in members:
                        return CheckResult(
                            f"pair(q={n})", False, "root space not closed under addition"
                        )
    return CheckResult(f"pair-structure(e={list(e_values)})", True)


def _check_bound_ordering(params) -> CheckResult:
    for n, r in params:
        delta = n - r + 1
        reports = bounds.bound_sweep(n, r, range(1, r * r + 1))
        for rep in reports:
            uppers = [rep.grid_upper, rep.lrc_upper]
            if rep.gridv2_upper is not None:
                uppers.append(rep.gridv2_upper)
            if not (rep.rs_degree_lower <= rep.lower_opt <= min(uppers)):
                return CheckResult(
                    f"bounds(n={n},r={r})",
                    False,
                    f"ordering violated at k={rep.k}: "
                    f"{rep.rs_degree_lower} <= {rep.lower_opt} <= {min(uppers)}",
                )
        if reports[-1].lower_opt != delta * delta:
            return CheckResult(
                f"bounds(n={n},r={r})", False, "endpoint k=r^2 is not delta^2"
            )
    return CheckResult(f"bounds{list(params)}", True)


def _check_small_distances() -> CheckResult:
    pair = instantiate_standard(2)
    expected = [16, 15, 12, 9]
    for k in range(1, 5):
        code = codec.build_code(pair, 2, k)
        d, _ = analysis.exhaustive_distance(code)
        if d != expected[k - 1]:
            return CheckResult(
                "distances(q=4,r=2)", False, f"d_{k} = {d}, expected {expected[k - 1]}"
            )
    return CheckResult("distances(q=4,r=2)", True)


def _check_peel_consistency(rng, trials: int = 50) -> CheckResult:
    pair = instantiate_standard(2)
    code = codec.build_code(pair, 2, 3)
    n2 = code.length
    for _ in range(trials):
        msg = rng.integers(0, 16, size=3)
        word = codec.encode(code, msg)
        t = int(rng.integers(0, n2))
        cells = rng.choice(n2, size=t, replace=False)
        flat = np.zeros(n2, dtype=bool)
        flat[cells] = True
        mask = analysis.ErasureMask.from_flat(4, flat)
        expect = analysis._rank_recoverable(code, mask)
        if analysis.erasure_recoverable(code, mask) != expect:
            return CheckResult(
                "peel-consistency(q=4)",
                False,
                f"structural/rank verdict mismatch on a {t}-cell mask",
            )
        res = analysis.peel_decode(code, word, mask)
        if res.ok != expect or (res.ok and not np.array_equal(res.word, word)):
            return CheckResult(
                "peel-consistency(q=4)",
                False,
                f"decoder/rank mismatch on a {t}-cell mask",
            )
    return CheckResult("peel-consistency(q=4)", True)


def _check_heavy_parity_distances(threads: int) -> CheckResult:
    cases = [
        (2, 2, 3, 12, 1 << 28),
        (3, 2, 3, 56, 1 << 28),
        (2, 3, 8, 6, 1 << 32),
    ]
    for e, r, k, expected, budget in cases:
        pair = instantiate_standard(e)
        code = codec.build_code(pair, r, k)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d, _ = analysis.exhaustive_distance(code, budget=budget, workers=threads)
        if d != expected:
            return CheckResult(
                f"heavy-parity(q={pair.n_frak},r={r},k={k})",
                False,
                f"exhaustive distance {d}, expected {expected}",
            )
    return CheckResult("heavy-parity-distances", True)


def run_checks(level: str = "fast", threads: int = 1, seed: int = 0) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    rng = np.random.default_rng(seed)
    results = [
        _check_fields((1, 2), rng),
        _check_degree_oracle((1, 2)),
        _check_diagram((1, 2), rng),
        _check_pair_structure((1, 2, 3)),
        _check_bound_ordering(((32, 8), (32, 16))),
        _check_small_distances(),
        _check_peel_consistency(rng),
    ]
    if level == "full":
        results.append(_check_degree_oracle((3,)))
        results.append(_check_diagram((3,), rng))
        results.append(_check_heavy_parity_distances(threads))
    return results
