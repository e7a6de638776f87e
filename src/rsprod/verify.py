"""Self-check suites runnable from the CLI: invariants of every module at
desk scale, with a fuller tier that adds the larger field and the
exhaustive heavy-parity distances."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, bounds, codec
from .degrees import degree_profile, ref_basis
from .field import FieldCtx
from .linearized import instantiate_standard


# (e, r, k): the full product code at q = 4 and its subcodes, then codes
# with one heavy parity; each dimension is one where the paper proves the
# distance, bounds.exact_distance
SMALL_DISTANCES = tuple((2, 2, k) for k in range(1, 5))
HEAVY_PARITY_DISTANCES = ((2, 2, 3), (3, 2, 3), (2, 3, 8))


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


def _check_fields(e_values, rng, samples: int) -> CheckResult:
    for e in e_values:
        ctx = instantiate_standard(e).ctx
        msg = check_field_axioms(ctx, rng, samples)
        if msg:
            return CheckResult(f"field-axioms(M={ctx.extension_degree})", False, msg)
    return CheckResult(f"field-axioms(e={list(e_values)})", True)


def _check_degree_oracle(e_values) -> CheckResult:
    for e in e_values:
        pair = instantiate_standard(e)
        n = pair.n_frak
        for r in range(1, n + 1):
            prof = degree_profile(n, r)
            got = tuple(len(p) - 1 for p in ref_basis(pair, r))
            if got != prof.D:
                return CheckResult(
                    f"degree-oracle(q={n},r={r})",
                    False,
                    f"row echelon degrees {got} != formula {prof.D}",
                )
    return CheckResult(f"degree-oracle(e={list(e_values)})", True)


def _check_diagram(e_values, rng, per_r: int) -> CheckResult:
    """codec._grid_values, the grid evaluation behind G and encode, against
    s(g(x), f(x)) = sum_{a,b} s[a, b] g(x)^a f(x)^b summed at every point,
    for random s; g and f are evaluated once per pair."""
    for e in e_values:
        pair = instantiate_standard(e)
        ctx = pair.ctx
        n = pair.n_frak
        gx = np.array([pair.g.eval(x) for x in pair.eval_points], dtype=np.int64)
        fx = np.array([pair.f.eval(x) for x in pair.eval_points], dtype=np.int64)
        for r in range(1, n + 1):
            code = codec.build_code(pair, r, 1)
            expo = np.arange(r)[:, None]
            # terms[a, b] holds g^a f^b at every point
            terms = ctx.mul_arr(ctx.pow_arr(gx, expo)[:, None], ctx.pow_arr(fx, expo))
            for _ in range(per_r):
                s = rng.integers(0, ctx.order, size=(r, r))
                left = codec._grid_values(code, s).reshape(-1)
                right = np.bitwise_xor.reduce(ctx.mul_arr(s[:, :, None], terms), axis=(0, 1))
                if not np.array_equal(left, right):
                    return CheckResult(
                        f"diagram(q={n},r={r})",
                        False,
                        "pointwise sum disagrees with bivariate grid",
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


def _check_distances(name: str, cases) -> CheckResult:
    """Exhaustive distances of the (e, r, k) codes against the paper's
    closed form, bounds.exact_distance, at dimensions where it holds."""
    for e, r, k in cases:
        code = codec.build_code(instantiate_standard(e), r, k)
        expected = bounds.exact_distance(code.n_frak, r, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d, _ = analysis.exhaustive_distance(code, budget=code.ctx.order**k)
        if d != expected:
            return CheckResult(
                name,
                False,
                f"q={code.n_frak},r={r},k={k}: exhaustive distance {d}, expected {expected}",
            )
    return CheckResult(name, True)


def _check_peel_consistency(cases, rng, trials: int) -> CheckResult:
    """For each (e, r, k) code: the structural verdict and peel_decode
    against the rank of G on the survivors, on random words and masks of
    t in [0, n^2] cells; then the Fig. 1 and Fig. 2 stopping sets sized past
    the codimension, which must be unrecoverable."""
    qs = ",".join(str(1 << e) for e in dict.fromkeys(e for e, _, _ in cases))
    name = f"peel-consistency(q={qs})"
    for e, r, k in cases:
        code = codec.build_code(instantiate_standard(e), r, k)
        n, n2 = code.n_frak, code.length
        where = f"(q={n},r={r},k={k})"
        for _ in range(trials):
            word = codec.encode(code, rng.integers(0, code.ctx.order, size=k))
            t = int(rng.integers(0, n2 + 1))
            flat = np.zeros(n2, dtype=bool)
            flat[rng.choice(n2, size=t, replace=False)] = True
            mask = analysis.ErasureMask.from_flat(n, flat)
            expect = analysis._rank_recoverable(code, mask)
            if analysis.erasure_recoverable(code, mask) != expect:
                return CheckResult(
                    name, False, f"structural/rank verdict mismatch on a {t}-cell mask {where}"
                )
            res = analysis.peel_decode(code, word, mask)
            if res.ok != expect or (res.ok and not np.array_equal(res.word, word)):
                return CheckResult(name, False, f"decoder/rank mismatch on a {t}-cell mask {where}")
        side = math.isqrt(r * r - k) + 1  # ceil(sqrt(r^2 - k + 1))
        stopping = [analysis.block_margin_mask(n, r, side, side)]
        if k >= r + 1:
            a, b = n - (k - 2) // (r - 1), n - 1 - (k - 2) % (r - 1)
            stopping.append(analysis.strip_margin_mask(n, r, a, b))
        for mask in stopping:
            if (
                mask.count < n2 - k + 1
                or analysis.erasure_recoverable(code, mask)
                or analysis._rank_recoverable(code, mask)
            ):
                return CheckResult(
                    name, False, f"a {mask.count}-cell stopping set {where} is not unrecoverable"
                )
    return CheckResult(name, True)


def run_checks(level: str = "fast", seed: int = 0) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    rng = np.random.default_rng(seed)
    results = [
        _check_fields((1, 2), rng, samples=2000),
        _check_degree_oracle((1, 2)),
        _check_diagram((1, 2), rng, per_r=10),
        _check_pair_structure((1, 2, 3)),
        _check_bound_ordering(((32, 8), (32, 16))),
        _check_distances("distances(q=4,r=2)", SMALL_DISTANCES),
        _check_peel_consistency(((2, 2, 3),), rng, trials=50),
    ]
    if level == "full":
        results.append(_check_degree_oracle((3,)))
        results.append(_check_diagram((3,), rng, per_r=10))
        results.append(_check_distances("heavy-parity-distances", HEAVY_PARITY_DISTANCES))
    return results
