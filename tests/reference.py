"""Reference implementations that the tests hold the package to: Horner
evaluation, formal derivatives, the composition s(g(x), f(x)) into a
univariate polynomial, Lagrange interpolation, the Horner-built generator
and the univariate double-root check for the tensor-form code, the paper's
explicit basis of the product span, the full 2-D scan for the grid bound,
the enumeration of a whole span for the one-slice spectra, the sampled
estimate through G, the MacWilliams identity term by term, and the parity
checks by elimination of the generator with the parity-check solve of an
erasure core.

Polynomials are int64 coefficient arrays, lowest degree first, as in
``rsprod.field``.  Everything here is slow and written for clarity.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from rsprod.codec import build_code, encode
from rsprod.degrees import ref_basis
from rsprod.field import (
    ZERO_POLY,
    FieldCtx,
    mat_mul,
    mat_nullspace,
    mat_solve,
    poly_divmod,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
    poly_trim,
)


def poly(coeffs: Sequence[int]) -> np.ndarray:
    return poly_trim(np.array(list(coeffs), dtype=np.int64))


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] ^= b
    return poly_trim(out)


def poly_scale(ctx: FieldCtx, p: np.ndarray, s: int) -> np.ndarray:
    if s == 0 or len(p) == 0:
        return ZERO_POLY.copy()
    return ctx.mul_arr(p, s)


def poly_compose(ctx: FieldCtx, outer: np.ndarray, gx: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Expand outer(g(x), f(x)) into a univariate polynomial.

    ``outer[i, j]`` is the coefficient of x^i y^j; x is substituted by
    ``gx`` and y by ``fx``.
    """
    outer = np.asarray(outer, dtype=np.int64)
    r1, r2 = outer.shape
    f_pows = [np.ones(1, dtype=np.int64)]
    for _ in range(r2 - 1):
        f_pows.append(poly_mul(ctx, f_pows[-1], fx))
    acc = ZERO_POLY.copy()
    for i in range(r1 - 1, -1, -1):
        inner = ZERO_POLY.copy()
        for j in range(r2):
            if outer[i, j]:
                inner = poly_add(inner, poly_scale(ctx, f_pows[j], int(outer[i, j])))
        acc = poly_add(poly_mul(ctx, acc, gx), inner)
    return acc


def poly_eval(ctx: FieldCtx, p: np.ndarray, x: int) -> int:
    """Horner evaluation at a single point, in scalar arithmetic."""
    acc = 0
    for c in p[::-1]:
        acc = ctx.mul(acc, x) ^ int(c)
    return acc


def poly_deriv(p: np.ndarray) -> np.ndarray:
    """Formal derivative; in characteristic 2 only odd-degree terms survive."""
    if len(p) <= 1:
        return ZERO_POLY.copy()
    d = p[1:].copy()
    d[1::2] = 0
    return poly_trim(d)


@functools.lru_cache(maxsize=32)
def interp_matrix(ctx: FieldCtx, points: tuple[int, ...]) -> np.ndarray:
    """Lagrange interpolation as a matrix: coefficient vector (lowest
    degree first) = values @ L, built from barycentric weights."""
    ann = poly_from_roots(ctx, points)
    n = len(points)
    mat = np.zeros((n, n), dtype=np.int64)
    for m, x_m in enumerate(points):
        quot, rem = poly_divmod(ctx, ann, np.array([x_m, 1], dtype=np.int64))
        assert not len(rem), "annihilator must vanish at its own roots"
        w = ctx.inv(poly_eval(ctx, quot, x_m))
        mat[m, : len(quot)] = ctx.mul_arr(quot, w)
    return mat


def interpolate(ctx: FieldCtx, points: Sequence[int], values) -> np.ndarray:
    """Coefficients (lowest first, untrimmed length n) of the unique
    degree < n polynomial through the given points."""
    lm = interp_matrix(ctx, tuple(points))
    v = np.asarray(values, dtype=np.int64)
    return np.bitwise_xor.reduce(ctx.mul_arr(lm, v[:, None]), axis=0)


def horner_generator(pair, basis_polys) -> np.ndarray:
    """G by Horner evaluation of every basis polynomial on the sum points."""
    pts = np.array(pair.eval_points, dtype=np.int64)
    g = np.zeros((len(basis_polys), len(pts)), dtype=np.int64)
    for i, p in enumerate(basis_polys):
        g[i] = poly_eval_many(pair.ctx, p, pts)
    return g


@functools.lru_cache(maxsize=16)
def basis(pair, r: int) -> tuple[np.ndarray, ...]:
    """The echelon basis polynomials of the product span, cached per code
    family."""
    return tuple(ref_basis(pair, r))


def encoded_poly(code, msg) -> np.ndarray:
    """h = sum_l msg[l] basis_l, the univariate polynomial of a codeword."""
    h = ZERO_POLY.copy()
    for coeff, b in zip(msg, basis(code.pair, code.r)):
        h = poly_add(h, poly_scale(code.ctx, b, int(coeff)))
    return h


_SYNTHETIC_DIV_MAX_DEG = 1 << 10


def univariate_double_root_check(code, msg) -> bool:
    """At every crossing of a zero grid-row and a zero grid-column, h must
    vanish to order at least two: h and h' are evaluated there by Horner,
    and up to degree 2^10 the root is confirmed by two synthetic
    divisions."""
    if not any(msg):
        raise ValueError("message must be nonzero")
    ctx = code.ctx
    h = encoded_poly(code, msg)
    grid = encode(code, msg).reshape(code.n_frak, code.n_frak)
    zero_rows = [i for i in range(code.n_frak) if not grid[i].any()]
    zero_cols = [j for j in range(code.n_frak) if not grid[:, j].any()]
    hp = poly_deriv(h)
    confirm = len(h) - 1 <= _SYNTHETIC_DIV_MAX_DEG
    for i in zero_rows:
        for j in zero_cols:
            alpha = code.pair.Zf[i] ^ code.pair.Zg[j]
            if poly_eval(ctx, h, alpha) != 0 or poly_eval(ctx, hp, alpha) != 0:
                return False
            if confirm:
                lin = np.array([alpha, 1], dtype=np.int64)
                q1, r1 = poly_divmod(ctx, h, lin)
                _, r2 = poly_divmod(ctx, q1, lin)
                if len(r1) or len(r2):
                    return False
    return True


def explicit_basis(r: int) -> np.ndarray:
    """The paper's basis of the product span as 0/1 coefficient matrices in
    the products g^a f^b, (r^2, r, r), ascending by degree: for t < 2r - 1
    and l <= r - 1 - ceil(t/2), x^l g^(t mod 2) (gf)^floor(t/2), of degree
    tn + l.  Since x = f + g, x^l = sum g^m f^(l - m) over the bitwise
    subsets m of l in characteristic 2 (Lucas), so row (t, l) has a 1 at
    (m + ceil(t/2), l - m + floor(t/2)) for each such m, all on the
    anti-diagonal a + b = t + l.  No elimination and no polynomial product
    is involved, and the rows do not depend on the pair."""
    rows = []
    for t in range(2 * r - 1):
        for ell in range(r - (t + 1) // 2):
            s = np.zeros((r, r), dtype=np.int64)
            for m in range(ell + 1):
                if m & ell == m:
                    s[m + (t + 1) // 2, ell - m + t // 2] = 1
            rows.append(s)
    return np.array(rows)


def grid_upper_scan(n: int, r: int, k: int) -> tuple[int, tuple[int, int]]:
    """The grid bound by a scan of all (a, b) in [0, r]^2: the value and the
    row-major first minimizer among a*b >= r^2 - k + 1."""
    need = r * r - k + 1
    side = np.arange(r + 1, dtype=np.int64)
    vals = np.outer(side + n - r, side + n - r)
    vals = np.where(np.outer(side, side) >= need, vals, vals.max() + 1)
    a, b = divmod(int(np.argmin(vals)), r + 1)
    return int(vals[a, b]), (a, b)


_SPECTRUM_CHUNK = 1 << 14


def full_spectrum(ctx: FieldCtx, rows) -> dict[int, int]:
    """Weight spectrum {w: A_w}, ascending, of the span of ``rows``: all
    |F|^len(rows) messages, a chunk at a time, are multiplied by the rows
    and the nonzero symbols of each product counted."""
    rows = np.asarray(rows, dtype=np.int64)
    q, total = ctx.order, ctx.order ** len(rows)
    places = q ** np.arange(len(rows), dtype=np.int64)
    counts = np.zeros(rows.shape[1] + 1, dtype=np.int64)
    for lo in range(0, total, _SPECTRUM_CHUNK):
        index = np.arange(lo, min(lo + _SPECTRUM_CHUNK, total), dtype=np.int64)
        words = mat_mul(ctx, index[:, None] // places % q, rows)
        counts += np.bincount(np.count_nonzero(words, axis=1), minlength=len(counts))
    return {w: int(c) for w, c in enumerate(counts) if c}


def sampled_distance(code, trials: int, seed: int = 0) -> int:
    """The sampled upper estimate as m . G: the same batches of 2^14 random
    messages, zero messages dropped, each batch multiplied by the whole
    generator."""
    rng = np.random.default_rng(seed)
    best = code.length
    done = 0
    while done < trials:
        batch = min(trials - done, 1 << 14)
        msgs = rng.integers(0, code.ctx.order, size=(batch, code.k), dtype=np.int64)
        msgs = msgs[np.any(msgs != 0, axis=1)]
        if len(msgs):
            words = mat_mul(code.ctx, msgs, code.G)
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
        done += len(msgs)
    return best


def macwilliams_transform(counts: dict[int, int], n: int, q: int) -> dict[int, int]:
    """Weight distribution of the dual code, by the MacWilliams identity
    with every Krawtchouk value summed from its binomial terms."""
    size = sum(counts.values())
    out: dict[int, int] = {}
    for i in range(n + 1):
        acc = 0
        for w, a_w in counts.items():
            if not a_w:
                continue
            k_i = 0
            for j in range(min(i, w) + 1):
                term = math.comb(w, j) * math.comb(n - w, i - j) * (q - 1) ** (i - j)
                k_i += -term if j & 1 else term
            acc += a_w * k_i
        val, rem = divmod(acc, size)
        assert not rem, "transform did not divide evenly"
        if val:
            out[i] = val
    return out


def reference_H(code) -> np.ndarray:
    """Parity checks as the null space of the generator, by elimination of
    G: the oracle for the closed-form CodeInstance.H.  Kept per code
    parameters, since at n = 32 the elimination takes about a second."""
    return _generator_nullspace(code.pair, code.r, code.k)


@functools.lru_cache(maxsize=8)
def _generator_nullspace(pair, r: int, k: int) -> np.ndarray:
    return mat_nullspace(pair.ctx, build_code(pair, r, k).G)


def parity_check_solve(code, core, values=None):
    """The cells of a bool erasure core from the cells outside it, through
    the dense parity checks of reference_H: ``H[:, core] x = H[:, ~core] y``,
    with y zero when ``values`` is None.  Returns mat_solve's status and,
    when it is "unique" and values were given, the completed flat word."""
    ctx, core = code.ctx, core.reshape(-1)
    known = ~core
    y = np.zeros(int(known.sum()), dtype=np.int64) if values is None else values[known]
    h = reference_H(code)
    status, x = mat_solve(ctx, h[:, core], mat_mul(ctx, h[:, known], y[:, None])[:, 0])
    if status != "unique" or values is None:
        return status, None
    word = np.array(values, dtype=np.int64)
    word[core] = x
    return status, word


def row_reduce(ctx: FieldCtx, mat: np.ndarray, full: bool) -> list[int]:
    """The elimination loop that field._row_reduce replaced, unchanged: the
    same pivot policy, in place, returning the pivot columns, with the
    pivot and the rows to clear found by separate scans and the swap and
    the update through fancy indexing."""
    exp, log = ctx._tables()
    nrows, ncols = mat.shape
    pivots: list[int] = []
    for col in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        nz = np.flatnonzero(mat[pr:, col])
        if len(nz) == 0:
            continue
        row = pr + int(nz[0])
        if row != pr:
            mat[[pr, row]] = mat[[row, pr]]
        # the pivot row is zero left of col, so only columns col.. change;
        # dividing by the pivot p adds (q - 1) - log p to the logarithms
        prow = exp[log[mat[pr, col:]] + (ctx.order - 1 - log[mat[pr, col]])]
        mat[pr, col:] = prow
        if full:
            others = np.flatnonzero(mat[:, col])
            others = others[others != pr]
        else:
            others = pr + 1 + np.flatnonzero(mat[pr + 1 :, col])
        if len(others):
            mat[others, col:] ^= exp[log[mat[others, col]][:, None] + log[prow]]
        pivots.append(col)
    return pivots


def build_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, int]:
    """The table build that FieldCtx._build_tables replaced, unchanged:
    every candidate g from 1 up is stepped through its powers by scalar
    products until one runs through all 2^M - 1 nonzero elements.  Returns
    (exp, log, generator) in the layout of FieldCtx._tables."""
    n = ctx.order - 1
    powers = np.zeros(n, dtype=np.int64)
    for g in range(1, ctx.order):
        val = 1
        length = 0
        for i in range(n):
            powers[i] = val
            val = ctx.mul(val, g)
            length = i + 1
            if val == 1:
                break
        if length == n and val == 1:
            generator = g
            break
    else:  # pragma: no cover - multiplicative group is always cyclic
        raise AssertionError("no generator found")
    exp = np.zeros(6 * n + 1, dtype=np.int64)
    exp[: 3 * n] = np.tile(powers, 3)
    log = np.full(ctx.order, 3 * n, dtype=np.int64)
    log[powers] = np.arange(n, dtype=np.int64)
    return exp, log, generator
