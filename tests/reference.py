"""Reference implementations that the tests hold the package to: Horner
evaluation, formal derivatives, Lagrange interpolation, the Horner-built
generator and the univariate double-root check for the tensor-form code, the
full 2-D scan for the grid bound, and the enumeration of a whole span for
the one-slice spectra.

Polynomials are int64 coefficient arrays, lowest degree first, as in
``rsprod.field``.  Everything here is slow and written for clarity.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from rsprod.codec import encode
from rsprod.degrees import ref_basis
from rsprod.field import (
    ZERO_POLY,
    FieldCtx,
    mat_mul,
    poly_add,
    poly_divmod,
    poly_eval_many,
    poly_from_roots,
    poly_scale,
    poly_trim,
)


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
