"""Concrete code instances: echelon basis polynomials, generator matrices
over the evaluation grid, encoding, and the grid/flat coordinate maps.

A code instance of dimension k evaluates the k lowest-degree basis
polynomials of the product span on the pairwise-sum point set.  The flat
coordinate i*n + j corresponds to grid cell (i, j); grid rows live on the
Zg point set and grid columns on Zf.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .degrees import DegreeProfile, _echelon, degree_profile
from .field import (
    FieldCtx,
    mat_nullspace,
    poly_divmod,
    poly_eval,
    poly_eval_many,
    poly_from_roots,
)
from .linearized import LinearizedPair


@dataclass
class CodeInstance:
    """Immutable-by-convention bundle for one constructed code."""

    pair: LinearizedPair
    r: int
    k: int
    profile: DegreeProfile
    basis_polys: tuple[np.ndarray, ...]
    G: np.ndarray

    @property
    def ctx(self) -> FieldCtx:
        return self.pair.ctx

    @property
    def n_frak(self) -> int:
        return self.pair.n_frak

    @property
    def length(self) -> int:
        return self.pair.n_frak ** 2

    @property
    def heavy_parities(self) -> int:
        return self.r * self.r - self.k

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Parity-check matrix, (n^2 - k) x n^2: its rows span the dual code,
        so a word is a codeword iff H @ word = 0.  Built on first use and
        kept, never by build_code."""
        return mat_nullspace(self.ctx, self.G)


@dataclass
class GridWord:
    entries: np.ndarray  # n x n, entry (i, j) sits at flat index i*n + j


# cap on the elements of one broadcast product in build_code and encode
_BLOCK_ELEMS = 1 << 16


def build_code(pair: LinearizedPair, r: int, k: int) -> CodeInstance:
    """C_k: the k lowest-degree echelon basis polynomials evaluated on the
    grid; G[i][j] = basis_polys[i](eval_points[j]).

    Computed in the tensor form rather than by evaluating polynomials of
    degree up to 2(r-1)n: basis row l is sum_{a,b} S_l[a, b] g^a f^b (the
    echelon transform), and at the cell Zf[i] + Zg[j] this takes the value
    sum_{a,b} Zf[i]^a S_l[a, b] Zg[j]^b, because f vanishes on Zf and g on
    Zg (so g(Zf[i]) = Zf[i] and f(Zg[j]) = Zg[j]).  Hence the grid image of
    row l is A^T . S_l . B with A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b, and
    its flattening in the i*n + j order is G[l].
    """
    n = pair.n_frak
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got r={r}")
    if not 1 <= k <= r * r:
        raise ValueError(f"need 1 <= k <= r^2 = {r * r}, got k={k}")
    ctx = pair.ctx
    profile = degree_profile(n, r)
    basis, s = _echelon(pair, r)
    basis, s = basis[:k], s[:k]
    for i, p in enumerate(basis):
        if len(p) - 1 != profile.partial(i + 1):  # pragma: no cover
            raise AssertionError("echelon degrees disagree with the profile")
    expo = np.arange(r)[:, None]
    a_t = ctx.pow_arr(np.array(pair.Zf, dtype=np.int64), expo).T  # n x r
    b = ctx.pow_arr(np.array(pair.Zg, dtype=np.int64), expo)  # r x n
    g = np.empty((k, n, n), dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // (n * r * n))
    for lo in range(0, k, step):
        blk = s[lo : lo + step]
        # (S_l . B)[a, j], then (A^T . S_l . B)[i, j], XOR-reducing over b, a
        sb = np.bitwise_xor.reduce(ctx.mul_arr(blk[:, :, :, None], b), axis=2)
        g[lo : lo + step] = np.bitwise_xor.reduce(
            ctx.mul_arr(a_t[:, :, None], sb[:, None, :, :]), axis=2
        )
    return CodeInstance(pair, r, k, profile, tuple(basis), g.reshape(k, n * n))


def _horner_generator(pair: LinearizedPair, basis_polys) -> np.ndarray:
    """Reference for build_code: G by Horner evaluation of every basis
    polynomial on the sum points.  Slow; used by the tests only."""
    pts = np.array(pair.eval_points, dtype=np.int64)
    g = np.zeros((len(basis_polys), len(pts)), dtype=np.int64)
    for i, p in enumerate(basis_polys):
        g[i] = poly_eval_many(pair.ctx, p, pts)
    return g


def encode(code: CodeInstance, msg: Sequence[int]) -> np.ndarray:
    if len(msg) != code.k:
        raise ValueError(f"message length must be {code.k}, got {len(msg)}")
    m = np.asarray(msg, dtype=np.int64)[:, None]
    word = np.empty(code.length, dtype=np.int64)
    # column blocks keep the temporaries small enough to be reused, not
    # mapped and faulted in afresh on every call
    step = max(1, _BLOCK_ELEMS // code.k)
    for lo in range(0, code.length, step):
        cols = slice(lo, lo + step)
        word[cols] = np.bitwise_xor.reduce(code.ctx.mul_arr(code.G[:, cols], m), axis=0)
    return word


def relabel(pair: LinearizedPair, word) -> GridWord:
    """Flat word on the sum points -> n x n grid (coordinate beta+gamma
    becomes cell (beta index, gamma index))."""
    n = pair.n_frak
    w = np.asarray(word, dtype=np.int64)
    if w.shape != (n * n,):
        raise ValueError(f"word length must be {n * n}")
    return GridWord(w.reshape(n, n).copy())


def unrelabel(pair: LinearizedPair, gw: GridWord) -> np.ndarray:
    n = pair.n_frak
    if gw.entries.shape != (n, n):
        raise ValueError(f"grid shape must be {(n, n)}")
    return gw.entries.reshape(n * n).copy()


@functools.lru_cache(maxsize=32)
def _interp_matrix(ctx: FieldCtx, points: tuple[int, ...]) -> np.ndarray:
    """Lagrange interpolation as a matrix: coefficient vector (lowest
    degree first) = values @ L, built from barycentric weights."""
    ann = poly_from_roots(ctx, points)
    n = len(points)
    mat = np.zeros((n, n), dtype=np.int64)
    for m, x_m in enumerate(points):
        quot, rem = poly_divmod(ctx, ann, np.array([x_m, 1], dtype=np.int64))
        if len(rem):  # pragma: no cover
            raise AssertionError("annihilator must vanish at its own roots")
        w = ctx.inv(poly_eval(ctx, quot, x_m))
        mat[m, : len(quot)] = ctx.mul_arr(quot, w)
    return mat


def interpolate(ctx: FieldCtx, points: Sequence[int], values) -> np.ndarray:
    """Coefficients (lowest first, untrimmed length n) of the unique
    degree < n polynomial through the given points."""
    lm = _interp_matrix(ctx, tuple(points))
    v = np.asarray(values, dtype=np.int64)
    return np.bitwise_xor.reduce(ctx.mul_arr(lm, v[:, None]), axis=0)


def local_membership(pair: LinearizedPair, r: int, gw: GridWord) -> bool:
    """True iff every grid row interpolates to degree < r on Zg and every
    grid column to degree < r on Zf."""
    n = pair.n_frak
    if r >= n:
        return True
    ctx = pair.ctx
    lg = _interp_matrix(ctx, pair.Zg)
    lf = _interp_matrix(ctx, pair.Zf)
    rows = gw.entries
    # coefficient matrices for all rows / columns at once
    row_coeffs = np.bitwise_xor.reduce(
        ctx.mul_arr(rows[:, :, None], lg[None, :, :]), axis=1
    )
    if np.any(row_coeffs[:, r:]):
        return False
    cols = gw.entries.T
    col_coeffs = np.bitwise_xor.reduce(
        ctx.mul_arr(cols[:, :, None], lf[None, :, :]), axis=1
    )
    return not np.any(col_coeffs[:, r:])


def export_generator_csv(code: CodeInstance) -> str:
    """Generator matrix as hex CSV, row-major, preceded by a JSON header
    comment line fixing the field and the coordinate order."""
    header = {
        "q": code.pair.f.q,
        "M": code.ctx.extension_degree,
        "reduction_poly_hex": format(code.ctx.reduction_poly, "x"),
        "r": code.r,
        "k": code.k,
        "coordinate_order": "Zf-major",
    }
    buf = io.StringIO()
    buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in code.G:
        writer.writerow([format(int(x), "x") for x in row])
    return buf.getvalue()
