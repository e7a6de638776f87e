"""Concrete code instances: the tensor form of the echelon basis, generator
matrices over the evaluation grid, encoding, codeword membership, and the
barycentric line repair behind the peeling decoder.

A code instance of dimension k evaluates the k lowest-degree basis
polynomials of the product span on the pairwise-sum point set.  The flat
coordinate i*n + j corresponds to grid cell (i, j), so a flat word
reshaped to (n, n) is its grid; grid rows live on the Zg point set and grid
columns on Zf.
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
from .field import _BLOCK_ELEMS, FieldCtx, mat_mul, mat_nullspace, mat_rref
from .linearized import LinearizedPair


@dataclass
class CodeInstance:
    """Immutable-by-convention bundle for one constructed code.

    S[l] is the r x r coefficient matrix of basis polynomial l in the
    products g^a f^b (see build_code); G is the k x n^2 generator."""

    pair: LinearizedPair
    r: int
    k: int
    profile: DegreeProfile
    S: np.ndarray
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

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Parity-check matrix, (n^2 - k) x n^2: its rows span the dual code,
        so a word is a codeword iff H @ word = 0.  Built on first use and
        kept, never by build_code."""
        return mat_nullspace(self.ctx, self.G)

    @functools.cached_property
    def Phi(self) -> np.ndarray:
        """Checks on message matrices, (r^2 - k) x r^2: an r x r matrix M
        lies in the span of the S_l iff Phi @ vec(M) = 0.  Built on first
        use and kept."""
        r = self.r
        return mat_nullspace(self.ctx, self.S.reshape(self.k, r * r))

    @functools.cached_property
    def corner_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, Q, Phi_C), which decide membership in C_k from the r x r
        corner C = grid[:r, :r] (see in_code).  Built on first use and kept.

        A grid A^T . M . B (see build_code) has C = A_r^T . M . B_r, where
        the first r columns A_r, B_r of A and B are invertible Vandermonde
        matrices, so M = A_r^-T . C . B_r^-1 and the grid is
        (A^T . A_r^-T) . C . Q with Q = B_r^-1 . B.  The first r rows of
        A^T . A_r^-T are the identity and P is the other n - r.  Phi_C
        carries the checks Phi over to the corner: row l is
        vec(A_r^-1 . Phi_l . B_r^-T), so Phi_C . vec(C) = Phi . vec(M)."""
        ctx, r = self.ctx, self.r
        a, b = _power_tables(self.pair, r)
        eye = np.eye(r, dtype=np.int64)
        a_inv, b_inv = (
            mat_rref(ctx, np.concatenate([v[:, :r], eye], axis=1))[0][:, r:]
            for v in (a, b)
        )
        p = mat_mul(ctx, a[:, r:].T, a_inv.T)
        q = mat_mul(ctx, b_inv, b)
        phi = self.Phi.reshape(-1, r, r)
        phi_c = mat_mul(ctx, a_inv, mat_mul(ctx, phi, b_inv.T)).reshape(-1, r * r)
        return p, q, phi_c


def _power_tables(pair: LinearizedPair, r: int) -> tuple[np.ndarray, np.ndarray]:
    """A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b for a, b < r."""
    ctx = pair.ctx
    expo = np.arange(r)[:, None]
    a = ctx.pow_arr(np.array(pair.Zf, dtype=np.int64), expo)
    b = ctx.pow_arr(np.array(pair.Zg, dtype=np.int64), expo)
    return a, b


def _grid_values(pair: LinearizedPair, s: np.ndarray) -> np.ndarray:
    """A^T . s . B for coefficient matrices s (..., r, r), with
    A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b: entry (i, j) is the value of
    sum_{a,b} s[a, b] g^a f^b at the cell Zf[i] + Zg[j] (see build_code)."""
    a, b = _power_tables(pair, s.shape[-1])
    return mat_mul(pair.ctx, a.T, mat_mul(pair.ctx, s, b))


def in_code(code: CodeInstance, grid: np.ndarray) -> bool:
    """Whether a full n x n grid is a codeword of C_k, in O(r n^2) field
    products and without H.  The r x r corner C fixes the only candidate
    message matrix M (see CodeInstance.corner_maps): the grid must be in
    the product code, A^T . M . B, so its first r rows are C . Q and the
    others P . C . Q, and then it is in C_k iff M lies in the span of the
    S_l, Phi_C . vec(C) = 0.  At k = r^2 this is membership in the product
    code, every grid row and column a Reed-Solomon word of dimension r."""
    ctx, r = code.ctx, code.r
    p, q, phi_c = code.corner_maps
    top = mat_mul(ctx, grid[:r, :r], q)
    if not (np.array_equal(top, grid[:r]) and np.array_equal(mat_mul(ctx, p, top), grid[r:])):
        return False
    return not mat_mul(ctx, phi_c, grid[:r, :r].reshape(r * r, 1)).any()


def build_code(pair: LinearizedPair, r: int, k: int) -> CodeInstance:
    """C_k: the k lowest-degree echelon basis polynomials evaluated on the
    grid; G[l][i*n + j] is basis polynomial l at Zf[i] + Zg[j].

    Computed in the tensor form rather than from polynomials of degree up
    to 2(r-1)n: basis polynomial l is sum_{a,b} S_l[a, b] g^a f^b (the
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
    profile = degree_profile(n, r)
    rows = _echelon(pair, r)[:k]
    maxdeg = rows.shape[1] - r * r - 1
    # each row's leading coefficient is its first nonzero column
    if not np.array_equal(maxdeg - np.argmax(rows != 0, axis=1), profile.D[:k]):
        raise AssertionError("echelon degrees disagree with the profile")  # pragma: no cover
    s = rows[:, maxdeg + 1 :].reshape(k, r, r).astype(np.int64)
    g = _grid_values(pair, s)
    return CodeInstance(pair, r, k, profile, s, g.reshape(k, n * n))


def encode(code: CodeInstance, msg: Sequence[int]) -> np.ndarray:
    if len(msg) != code.k:
        raise ValueError(f"message length must be {code.k}, got {len(msg)}")
    msg = np.asarray(msg, dtype=np.int64)
    # one shift catches negative symbols too
    if (msg >> code.ctx.extension_degree).any():
        raise ValueError(
            f"message symbols must be elements of GF(2^{code.ctx.extension_degree}), "
            f"in [0, {code.ctx.order})"
        )
    return mat_mul(code.ctx, msg[None], code.G)[0]


def _log_differences(ctx: FieldCtx, points) -> np.ndarray:
    """ld[i, j] = log(points[i] + points[j]) for distinct points, with a
    zero diagonal: the one table that barycentric line repair needs per
    point set."""
    pts = np.asarray(points, dtype=np.int64)
    diff = pts[:, None] ^ pts[None, :]
    np.fill_diagonal(diff, 1)
    return ctx.log_arr(diff)


def _line_predictions(
    ctx: FieldCtx, ld: np.ndarray, lines: np.ndarray, anchors: np.ndarray
) -> np.ndarray:
    """Values at all n points of the degree < r polynomial through the
    cells ``anchors[l]`` (r distinct indices) of each line ``lines[l]``.

    Barycentric Lagrange form: with s[x] = sum_{w in U} ld[x, w] over the
    anchors U, the basis polynomial of anchor u is
    L_u(x_j) = exp(s[j] - ld[u, j] - s[u]) at every non-anchor j, because
    prod_{w != u} (x_j + w) / (u + w) has the logarithm s[j] - ld[u, j] in
    its numerator and s[u] in its denominator.  The predictions at the
    anchors themselves are not meaningful; callers keep their values."""
    r = anchors.shape[1]
    n = lines.shape[1]
    sel = np.zeros(lines.shape, dtype=np.int64)
    np.put_along_axis(sel, anchors, 1, axis=1)
    s = sel @ ld  # ld is symmetric with a zero diagonal
    out = np.empty(lines.shape, dtype=np.int64)
    # blocks of lines bound the (lines, r, n) exponent arrays
    step = max(1, _BLOCK_ELEMS // (r * n))
    for lo in range(0, len(lines), step):
        blk = slice(lo, lo + step)
        a, sb = anchors[blk], s[blk]
        e = sb[:, None, :] - ld[a] - np.take_along_axis(sb, a, axis=1)[:, :, None]
        v = np.take_along_axis(lines[blk], a, axis=1)
        out[blk] = mat_mul(ctx, v[:, None, :], ctx.exp_arr(e))[:, 0]
    return out


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
