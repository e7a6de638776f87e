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

import functools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degrees import DegreeProfile, _transform, degree_profile
from .field import _BLOCK_ELEMS, FieldCtx, mat_mul, mat_nullspace, mat_rref
from .linearized import LinearizedPair


@dataclass
class CodeInstance:
    """Immutable-by-convention bundle for one constructed code.

    S[l] is the r x r coefficient matrix of basis polynomial l in the
    products g^a f^b (see build_code).  Everything else is derived from S
    and the pair on first use and kept: the k x n^2 generator G, the
    checks (P, Q, Phi_C) that in_code, the parity checks H and the
    line-side erasure solve read, and the log-difference tables that line
    repair and that solve share."""

    pair: LinearizedPair
    r: int
    k: int
    profile: DegreeProfile
    S: np.ndarray

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
    def G(self) -> np.ndarray:
        """Generator, k x n^2: G[l] is the grid A^T . S_l . B of basis
        polynomial l (see build_code) flattened in the i*n + j order.
        Built on first use and kept: export, enumeration, the message-side
        solve of a large erasure core and the rank reference read it, while
        encoding, sampling, H and the line-side erasure solve do not."""
        return _grid_values(self, self.S).reshape(self.k, self.length)

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Parity-check matrix, (n^2 - k) x n^2, from checks and without G:
        [P | I] on each grid column, [Q[:, r:]^T | I] on grid rows 0..r-1
        and Phi_C on the corner cells.  The rows are independent, as no check
        of the MDS column code lies on r rows and the corner is an
        information set, so they span the dual code.  Built on first use and
        kept; spectrum_via_dual is its only reader."""
        n, r = self.n_frak, self.r
        p, q, phi_c = self.checks
        eye = np.eye(n, dtype=np.int64)
        corner = np.pad(phi_c.reshape(-1, r, r), ((0, 0), (0, n - r), (0, n - r)))
        columns = np.kron(np.hstack([p, eye[r:, r:]]), eye)
        rows = np.kron(eye[:r], np.hstack([q[:, r:].T, eye[r:, r:]]))
        return np.concatenate([columns, rows, corner.reshape(-1, n * n)])

    @functools.cached_property
    def checks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, Q, Phi_C): the checks of C_k that in_code and H read, and
        whose Phi_C the line-side erasure solve multiplies through mat_mul
        as they do; Phi_C has no other form.  Built on first use and kept.

        A grid A^T . M . B (see build_code) has the corner
        C = A_r^T . M . B_r, with A_r, B_r the first r columns of A and B,
        invertible Vandermonde matrices; so the grid is
        (A^T . A_r^-T) . C . Q with Q = B_r^-1 . B, and P is the last n - r
        rows of A^T . A_r^-T, whose first r are the identity.  A grid column
        is in the column code iff it passes [P | I], and a row is in the row
        code iff it passes [Q[:, r:]^T | I].  Phi_C carries Phi, the null
        space of the S_l, over to the corner: row l is
        vec(A_r^-1 . Phi_l . B_r^-T), so Phi_C . vec(C) = Phi . vec(M), zero
        iff M lies in the span of the S_l."""
        ctx, r = self.ctx, self.r
        at, b = self._powers
        eye = np.eye(r, dtype=np.int64)
        a_inv, b_inv = (
            mat_rref(ctx, np.concatenate([v, eye], axis=1))[0][:, r:]
            for v in (at[:r].T, b[:, :r])
        )
        p = mat_mul(ctx, at[r:], a_inv.T)
        q = mat_mul(ctx, b_inv, b)
        phi = mat_nullspace(ctx, self.S.reshape(self.k, r * r)).reshape(-1, r, r)
        phi_c = mat_mul(ctx, a_inv, mat_mul(ctx, phi, b_inv.T)).reshape(-1, r * r)
        return p, q, phi_c

    @functools.cached_property
    def _ld_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, columns): (2n, 2n) tables for line repair and the erasure
        solve on grid rows and on grid columns, with the _log_differences
        tables of the lines' own points (Zg for rows, Zf for columns) and of
        the points across them as the diagonal blocks, in that order, and
        zeros between.  _line_predictions reads the first block alone, and
        _anchor_bases on one takes lines anchored on either point set in one
        call: all of a line's anchors lie in one block, and its entries there
        are those of the block's own table.  Built on first use and kept."""
        n = self.n_frak
        tables = [_log_differences(self.ctx, pts) for pts in (self.pair.Zg, self.pair.Zf)]
        out = []
        for own, across in (tables, tables[::-1]):
            table = np.zeros((2 * n, 2 * n), dtype=np.int64)
            table[:n, :n], table[n:, n:] = own, across
            out.append(table)
        return tuple(out)

    @functools.cached_property
    def _powers(self) -> tuple[np.ndarray, np.ndarray]:
        """(A^T, B) with A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b for
        a, b < r; A^T is stored contiguous, as mat_mul's left operand."""
        ctx, expo = self.ctx, np.arange(self.r)[:, None]
        a = ctx.pow_arr(np.array(self.pair.Zf, dtype=np.int64), expo)
        b = ctx.pow_arr(np.array(self.pair.Zg, dtype=np.int64), expo)
        return np.ascontiguousarray(a.T), b

    @functools.cached_property
    def _s_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of S, for message matrices (see
        _message_matrix): (rows l, log S[l, cell], the distinct cells
        a*r + b, and where each cell's run of entries starts), with the
        entries sorted by cell."""
        s = self.S.reshape(self.k, self.r * self.r)
        cells, rows = np.nonzero(s.T)  # cell-major, so sorted by cell
        cell_ids, starts = np.unique(cells, return_index=True)
        return rows, self.ctx.log_arr(s[rows, cells]), cell_ids, starts


def _grid_values(code: CodeInstance, s: np.ndarray) -> np.ndarray:
    """A^T . (s . B) for coefficient matrices s (..., r, r), with
    A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b: entry (i, j) is the value of
    sum_{a,b} s[a, b] g^a f^b at the cell Zf[i] + Zg[j] (see build_code)."""
    at, b = code._powers
    return mat_mul(code.ctx, at, mat_mul(code.ctx, s, b))


def _message_matrix(code: CodeInstance, msg: np.ndarray) -> np.ndarray:
    """M = sum_l msg[..., l] S_l for int64 messages of field elements, with
    any leading batch axes, from the nonzero entries of S alone: each cell
    of M is the XOR of its entries' products.  S is sparse, so this takes
    far fewer products than the dense k x r^2 one (864 against 61,440 per
    message at (n, r, k) = (32, 16, 240)); the result does not depend on
    that, only the speed does.  The products are laid out entries first,
    with the batch axes reversed after them, so the XOR runs along the
    first axis and a single message pays nearly nothing for the batch
    axes."""
    rows, log_vals, cell_ids, starts = code._s_terms
    exp, log = code.ctx._tables()
    batch = msg.shape[:-1]
    terms = exp[log[msg.T[rows]] + log_vals.reshape((-1,) + (1,) * len(batch))]
    m = np.zeros((code.r * code.r,) + batch[::-1], dtype=np.int64)
    m[cell_ids] = np.bitwise_xor.reduceat(terms, starts)
    return m.T.reshape(batch + (code.r, code.r))


def in_code(code: CodeInstance, grid: np.ndarray) -> bool:
    """Whether a full n x n grid is a codeword of C_k, in O(r n^2) field
    products and without H.  The r x r corner C fixes the only candidate
    message matrix M (see CodeInstance.checks): the grid must be in the
    product code, A^T . M . B, so its first r rows are C . Q, which is the
    row checks [Q[:, r:]^T | I] on them, and its other rows P . C . Q, the
    column checks [P | I] on every column; and then it is in C_k iff M
    lies in the span of the S_l, Phi_C . vec(C) = 0.  At k = r^2 this is
    membership in the product code, every grid row and column a
    Reed-Solomon word of dimension r."""
    ctx, r = code.ctx, code.r
    p, q, phi_c = code.checks
    top = mat_mul(ctx, grid[:r, :r], q)
    if not (np.array_equal(top, grid[:r]) and np.array_equal(mat_mul(ctx, p, top), grid[r:])):
        return False
    return not mat_mul(ctx, phi_c, grid[:r, :r].reshape(r * r, 1)).any()


def build_code(pair: LinearizedPair, r: int, k: int) -> CodeInstance:
    """C_k: the k lowest-degree echelon basis polynomials evaluated on the
    grid, kept as their tensor form S; no generator is evaluated here.

    Basis polynomial l is sum_{a,b} S_l[a, b] g^a f^b (the echelon
    transform), and at the cell Zf[i] + Zg[j] this takes the value
    sum_{a,b} Zf[i]^a S_l[a, b] Zg[j]^b, because f vanishes on Zf and g on
    Zg (so g(Zf[i]) = Zf[i] and f(Zg[j]) = Zg[j]).  Hence the grid image of
    row l is A^T . S_l . B with A[a, i] = Zf[i]^a and B[b, j] = Zg[j]^b, and
    its flattening in the i*n + j order is the generator row G[l], with no
    polynomial of degree up to 2(r-1)n formed.

    S comes from degrees._transform: an r^2 x 2r^2 elimination of the
    products' coefficients at the degree set D next to an identity block,
    bit-identical to the transform of the univariate echelon and without
    its products.  Pairs (n, r) past the echelon's cells, REF_MAX_CELLS,
    are refused as they are there.
    """
    n = pair.n_frak
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got r={r}")
    if not 1 <= k <= r * r:
        raise ValueError(f"need 1 <= k <= r^2 = {r * r}, got k={k}")
    profile = degree_profile(n, r)
    s = _transform(pair, profile)[:k].astype(np.int64)
    return CodeInstance(pair, r, k, profile, s)


def encode(code: CodeInstance, msg: Sequence[int]) -> np.ndarray:
    """The codeword of msg, flat in the i*n + j order: the grid
    A^T . M . B of M = sum_l msg[l] S_l (see build_code), in
    nnz(S) + r^2 n + r n^2 field products rather than the k n^2 of m . G."""
    if len(msg) != code.k:
        raise ValueError(f"message length must be {code.k}, got {len(msg)}")
    m = code.ctx.extension_degree
    msg = _int_symbols(msg)
    # one shift catches negative symbols too
    if msg is None or (msg >> m).any():
        raise ValueError(
            f"message symbols must be elements of GF(2^{m}), in [0, {code.ctx.order})"
        )
    return _grid_values(code, _message_matrix(code, msg)).reshape(-1)


def _int_symbols(values) -> Optional[np.ndarray]:
    """``values`` as an int64 array, or None unless they are integers:
    floats, strings and Python ints past the integer dtypes are not
    truncated into symbols.  A uint64 entry of 2^63 or more wraps to a
    negative int64, which the callers' range check rejects."""
    try:
        arr = np.asarray(values)
    except OverflowError:  # a Python int that no integer dtype holds
        return None
    if arr.dtype.kind not in "iu":
        return None
    return arr.astype(np.int64)


def _log_differences(ctx: FieldCtx, points) -> np.ndarray:
    """ld[i, j] = log(points[i] + points[j]) for distinct points, with a
    zero diagonal: the one table that barycentric line repair needs per
    point set."""
    pts = np.asarray(points, dtype=np.int64)
    diff = pts[:, None] ^ pts[None, :]
    np.fill_diagonal(diff, 1)
    return ctx.log_arr(diff)


def _anchor_bases(ctx: FieldCtx, ld: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The Lagrange basis of each line's anchors ``anchors[l]`` (r distinct
    indices): entry [l, a, j] is the value at point j of the degree < r
    polynomial that is 1 at the anchor u = anchors[l, a] and 0 at the
    line's other anchors.

    Barycentric form: with s[x] = sum_{w in U} ld[x, w] over the anchors U,
    it is exp(s[j] - ld[u, j] - s[u]) at every point j but the other
    anchors, because prod_{w != u} (x_j + w) / (u + w) has the logarithm
    s[j] - ld[u, j] in its numerator and s[u] in its denominator.  At u
    itself that is exp(0) = 1; at the other anchors the entries are not
    meaningful, and callers that need their zeros set them.  s is reduced
    mod q - 1 on its (lines, n) array, so s[j] - ld[u, j] - s[u] + 2(q - 1)
    lies in (0, 3(q - 1)) and indexes the exp table's three periods of
    powers (see FieldCtx._tables) with no reduction of the big array."""
    exp, _ = ctx._tables()
    period = ctx.order - 1
    at_anchors = ld[anchors]
    s = at_anchors.sum(axis=1) % period  # ld is symmetric with a zero diagonal
    s_anchors = s[np.arange(len(anchors))[:, None], anchors]
    return exp[(s + 2 * period)[:, None, :] - at_anchors - s_anchors[:, :, None]]


def _line_predictions(
    ctx: FieldCtx, ld: np.ndarray, values: np.ndarray, anchors: np.ndarray, others: np.ndarray
) -> np.ndarray:
    """Values at the points ``others[l]`` of the degree < r polynomial that
    takes the values ``values[l]`` at the points ``anchors[l]``; each line's
    r anchors and n - r others are its n points split in two.  ``ld`` is
    the _log_differences table of the n points, or a larger table with it
    as the first diagonal block and zeros beside it (see
    CodeInstance._ld_blocks).

    Second barycentric form: with l(x) = prod_{u in U} (x + u) over the
    anchors U, s_j = sum_{u in U} ld[u, j] = log l(x_j) and
    s_u = sum_{w in U} ld[u, w], the prediction at x_j is
    exp(s_j) * XOR_u exp(log c_u - ld[u, j]) with log c_u = log v_u - s_u.
    One gather of ld[u, j] on (lines, r, n - r) gives both sums: s_j over
    u, and s_u as the row sum of ld over all n points less the others'
    terms (ld has a zero diagonal, and zeros beside the first block).  The
    sums are reduced mod q - 1 on their small arrays and no modulo touches
    the big array: the exponent
    log v_u - (s_u mod (q - 1)) + 2(q - 1) - ld[u, j] lies in (0, 3(q - 1)),
    the exp table's three periods of powers (see FieldCtx._tables), for a
    nonzero anchor value, and for a zero one, whose log is 3(q - 1), in
    (3(q - 1), 5(q - 1)], the table's zero region; a zero sum over u
    lands there too.  Lines are taken in blocks that bound the
    (lines, r, n - r) arrays."""
    exp, log = ctx._tables()
    period = ctx.order - 1
    stride = len(ld)
    r = anchors.shape[1]
    flat = ld.reshape(-1)
    totals = ld.sum(axis=1)
    out = np.empty(others.shape, dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // max(1, r * others.shape[1]))
    for lo in range(0, len(values), step):
        blk = slice(lo, lo + step)
        anc = anchors[blk]
        d = flat[(anc * stride)[:, :, None] + others[blk][:, None, :]]
        # einsum sums these short axes about twice as fast as ndarray.sum
        s_anchors = totals[anc] - np.einsum("luj->lu", d)
        log_c = log[values[blk]] + 2 * period - s_anchors % period
        acc = np.bitwise_xor.reduce(exp[log_c[:, :, None] - d], axis=1)
        out[blk] = exp[log[acc] + np.einsum("luj->lj", d) % period]
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
    hexes = [format(x, "x") for x in range(code.ctx.order)]
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines += [",".join([hexes[x] for x in row]) for row in code.G.tolist()]
    return "\n".join(lines) + "\n"
