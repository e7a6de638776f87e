"""Arithmetic in GF(2^M) and polynomial algebra over it.

Field elements are plain Python ints in [0, 2^M): the binary digits of an
element are the coefficients of its polynomial-basis representation over
GF(2).  Addition is XOR.  A :class:`FieldCtx` fixes the extension degree
and the reduction polynomial; its scalar product is carry-less
multiplication followed by reduction, while bulk operations on numpy
arrays go through log/antilog tables built by walking a multiplicative
generator.

Univariate polynomials over the field are numpy int64 arrays of
coefficients, lowest degree first, with no trailing zeros (the zero
polynomial is the empty array).  Bivariate polynomials are dense 2-D
arrays indexed by (x-degree, y-degree).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

# the log/exp tables hold 5 * 2^M int64 entries, 40 MB at this degree
MAX_EXTENSION_DEGREE = 20

# cap on the elements of one broadcast temporary in mat_mul
_BLOCK_ELEMS = 1 << 16


def _gf2_deg(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(a: int, b: int) -> int:
    """Remainder of GF(2)[x] division of a by b (both as bit vectors)."""
    db = _gf2_deg(b)
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Trial division of a degree-m polynomial over GF(2) by all
    polynomials of degree at most m/2."""
    if poly.bit_length() - 1 != m:
        return False
    for d in range(1, m // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(poly, div) == 0:
                return False
    return True


def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible bit vector of degree m."""
    for cand in range(1 << m, 1 << (m + 1)):
        if is_irreducible(cand, m):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m}")


class FieldCtx:
    """The field GF(2^M) with a fixed reduction polynomial.

    Immutable after construction and safe to share across workers; all
    operations are pure functions of their inputs.
    """

    def __init__(self, m: int, reduction_poly: Optional[int] = None) -> None:
        if not 1 <= m <= MAX_EXTENSION_DEGREE:
            raise ValueError(
                f"extension degree must be in [1, {MAX_EXTENSION_DEGREE}], got {m}"
            )
        if reduction_poly is None:
            reduction_poly = smallest_irreducible(m)
        else:
            reduction_poly = int(reduction_poly)
            if reduction_poly.bit_length() - 1 != m:
                raise ValueError(
                    f"reduction polynomial must be monic of degree {m}, "
                    f"got {bin(reduction_poly)}"
                )
            if not is_irreducible(reduction_poly, m):
                raise ValueError(
                    f"reduction polynomial {bin(reduction_poly)} is reducible"
                )
        self.extension_degree = m
        self.reduction_poly = reduction_poly
        self.order = 1 << m
        self._exp_log: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.generator: Optional[int] = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and other.extension_degree == self.extension_degree
            and other.reduction_poly == self.reduction_poly
        )

    def __hash__(self) -> int:
        return hash((self.extension_degree, self.reduction_poly))

    def __repr__(self) -> str:
        return f"FieldCtx(GF(2^{self.extension_degree}), poly={bin(self.reduction_poly)})"

    # -- scalar arithmetic --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced modulo the reduction polynomial."""
        p = 0
        red = self.reduction_poly
        top = self.order
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= red
        return p

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse via exponentiation to 2^M - 2."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def elements(self) -> range:
        return range(self.order)

    # -- vectorized arithmetic ----------------------------------------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) with a zero sentinel: log[0] = 2(q-1) and exp is zero
        from index 2(q-1) up to 4(q-1), so exp[log[a] + log[b]] is the
        product a*b for every a, b, zero included.  Built on first use into
        locals and published by one assignment, so concurrent first uses
        each store an equal pair."""
        if self._exp_log is None:
            self._exp_log = self._build_tables()
        return self._exp_log

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.order - 1
        powers = np.zeros(n, dtype=np.int64)
        for g in range(1, self.order):
            val = 1
            length = 0
            for i in range(n):
                powers[i] = val
                val = self.mul(val, g)
                length = i + 1
                if val == 1:
                    break
            if length == n and val == 1:
                self.generator = g
                break
        else:  # pragma: no cover - multiplicative group is always cyclic
            raise AssertionError("no generator found")
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[:n] = powers
        exp[n : 2 * n] = powers
        log = np.full(self.order, 2 * n, dtype=np.int64)
        log[powers] = np.arange(n, dtype=np.int64)
        return exp, log

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product of int arrays (broadcasting)."""
        exp, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return exp[log[a] + log[b]]

    def pow_arr(self, a, e) -> np.ndarray:
        """Elementwise a^e for exponents e >= 0 (broadcasting), with 0^0 = 1."""
        exp, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        e = np.asarray(e, dtype=np.int64)
        out = exp[log[a] * e % (self.order - 1)]
        return np.where(a == 0, e == 0, out)

    def inv_arr(self, a) -> np.ndarray:
        exp, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        if not a.all():
            raise ValueError("zero has no multiplicative inverse")
        n = self.order - 1
        return exp[n - log[a]]

    def log_arr(self, a) -> np.ndarray:
        """Elementwise discrete logarithm to the base ``generator``, in
        [0, 2^M - 1), of nonzero elements."""
        _, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ValueError("zero has no discrete logarithm")
        return log[a]

    def exp_arr(self, e) -> np.ndarray:
        """Elementwise generator^e for any integer exponents (negative ones
        included)."""
        exp, _ = self._tables()
        return exp[np.asarray(e, dtype=np.int64) % (self.order - 1)]


# ---------------------------------------------------------------------------
# Univariate polynomials: int64 coefficient arrays, lowest degree first.
# ---------------------------------------------------------------------------

ZERO_POLY = np.zeros(0, dtype=np.int64)


def poly(coeffs: Iterable[int]) -> np.ndarray:
    return poly_trim(np.array(list(coeffs), dtype=np.int64))


def poly_trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.int64)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return ZERO_POLY.copy()
    return c[: nz[-1] + 1]


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


def poly_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return ZERO_POLY.copy()
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in np.nonzero(a)[0]:
        out[i : i + len(b)] ^= ctx.mul_arr(b, int(a[i]))
    return out


def poly_eval_many(ctx: FieldCtx, p: np.ndarray, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in p[::-1]:
        acc = ctx.mul_arr(acc, xs) ^ int(c)
    return acc


# poly_divmod and poly_from_roots have no caller in the package: the tests'
# interpolation reference uses them, and the benchmark's traced run
# (bench/run.py --trace 1) reports spans under their names.


def poly_divmod(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return ZERO_POLY.copy(), poly_trim(a.copy())
    r = a.copy()
    q = np.zeros(len(a) - len(b) + 1, dtype=np.int64)
    inv_lead = ctx.inv(int(b[-1]))
    for i in range(len(a) - 1, len(b) - 2, -1):
        if r[i]:
            f = ctx.mul(int(r[i]), inv_lead)
            q[i - len(b) + 1] = f
            r[i - len(b) + 1 : i + 1] ^= ctx.mul_arr(b, f)
    return poly_trim(q), poly_trim(r)


def poly_from_roots(ctx: FieldCtx, roots: Sequence[int]) -> np.ndarray:
    """The annihilator polynomial prod (x - rho) of the given points."""
    p = np.ones(1, dtype=np.int64)
    for rho in roots:
        p = poly_mul(ctx, p, np.array([rho, 1], dtype=np.int64))
    return p


# ---------------------------------------------------------------------------
# Bivariate polynomials: dense (x-degree, y-degree) coefficient matrices.
# ---------------------------------------------------------------------------


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


def bipoly_eval_many(ctx: FieldCtx, s: np.ndarray, xs, ys) -> np.ndarray:
    """Evaluate a bivariate polynomial at paired point arrays."""
    s = np.asarray(s, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    acc = np.zeros_like(xs)
    for i in range(s.shape[0] - 1, -1, -1):
        row = np.zeros_like(ys)
        for j in range(s.shape[1] - 1, -1, -1):
            row = ctx.mul_arr(row, ys) ^ int(s[i, j])
        acc = ctx.mul_arr(acc, xs) ^ row
    return acc


# ---------------------------------------------------------------------------
# Dense linear algebra over the field.
# ---------------------------------------------------------------------------


def mat_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product a @ b over the field, with np.matmul's
    broadcasting over leading dimensions (both operands at least 2-D).

    Entry (i, j) is the XOR over t of a[i, t] * b[t, j], taken as
    exp[log a + log b] on the tables' zero sentinel.  The logarithms and
    their broadcast sum are formed in blocks of batch entries, rows, inner
    indices and columns of at most _BLOCK_ELEMS elements, so each temporary
    is small enough to be reused rather than mapped afresh on every call;
    the blocks over the inner index are XOR-accumulated.  A product whose
    whole temporary fits in one block is that block.
    """
    exp, log = ctx._tables()
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    *ba, m, inner = a.shape
    *bb, _, n = b.shape
    batch = tuple(ba or bb)
    if ba and bb and ba != bb:
        batch = np.broadcast_shapes(tuple(ba), tuple(bb))
    if math.prod(batch) * m * inner * n <= _BLOCK_ELEMS:
        # one block: no loop, whose set-up would cost more than the product
        t = exp[log[a][..., None] + log[b][..., None, :, :]]
        return np.bitwise_xor.reduce(t, axis=-2)
    if ba and bb and ba != bb:
        a = np.broadcast_to(a, batch + (m, inner))
        b = np.broadcast_to(b, batch + (inner, n))
    # (batch, m, inner, 1) and (batch, 1, inner, n), with a batch of length
    # 1 for an operand that has none
    a = a.reshape(math.prod(a.shape[:-2]), m, inner, 1)
    b = b.reshape(math.prod(b.shape[:-2]), 1, inner, n)
    out = np.zeros((max(len(a), len(b)), m, n), dtype=np.int64)
    # whole rows of b where they fit, so that its blocks are contiguous
    cb = min(n, _BLOCK_ELEMS) or 1
    tb = min(inner, _BLOCK_ELEMS // cb) or 1
    rb = min(m, _BLOCK_ELEMS // (tb * cb)) or 1
    pb = _BLOCK_ELEMS // (rb * tb * cb) or 1
    for p in range(0, len(out), pb):
        pa = a[p : p + pb] if ba else a
        pbb = b[p : p + pb] if bb else b
        for j in range(0, n, cb):
            for t in range(0, inner, tb):
                rows_b = log[pbb[:, :, t : t + tb, j : j + cb]]
                for i in range(0, m, rb):
                    out[p : p + pb, i : i + rb, j : j + cb] ^= np.bitwise_xor.reduce(
                        exp[log[pa[:, i : i + rb, t : t + tb]] + rows_b], axis=2
                    )
    return out.reshape(batch + (m, n))


def _row_reduce(ctx: FieldCtx, mat: np.ndarray, full: bool) -> list[int]:
    """Gaussian elimination in place, in the matrix's own integer dtype;
    returns the pivot columns.  Each pivot is the first nonzero entry of its
    column at or below the next pivot row, moved up and scaled to 1.  The
    pivot policy: ``full`` clears its column above and below (reduced row
    echelon form), otherwise only below."""
    nrows, ncols = mat.shape
    pivots: list[int] = []
    for col in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        nz = np.nonzero(mat[pr:, col])[0]
        if len(nz) == 0:
            continue
        row = pr + int(nz[0])
        if row != pr:
            mat[[pr, row]] = mat[[row, pr]]
        # the pivot row is zero left of col, so only columns col.. change
        mat[pr, col:] = ctx.mul_arr(mat[pr, col:], ctx.inv_arr(mat[pr, col]))
        if full:
            others = np.nonzero(mat[:, col])[0]
            others = others[others != pr]
        else:
            others = pr + 1 + np.nonzero(mat[pr + 1 :, col])[0]
        if len(others):
            mat[others, col:] ^= ctx.mul_arr(mat[others, col][:, None], mat[pr, col:][None, :])
        pivots.append(col)
    return pivots


def mat_rref(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    r = np.array(a, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return r, _row_reduce(ctx, r, full=True)


def mat_rank(ctx: FieldCtx, a: np.ndarray) -> int:
    return len(mat_rref(ctx, a)[1])


def mat_nullspace(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Basis (as rows) of {x : a @ x = 0} over the field."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    r, pivots = mat_rref(ctx, a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = r[: len(pivots)][:, free].T
    return basis


def mat_solve(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> tuple[str, Optional[np.ndarray]]:
    """Solve a @ x = b; returns ("unique"|"multiple"|"inconsistent", x)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    aug = np.concatenate([a, b[:, None]], axis=1)
    r, pivots = mat_rref(ctx, aug)
    ncols = a.shape[1]
    if ncols in pivots:
        return "inconsistent", None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = r[: len(pivots), ncols]
    if len(pivots) < ncols:
        return "multiple", x
    return "unique", x
