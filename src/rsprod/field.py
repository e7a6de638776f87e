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
polynomial is the empty array).  Only the univariate echelon reference
(degrees.ref_basis) and the tests build them.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

# the log/exp tables hold 5 * 2^M int64 entries, 40 MB at this degree
MAX_EXTENSION_DEGREE = 20

# cap on the elements of one broadcast temporary in mat_mul
_BLOCK_ELEMS = 1 << 16

# powers of the generator that the table build takes one scalar product at a
# time before it doubles with array products: doubling pays only beyond
# about this many, so a field of degree 10 or less builds as before
_SCALAR_POWERS = 1 << 10


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

    Immutable after construction; all operations are pure functions of
    their inputs.
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
        """(exp, log) with a zero sentinel: exp[i] is g^(i mod (q-1)) for
        the generator g and i < 3(q-1), and zero from 3(q-1) up to 6(q-1),
        and log[0] = 3(q-1).  So exp[log[a] + log[b]] is the product a*b
        for every a, b, zero included.  The third period of powers lets
        _row_reduce shift a row's logarithms by up to q - 1 and still take
        its products with a nonzero factor through one sum, and lets the
        line-repair kernels of codec index exponents below 3(q-1) with no
        modulo.  Built on first use into locals and published by one
        assignment, so concurrent first uses each store an equal pair; the
        generator is found by the order test and the powers are built by
        doubling (see _build_tables)."""
        if self._exp_log is None:
            self._exp_log = self._build_tables()
        return self._exp_log

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of _tables: the powers g^0 .. g^(q-2) of the smallest
        primitive element g (see _primitive_element), three times over,
        then the zero region; log inverts the first period."""
        n = self.order - 1
        g = self.generator = self._primitive_element()
        exp = np.zeros(6 * n + 1, dtype=np.int64)
        powers = exp[:n]
        # the first powers one scalar product at a time, then the table
        # doubles: g^done times the powers so far gives the next ones
        done = min(n, _SCALAR_POWERS)
        val = 1
        for i in range(done):
            powers[i] = val
            val = self.mul(val, g)
        while done < n:
            step = min(done, n - done)
            powers[done : done + step] = self._mul_by(powers[:step], val)
            val = self.mul(val, val)
            done += step
        exp[n : 2 * n] = powers
        exp[2 * n : 3 * n] = powers
        log = np.full(self.order, 3 * n, dtype=np.int64)
        log[powers] = np.arange(n, dtype=np.int64)
        return exp, log

    def _primitive_element(self) -> int:
        """The smallest g whose powers run through all 2^M - 1 nonzero
        elements: g^((2^M - 1)/p) != 1 for every prime p dividing 2^M - 1
        (1 itself when M = 1, where that group is trivial)."""
        n = self.order - 1
        primes, rest, p = [], n, 3  # n is odd
        while p * p <= rest:
            if rest % p == 0:
                primes.append(p)
                while rest % p == 0:
                    rest //= p
            p += 2
        if rest > 1:
            primes.append(rest)
        for g in range(1, self.order):
            if all(self.pow(g, n // p) != 1 for p in primes):
                return g
        raise AssertionError("no generator found")  # pragma: no cover - the group is cyclic

    def _mul_by(self, a: np.ndarray, c: int) -> np.ndarray:
        """The products a * c of int64 field elements and one scalar, by
        carry-less multiplication and reduction, without the tables: the
        part from x^M up is folded back down through x^M = the reduction
        polynomial's lower terms until the product has degree below M."""
        m = self.extension_degree
        low = self.reduction_poly ^ self.order
        acc = np.zeros_like(a)
        for bit in range(c.bit_length()):
            if c >> bit & 1:
                acc ^= a << bit
        top = m + c.bit_length() - 2  # a bound on the degree of acc
        while top >= m:
            high = acc >> m
            acc &= self.order - 1
            for bit in range(low.bit_length()):
                if low >> bit & 1:
                    acc ^= high << bit
            top += low.bit_length() - 1 - m
        return acc

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

    def log_arr(self, a) -> np.ndarray:
        """Elementwise discrete logarithm to the base ``generator``, in
        [0, 2^M - 1), of nonzero elements."""
        _, log = self._tables()
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ValueError("zero has no discrete logarithm")
        return log[a]


# ---------------------------------------------------------------------------
# Univariate polynomials: int64 coefficient arrays, lowest degree first.
# ---------------------------------------------------------------------------

ZERO_POLY = np.zeros(0, dtype=np.int64)


def poly_trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.int64)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return ZERO_POLY.copy()
    return c[: nz[-1] + 1]


def poly_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return ZERO_POLY.copy()
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in np.nonzero(a)[0]:
        out[i : i + len(b)] ^= ctx.mul_arr(b, int(a[i]))
    return out


# poly_eval_many, poly_divmod and poly_from_roots have no caller in the
# package: the tests' references use them, and the benchmark's traced run
# (bench/run.py --trace 1) reports spans under their names.


def poly_eval_many(ctx: FieldCtx, p: np.ndarray, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in p[::-1]:
        acc = ctx.mul_arr(acc, xs) ^ int(c)
    return acc


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
    echelon form), otherwise only below.  Products are taken straight from
    the tables (see FieldCtx._tables), as in mat_mul.

    Every row at or below the next pivot row is zero left of the current
    column, so a pivot changes columns col.. only.  Its budget is 20 numpy
    calls, views and scalar reads included, against about 27 in the loop
    this replaced; 12 of them touch arrays.  One nonzero() on the column
    below gives the pivot and the rows to clear (the row a swap moves down
    was zero there, so it is never among them).  A swap is one copy and
    two slice stores.  The pivot row's logarithms are gathered and shifted
    by (q - 1) - log p once, which divides the row by p through one exp
    gather and feeds the update as they are.  The rows to clear are
    gathered, XOR-updated from their factors' logarithms plus the row's,
    and stored back once.  ``full`` adds one nonzero() for the rows above
    and a concatenate.  There is no switch on size or density: updating
    every row below through views, without the gather, saves nothing
    measurable on the dense systems of an erasure core and is about 11
    times slower on the sparse (32, 16) echelon of degrees._echelon, whose
    rows mostly need no clearing."""
    exp, log = ctx._tables()
    shift = ctx.order - 1
    nrows, ncols = mat.shape
    pivots: list[int] = []
    for col in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        nz = mat[pr:, col].nonzero()[0]
        if not len(nz):
            continue
        if nz[0]:
            row = mat[pr, col:].copy()
            mat[pr, col:] = mat[pr + nz[0], col:]
            mat[pr + nz[0], col:] = row
        lrow = log[mat[pr, col:]]
        lrow += shift - lrow[0]
        mat[pr, col:] = exp[lrow]
        rows = nz[1:]
        rows += pr
        if full:
            rows = np.concatenate((mat[:pr, col].nonzero()[0], rows))
        if len(rows):
            sub = mat[rows, col:]
            sub ^= exp[log[sub[:, :1]] + lrow]
            mat[rows, col:] = sub
        pivots.append(col)
    return pivots


def mat_rref(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    r = np.array(a, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return r, _row_reduce(ctx, r, full=True)


def mat_rank(ctx: FieldCtx, a: np.ndarray) -> int:
    """Rank, from a row echelon form: the pivots of the reduced form are
    the same columns, so nothing above a pivot needs clearing.  A single
    column has rank 1 iff it is nonzero, which takes no elimination."""
    r = np.array(a, dtype=np.int64, copy=True)
    if r.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if r.shape[1] == 1:
        return int(r.any())
    return len(_row_reduce(ctx, r, full=False))


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
