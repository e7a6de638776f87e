"""Attainable polynomial degrees in the span of {g^i f^j : 0 <= i,j < r}.

A closed formula gives the degree set D, its sorted enumeration and the
breakpoint dimensions.  The codec's basis comes from an elimination on D
alone: the products' coefficients at the degrees in D, formed from the
Frobenius powers of f and g rather than by polynomial products, next to an
identity block that carries each row's combination of the products (see
_transform).  A symbolic row-echelon reduction of the fully expanded
products, whose pivot degrees must coincide with the formula, stays as the
capped reference that the tests and verify compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import _BLOCK_ELEMS, _row_reduce, poly_mul, poly_trim
from .linearized import LinearizedPair, LinearizedPoly

# cap on the cells of the reference echelon matrix, r^2 rows of
# 2(r-1)n + 1 + r^2 int32 entries (64 MiB); build_code keeps the same
# envelope, and callers fall back to the formula beyond
REF_MAX_CELLS = 1 << 24
# cap on the r^2 degrees of a profile, held as Python ints (r <= 2048)
PROFILE_MAX_DEGREES = 1 << 22


@dataclass(frozen=True)
class DegreeProfile:
    """Degree bookkeeping for one (n, r) parameter pair.

    D is the attainable degree set in ascending order, so D[k-1] is the
    k-th smallest attainable degree; breakpoints holds (t, k_t, partial
    at k_t); intervals[t] is the t-th contiguous run of degrees.
    """

    n_frak: int
    r: int
    D: tuple[int, ...]
    breakpoints: tuple[tuple[int, int, int], ...]
    intervals: tuple[tuple[int, ...], ...]

    def partial(self, k: int) -> int:
        if not 1 <= k <= len(self.D):
            raise ValueError(f"k must be in [1, {len(self.D)}], got {k}")
        return self.D[k - 1]

    @property
    def breakpoint_dims(self) -> tuple[int, ...]:
        return tuple(k for _, k, _ in self.breakpoints)


def degree_profile(n_frak: int, r: int) -> DegreeProfile:
    """Degrees, breakpoints and intervals for local length n and local
    dimension r, 1 <= r <= n and r^2 <= PROFILE_MAX_DEGREES."""
    if n_frak < 1:
        raise ValueError(f"need n >= 1, got n={n_frak}")
    if not 1 <= r <= n_frak:
        raise ValueError(f"need 1 <= r <= {n_frak}, got r={r}")
    if r * r > PROFILE_MAX_DEGREES:
        raise ValueError(f"degree profiles need r^2 <= {PROFILE_MAX_DEGREES}, got r={r}")
    intervals = []
    for t in range(2 * r - 1):
        top = r - 1 - (t + 1) // 2
        intervals.append(tuple(t * n_frak + ell for ell in range(top + 1)))
    d = tuple(sorted(x for iv in intervals for x in iv))
    if len(d) != r * r:
        raise AssertionError("degree set has wrong cardinality")
    breakpoints = []
    for t in range(2 * r - 1):
        k_t = (t + 1) * r - ((t + 1) // 2) * ((t + 2) // 2)
        deg_t = t * n_frak + r - 1 - (t + 1) // 2
        if d[k_t - 1] != deg_t:
            raise AssertionError("breakpoint formula disagrees with degree set")
        breakpoints.append((t, k_t, deg_t))
    return DegreeProfile(n_frak, r, d, tuple(breakpoints), tuple(intervals))


def _product_order(r: int) -> list[tuple[int, int]]:
    """The rows (a, b) of g^a f^b in elimination order: descending degree
    a + b, then ascending (a, b)."""
    return sorted(((a, b) for a in range(r) for b in range(r)), key=lambda ab: (-sum(ab), ab))


def _check_cells(n_frak: int, r: int) -> None:
    """Refuse (n, r) past the reference echelon's REF_MAX_CELLS cells."""
    cells = r * r * (2 * (r - 1) * n_frak + 1 + r * r)
    if cells > REF_MAX_CELLS:
        raise ValueError(
            f"row reduction capped at {REF_MAX_CELLS} matrix cells; (n, r) = "
            f"({n_frak}, {r}) needs r^2 (2(r-1)n + 1 + r^2) = {cells}"
        )


def _product_rows(pair: LinearizedPair, r: int) -> tuple[np.ndarray, int]:
    """Coefficient matrix of g^a f^b, one product per row, columns in
    descending degree order, rows in _product_order.

    The r^2 columns after the polynomial part hold an identity block: row
    (a, b) has a 1 in column maxdeg + 1 + a*r + b, so elimination carries
    each row's combination of the products along with it.  Entries are
    field elements (M <= 24 bits), so int32 holds them and halves the
    matrix that those extra columns widen.
    """
    ctx = pair.ctx
    n = pair.n_frak
    maxdeg = 2 * (r - 1) * n
    gx = pair.g.to_unipoly()
    fx = pair.f.to_unipoly()
    g_pows = [np.ones(1, dtype=np.int64)]
    f_pows = [np.ones(1, dtype=np.int64)]
    for _ in range(r - 1):
        g_pows.append(poly_mul(ctx, g_pows[-1], gx))
        f_pows.append(poly_mul(ctx, f_pows[-1], fx))
    mat = np.zeros((r * r, maxdeg + 1 + r * r), dtype=np.int32)
    for row, (a, b) in enumerate(_product_order(r)):
        p = poly_mul(ctx, g_pows[a], f_pows[b])
        mat[row, maxdeg - len(p) + 1 : maxdeg + 1] = p[::-1]
        mat[row, maxdeg + 1 + a * r + b] = 1
    return mat, maxdeg


def _echelon(pair: LinearizedPair, r: int) -> np.ndarray:
    """Row-echelon basis of the product span with its transform, one row
    per basis polynomial, ascending by degree: the reference that
    _transform is held to.

    Row l holds the coefficients of basis polynomial l in descending degree
    order (2(r-1)n + 1 columns), then the r^2 entries of S_l, its r x r
    coefficient matrix in the (g^a, f^b) order:
    basis polynomial l = sum_{a,b} S_l[a, b] g^a f^b.

    Deterministic policy: pivot is the highest remaining degree, rows are
    eliminated downward only, and every pivot row is normalized monic.
    """
    if not 1 <= r <= pair.n_frak:
        raise ValueError(f"need 1 <= r <= {pair.n_frak}, got r={r}")
    _check_cells(pair.n_frak, r)
    mat, _ = _product_rows(pair, r)
    # the r^2 products are independent, so every row pivots in a polynomial
    # column and the transform columns are never scanned
    _row_reduce(pair.ctx, mat, full=False)
    return mat[::-1]


def _power_terms(p: LinearizedPoly, r: int) -> np.ndarray:
    """The terms of p^e for every 0 <= e < r, as the rows (e, exponent,
    logarithm of the coefficient) of a 3 x terms array sorted by e, with
    terms of one p^e that share an exponent left apart: they are to be
    XOR-accumulated.

    In characteristic 2 the Frobenius power p^(2^j) of p = sum c_i x^(q^i)
    is sum c_i^(2^j) x^(2^j q^i), so p^e is the product of those over the
    bits of e.  The powers whose top bit is j are those below 2^j times
    p^(2^j): one outer sum per bit, of e, exponents and logarithms."""
    _, log = p.ctx._tables()
    period = p.ctx.order - 1
    terms = [(p.q**i, int(log[c])) for i, c in enumerate(p.coeffs) if c]
    powers = np.zeros((3, 1), dtype=np.int64)  # p^0 = x^0
    for j in range(max(r - 1, 0).bit_length()):
        base = powers[:, : np.searchsorted(powers[0], r - (1 << j))]
        frob = np.array(
            [[1 << j] * len(terms), [e << j for e, _ in terms], [(lg << j) % period for _, lg in terms]],
            dtype=np.int64,
        )
        new = (base[:, :, None] + frob[:, None, :]).reshape(3, -1)
        new[2] %= period
        powers = np.concatenate([powers, new], axis=1)
    return powers


def _transform(pair: LinearizedPair, profile: DegreeProfile) -> np.ndarray:
    """The transform of _echelon at r = profile.r, (r^2, r, r) int32 and
    ascending by degree: S[l] is S_l, bit for bit, with no univariate
    product formed.  ``profile`` is the pair's degree_profile(n, r), which
    the caller has already built.

    _echelon's pivots are exactly the degree set D (the formula), so each
    of its non-D columns is zero at and below the next pivot row when the
    scan reaches it and changes nothing; every swap, scaling and
    elimination factor is read in a D column.  So the same _row_reduce on
    [coefficients at D | I], r^2 x 2r^2 in _echelon's row and column
    order, carries the same transform, with pivots exactly the D columns in
    order.  This route cannot see a pivot outside D (the check that the
    reference makes); the tests hold it to _echelon.

    The coefficients of g^a f^b are the XOR of the products of the terms
    of g^a and of f^b (see _power_terms), taken in blocks of g's terms
    that bound the outer sums to about _BLOCK_ELEMS entries, with the
    products off D dropped."""
    n, r = pair.n_frak, profile.r
    rr = r * r
    _check_cells(n, r)
    exp, _ = pair.ctx._tables()
    # the column of each degree: D descending, then -1 off D
    col = np.full(2 * (r - 1) * n + 1, -1, dtype=np.int64)
    col[list(profile.D)] = np.arange(rr - 1, -1, -1)
    row_of = np.empty(rr, dtype=np.int64)  # by a*r + b
    row_of[[a * r + b for a, b in _product_order(r)]] = np.arange(rr)
    g_a, g_exps, g_logs = _power_terms(pair.g, r)
    f_b, f_exps, f_logs = _power_terms(pair.f, r)
    mat = np.zeros((rr, 2 * rr), dtype=np.int32)
    flat = mat.reshape(-1)
    step = max(1, _BLOCK_ELEMS // len(f_exps))
    for lo in range(0, len(g_exps), step):
        cols = col[g_exps[lo : lo + step, None] + f_exps]
        i, j = (cols >= 0).nonzero()
        cells = row_of[g_a[lo + i] * r + f_b[j]] * (2 * rr) + cols[i, j]
        np.bitwise_xor.at(flat, cells, exp[g_logs[lo + i] + f_logs[j]].astype(np.int32))
    mat[row_of, rr + np.arange(rr)] = 1
    if _row_reduce(pair.ctx, mat, full=False) != list(range(rr)):
        raise AssertionError("transform pivots are not the degree set")  # pragma: no cover
    return mat[::-1, rr:].reshape(rr, r, r)


def ref_basis(pair: LinearizedPair, r: int) -> list[np.ndarray]:
    """Row-echelon basis of the product span, ascending by degree.

    Returned polynomials are trimmed coefficient arrays, lowest degree
    first, with pairwise distinct degrees; see :func:`_echelon` for the
    pivot policy.
    """
    rows = _echelon(pair, r)
    # trimmed copies: a polynomial must not keep the echelon matrix alive
    return [poly_trim(row[-r * r - 1 :: -1]).copy() for row in rows]
