"""Attainable polynomial degrees in the span of {g^i f^j : 0 <= i,j < r}.

Two independent routes: a closed formula for the degree set, its sorted
enumeration, and the breakpoint dimensions; and a symbolic row-echelon
reduction of the expanded products, whose pivot degrees must coincide
with the formula.  The codec uses the transform that the reduction carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import _row_reduce, poly_mul, poly_trim
from .linearized import LinearizedPair

# cap on the cells of the echelon matrix, r^2 rows of 2(r-1)n + 1 + r^2
# int32 entries (64 MiB); callers fall back to the formula beyond
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


def _product_rows(pair: LinearizedPair, r: int) -> tuple[np.ndarray, int]:
    """Coefficient matrix of g^a f^b, one product per row, columns in
    descending degree order, rows sorted by descending degree then (a, b).

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
    order = sorted(
        ((a, b) for a in range(r) for b in range(r)), key=lambda ab: (-sum(ab), ab)
    )
    mat = np.zeros((r * r, maxdeg + 1 + r * r), dtype=np.int32)
    for row, (a, b) in enumerate(order):
        p = poly_mul(ctx, g_pows[a], f_pows[b])
        mat[row, maxdeg - len(p) + 1 : maxdeg + 1] = p[::-1]
        mat[row, maxdeg + 1 + a * r + b] = 1
    return mat, maxdeg


def _echelon(pair: LinearizedPair, r: int) -> np.ndarray:
    """Row-echelon basis of the product span with its transform, one row
    per basis polynomial, ascending by degree.

    Row l holds the coefficients of basis polynomial l in descending degree
    order (2(r-1)n + 1 columns), then the r^2 entries of S_l, its r x r
    coefficient matrix in the (g^a, f^b) order:
    basis polynomial l = sum_{a,b} S_l[a, b] g^a f^b.

    Deterministic policy: pivot is the highest remaining degree, rows are
    eliminated downward only, and every pivot row is normalized monic.
    """
    if not 1 <= r <= pair.n_frak:
        raise ValueError(f"need 1 <= r <= {pair.n_frak}, got r={r}")
    cells = r * r * (2 * (r - 1) * pair.n_frak + 1 + r * r)
    if cells > REF_MAX_CELLS:
        raise ValueError(
            f"row reduction capped at {REF_MAX_CELLS} matrix cells; (n, r) = "
            f"({pair.n_frak}, {r}) needs r^2 (2(r-1)n + 1 + r^2) = {cells}"
        )
    mat, _ = _product_rows(pair, r)
    # the r^2 products are independent, so every row pivots in a polynomial
    # column and the transform columns are never scanned
    _row_reduce(pair.ctx, mat, full=False)
    return mat[::-1]


def ref_basis(pair: LinearizedPair, r: int) -> list[np.ndarray]:
    """Row-echelon basis of the product span, ascending by degree.

    Returned polynomials are trimmed coefficient arrays, lowest degree
    first, with pairwise distinct degrees; see :func:`_echelon` for the
    pivot policy.
    """
    rows = _echelon(pair, r)
    # trimmed copies: a polynomial must not keep the echelon matrix alive
    return [poly_trim(row[-r * r - 1 :: -1]).copy() for row in rows]


def ref_degree_oracle(pair: LinearizedPair, r: int) -> tuple[int, ...]:
    """Pivot degrees of the row-echelon reduction, ascending."""
    return tuple(len(p) - 1 for p in ref_basis(pair, r))
