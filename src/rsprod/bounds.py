"""Closed-form minimum-distance bounds for dimension-k subcodes of the
product of two [n, r] MDS codes, with delta = n - r + 1.

Everything here is exact integer arithmetic except the breakpoint profile
bound, which is a real-valued closed form.  Witnesses are reported for the
two optimized bounds; ties resolve to the lexicographically smallest
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .degrees import DegreeProfile, degree_profile


def _check_k(r: int, k: int) -> None:
    if not 1 <= k <= r * r:
        raise ValueError(f"need 1 <= k <= r^2 = {r * r}, got k={k}")


def lrc_upper(n: int, r: int, k: int) -> int:
    """Singleton-type bound for (r, delta)-locality with one recovery set:
    n^2 - k + 1 - floor((k-1)/r) * (delta - 1)."""
    _check_k(r, k)
    delta = n - r + 1
    return n * n - k + 1 - ((k - 1) // r) * (delta - 1)


def grid_upper(n: int, r: int, k: int) -> tuple[int, tuple[int, int]]:
    """min over 0 <= a, b <= r with a*b >= r^2 - k + 1 of
    (a + n - r)(b + n - r), with its lexicographically smallest minimizing
    (a, b).  For each a the smallest feasible b is best, so one candidate per
    a suffices, and min over (value, (a, b)) breaks ties toward the smallest
    a."""
    _check_k(r, k)
    need = r * r - k + 1
    candidates = []
    for a in range(max(1, -(-need // r)), r + 1):
        b = -(-need // a)  # at most r, since a >= need / r
        candidates.append(((a + n - r) * (b + n - r), (a, b)))
    return min(candidates)


def gridv2_upper(n: int, r: int, k: int) -> Optional[int]:
    """Alternative locality bound n^2 - k + 1 - floor((k-2)/(r-1))(delta-1);
    absent unless k >= 2 and 2 <= r <= n - 1."""
    _check_k(r, k)
    if k < 2 or r < 2 or r > n - 1:
        return None
    delta = n - r + 1
    return n * n - k + 1 - ((k - 2) // (r - 1)) * (delta - 1)


def lower_opt(
    n_frak: int, r: int, k: int, partial_k: int
) -> tuple[int, tuple[int, int]]:
    """Main lower bound: min over delta <= n_r, n_c <= n of
    max{n^2 - partial_k + (n - n_r)(n - n_c), n_r*delta, n_c*delta},
    with the lexicographically smallest minimizing (n_r, n_c)."""
    _check_k(r, k)
    delta = n_frak - r + 1
    rng = np.arange(delta, n_frak + 1, dtype=np.int64)
    xy = np.outer(n_frak - rng, n_frak - rng)
    first = n_frak * n_frak - partial_k + xy
    b = np.maximum(first, np.maximum((rng * delta)[:, None], (rng * delta)[None, :]))
    flat = int(np.argmin(b))
    i, j = divmod(flat, len(rng))
    return int(b[i, j]), (int(rng[i]), int(rng[j]))


def rs_degree_lower(n_frak: int, partial_k: int) -> int:
    """Degree bound on evaluation vectors: n^2 - partial_k."""
    return n_frak * n_frak - partial_k


def exact_distance(n_frak: int, r: int, k: int) -> Optional[int]:
    """Known exact minimum distance where the construction is optimal:
    k = r^2, r^2 - 1, r^2 - 2 (r >= 3), and all k <= 2r - 1."""
    _check_k(r, k)
    delta = n_frak - r + 1
    if k == r * r:
        return delta * delta
    if k == r * r - 1:
        return delta * (delta + 1)
    if k == r * r - 2 and r >= 3:
        return delta * (delta + 2)
    if k <= 2 * r - 1:
        return n_frak * n_frak - k + 1 - ((k - 1) // r) * (n_frak - r)
    return None


def profile_lower(n_frak: int, r: int, k_t: int) -> float:
    """Closed-form value of the degree bound at a breakpoint dimension:
    (n - (r - sqrt(r^2 - k_t)))^2 - (r - sqrt(r^2 - k_t))^2."""
    prof = degree_profile(n_frak, r)
    if k_t not in prof.breakpoint_dims:
        raise ValueError(f"k={k_t} is not a breakpoint dimension of (n={n_frak}, r={r})")
    s = r - math.sqrt(r * r - k_t)
    return (n_frak - s) ** 2 - s**2


def secondweight(n: int, delta: int) -> int:
    """Next-to-minimum weight delta*(delta+1) of a product of two MDS codes
    of distance delta < n."""
    if not 1 <= delta < n:
        raise ValueError("requires a component word of weight delta + 1, so delta < n")
    return delta * (delta + 1)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (n, r, k) triple."""

    n_frak: int
    r: int
    k: int
    delta: int
    partial_k: int
    lrc_upper: int
    grid_upper: int
    gridv2_upper: Optional[int]
    lower_opt: int
    rs_degree_lower: int
    exact: Optional[int]
    witness_ab: tuple[int, int]
    witness_nrnc: tuple[int, int]


def bound_report(
    n_frak: int, r: int, k: int, profile: Optional[DegreeProfile] = None
) -> BoundReport:
    if profile is None:
        profile = degree_profile(n_frak, r)
    partial_k = profile.partial(k)
    grid, ab = grid_upper(n_frak, r, k)
    low, nrnc = lower_opt(n_frak, r, k, partial_k)
    return BoundReport(
        n_frak=n_frak,
        r=r,
        k=k,
        delta=n_frak - r + 1,
        partial_k=partial_k,
        lrc_upper=lrc_upper(n_frak, r, k),
        grid_upper=grid,
        gridv2_upper=gridv2_upper(n_frak, r, k),
        lower_opt=low,
        rs_degree_lower=rs_degree_lower(n_frak, partial_k),
        exact=exact_distance(n_frak, r, k),
        witness_ab=ab,
        witness_nrnc=nrnc,
    )


def bound_sweep(n_frak: int, r: int, ks) -> list[BoundReport]:
    profile = degree_profile(n_frak, r)
    return [bound_report(n_frak, r, k, profile) for k in ks]
