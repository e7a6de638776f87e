"""Additive polynomials of the form sum a_i x^(q^i), their root spaces,
and the evaluation-point grids built from a separable pair (f, g = x - f).

Root spaces of separable additive polynomials are GF(2)-subspaces of the
ambient field; they are computed as kernels of the GF(2)-linear map
alpha -> p(alpha) on the M-dimensional bit space rather than by scanning
the field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import FieldCtx, poly_trim


@dataclass(frozen=True)
class LinearizedPoly:
    """sum coeffs[i] * x^(q^i) over ctx, with q = 2^q_log."""

    ctx: FieldCtx
    q_log: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.q_log < 1:
            raise ValueError("q must be at least 2")
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not 0 <= c < self.ctx.order for c in self.coeffs):
            raise ValueError("coefficients must be field elements")

    @property
    def q(self) -> int:
        return 1 << self.q_log

    @property
    def degree(self) -> int:
        return self.q ** (len(self.coeffs) - 1)

    @property
    def separable(self) -> bool:
        return self.coeffs[0] != 0

    def eval(self, x: int) -> int:
        ctx = self.ctx
        acc = ctx.mul(self.coeffs[0], x)
        cur = x
        for a in self.coeffs[1:]:
            for _ in range(self.q_log):
                cur = ctx.mul(cur, cur)
            if a:
                acc ^= ctx.mul(a, cur)
        return acc

    def to_unipoly(self) -> np.ndarray:
        out = np.zeros(self.degree + 1, dtype=np.int64)
        for i, a in enumerate(self.coeffs):
            out[self.q**i] = a
        return poly_trim(out)


def root_space(p: LinearizedPoly) -> list[int]:
    """All roots of p inside its context, ascending by bit value.

    Computed as the kernel of the induced GF(2)-linear map; raises when
    the context is too small to contain every root.
    """
    if not p.separable:
        raise ValueError("root space requires a separable polynomial (a_0 != 0)")
    m = p.ctx.extension_degree
    # rows carry (image bits, preimage bits); eliminate on the image part
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j in range(m):
        img, pre = p.eval(1 << j), 1 << j
        while img:
            lead = img.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (img, pre)
                break
            pimg, ppre = pivots[lead]
            img ^= pimg
            pre ^= ppre
        else:
            kernel.append(pre)
    roots = [0]
    for v in kernel:
        roots += [r ^ v for r in roots]
    if len(roots) < p.degree:
        raise ValueError(
            f"splitting field too small: {len(roots)} roots in "
            f"GF(2^{m}) for a degree-{p.degree} polynomial"
        )
    return sorted(roots)


@dataclass(frozen=True)
class LinearizedPair:
    """A separable pair f, g with f + g = x and their root spaces."""

    f: LinearizedPoly
    g: LinearizedPoly
    Zf: tuple[int, ...]
    Zg: tuple[int, ...]

    @property
    def ctx(self) -> FieldCtx:
        return self.f.ctx

    @functools.cached_property
    def eval_points(self) -> tuple[int, ...]:
        """eval_points[i*n + j] = Zf[i] + Zg[j]; the index convention is
        the inverse of the coordinate bijection between the grid and the
        flat point set."""
        return tuple(b ^ c for b in self.Zf for c in self.Zg)

    @property
    def n_frak(self) -> int:
        return len(self.Zf)


def build_pair(f: LinearizedPoly) -> LinearizedPair:
    """General-purpose constructor: g = x - f and both root spaces.  The
    sums Zf + Zg are direct: an alpha in both would give alpha = f(alpha)
    + g(alpha) = 0."""
    if f.coeffs[0] in (0, 1):
        raise ValueError(
            "a_0 must avoid 0 and 1 so that both f and g are separable"
        )
    if f.degree <= 1:
        raise ValueError("f must have degree greater than 1")
    if f.ctx.extension_degree % f.q_log != 0:
        raise ValueError("context must contain the subfield of order q")
    g = LinearizedPoly(f.ctx, f.q_log, (f.coeffs[0] ^ 1,) + f.coeffs[1:])
    return LinearizedPair(f, g, tuple(root_space(f)), tuple(root_space(g)))


def subfield(ctx: FieldCtx, q_log: int) -> list[int]:
    """The subfield of order 2^q_log inside ctx, ascending by bit value."""
    if ctx.extension_degree % q_log != 0:
        raise ValueError("subfield order must divide the field order")
    if ctx.extension_degree == q_log:
        return sorted(ctx.elements())
    return root_space(LinearizedPoly(ctx, q_log, (1, 1)))


def instantiate_standard(
    q_log: int,
    c: Optional[int] = None,
    reduction_poly: Optional[int] = None,
) -> LinearizedPair:
    """The small-field pair over GF(2^(2e)): f = (x^q - x)/(c^(q-1) - 1)
    with c outside the order-q subfield, so that Zf is that subfield,
    Zg = c*Zf, and the evaluation points run over the whole field.  x^q = x
    holds exactly on the subfield, so c (by default the smallest) needs
    c^q != c; build_pair then computes the subfield once, as Zf."""
    if q_log < 1:
        raise ValueError("q must be at least 2")
    ctx = FieldCtx(2 * q_log, reduction_poly)
    q = 1 << q_log
    if c is None:
        c = next(x for x in ctx.elements() if ctx.pow(x, q) != x)
    elif not 0 <= c < ctx.order or ctx.pow(c, q) == c:
        raise ValueError("c must be a field element outside the order-q subfield")
    u = ctx.inv(ctx.pow(c, q - 1) ^ 1)
    f = LinearizedPoly(ctx, q_log, (u, u))
    return build_pair(f)
