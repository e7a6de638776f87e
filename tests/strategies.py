"""Hypothesis strategies for pairs and codes shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from rsprod.codec import build_code
from rsprod.degrees import degree_profile
from rsprod.field import FieldCtx, is_irreducible, smallest_irreducible
from rsprod.linearized import LinearizedPoly, build_pair, instantiate_standard, subfield

# pairs that are not the small-field instantiation: (M, q_log, f coefficients).
# The first and the last evaluate on a proper subspace of the field, 16 of
# its 64 and 256 elements.
GENERAL_PAIRS = [(6, 1, (0xE, 0, 1)), (6, 1, (58, 0, 0, 1)), (8, 1, (46, 0, 1))]


def general_pair(i: int):
    m, q_log, coeffs = GENERAL_PAIRS[i]
    return build_pair(LinearizedPoly(FieldCtx(m), q_log, coeffs))


@st.composite
def pairs(draw):
    """The standard pair at q_log 1-4 with default, overridden c or
    overridden reduction polynomial, or a general build_pair(f) pair."""
    kind = draw(st.sampled_from(["default", "c", "field-poly", "general"]))
    if kind == "general":
        return general_pair(draw(st.integers(0, len(GENERAL_PAIRS) - 1)))
    e = draw(st.integers(1, 4))
    if kind == "c":
        ctx = FieldCtx(2 * e)
        outside = sorted(set(ctx.elements()) - set(subfield(ctx, e)))
        return instantiate_standard(e, c=draw(st.sampled_from(outside)))
    if kind == "field-poly":
        m = 2 * e
        polys = [p for p in range(1 << m, 1 << (m + 1)) if is_irreducible(p, m)]
        others = [p for p in polys if p != smallest_irreducible(m)] or polys
        return instantiate_standard(e, reduction_poly=draw(st.sampled_from(others)))
    return instantiate_standard(e)


def draw_code(pair, data):
    n = pair.n_frak
    # r = 1 and r = n, else small r where Horner stays fast
    r = data.draw(st.sampled_from([1, n]) | st.integers(1, min(n, 6)), label="r")
    dims = degree_profile(n, r).breakpoint_dims
    k = data.draw(
        st.sampled_from([r * r, 1]) | st.sampled_from(dims) | st.integers(1, r * r),
        label="k",
    )
    return build_code(pair, r, k)


@st.composite
def standard_codes(draw, q_logs: tuple[int, int], max_messages: int | None = None):
    """A code of the standard pair at a q_log in the closed range q_logs,
    with any 1 <= r <= n and 1 <= k <= r^2, the ends drawn often; with
    max_messages, k stops where |F|^k would exceed it."""
    pair = instantiate_standard(draw(st.integers(*q_logs), label="q_log"))
    n = pair.n_frak
    r = draw(st.sampled_from([1, n]) | st.integers(1, n), label="r")
    top = r * r
    while max_messages is not None and top > 1 and pair.ctx.order**top > max_messages:
        top -= 1
    k = draw(st.sampled_from([1, top]) | st.integers(1, top), label="k")
    return build_code(pair, r, k)
