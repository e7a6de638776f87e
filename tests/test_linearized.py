"""Root spaces, the standard small-field pair, and the evaluation grid."""

import pytest

from rsprod.field import FieldCtx
from rsprod.linearized import (
    LinearizedPoly,
    build_pair,
    instantiate_standard,
    root_space,
    subfield,
)


def test_standard_pair_q4_root_spaces():
    pair = instantiate_standard(2)
    ctx = pair.ctx
    assert ctx.extension_degree == 4 and ctx.reduction_poly == 0b10011
    # oracle: exhaustive scan for elements fixed by alpha -> alpha^4
    fixed = sorted(a for a in ctx.elements() if ctx.pow(a, 4) == a)
    assert fixed == [0x0, 0x1, 0x6, 0x7]
    assert list(pair.Zf) == fixed
    # c is the smallest element outside Zf; Zg = c * Zf
    c = 0x2
    assert sorted(ctx.mul(c, b) for b in pair.Zf) == [0x0, 0x2, 0xC, 0xE]
    assert list(pair.Zg) == [0x0, 0x2, 0xC, 0xE]
    assert sorted(pair.eval_points) == list(ctx.elements())


def test_standard_pair_q2():
    pair = instantiate_standard(1)
    ctx = pair.ctx
    c = 0x2
    assert ctx.pow(c, 1) not in (0, 1)
    assert pair.f.coeffs[0] not in (0, 1)
    assert pair.n_frak == 2
    assert sorted(pair.eval_points) == list(ctx.elements())


def test_standard_pair_c_override():
    default = instantiate_standard(2)
    other = instantiate_standard(2, c=0x3)
    assert other.Zf == default.Zf
    assert other.Zg != default.Zg
    with pytest.raises(ValueError):
        instantiate_standard(2, c=0x6)  # inside the subfield


def test_f_plus_g_is_x():
    for e in (1, 2, 3):
        pair = instantiate_standard(e)
        f, g = pair.f, pair.g
        assert f.coeffs[0] ^ g.coeffs[0] == 1
        assert f.coeffs[1:] == g.coeffs[1:]
        for x in (0x1, 0x2, 0x3):
            assert f.eval(x) ^ g.eval(x) == x


def test_root_space_of_x_is_zero():
    ctx = FieldCtx(4)
    p = LinearizedPoly(ctx, 2, (1,))
    assert root_space(p) == [0]


def test_root_space_subfield_gf16():
    ctx = FieldCtx(4)
    # x^4 - x as a 2-linearized polynomial
    p = LinearizedPoly(ctx, 1, (1, 0, 1))
    roots = root_space(p)
    scan = sorted(a for a in ctx.elements() if p.eval(a) == 0)
    assert roots == scan == [0x0, 0x1, 0x6, 0x7]


def test_root_space_splitting_field_too_small():
    ctx = FieldCtx(3)
    p = LinearizedPoly(ctx, 1, (1, 0, 1))  # x^4 - x over GF(8)
    scan = [a for a in ctx.elements() if p.eval(a) == 0]
    assert sorted(scan) == [0, 1]
    with pytest.raises(ValueError, match="splitting field too small"):
        root_space(p)


def test_root_space_requires_separable():
    ctx = FieldCtx(4)
    with pytest.raises(ValueError):
        root_space(LinearizedPoly(ctx, 2, (0, 1)))


def test_build_pair_matches_standard():
    pair = instantiate_standard(2)
    rebuilt = build_pair(pair.f)
    assert rebuilt == pair


def test_build_pair_rejects_bad_a0():
    ctx = FieldCtx(4)
    for a0 in (0, 1):
        with pytest.raises(ValueError, match="separable"):
            build_pair(LinearizedPoly(ctx, 2, (a0, 1)))


def test_build_pair_general_f_degree_q_squared():
    # q = 2, f = x^4 + 0xe x over GF(2^6): root space of dimension 2 over GF(2)
    ctx = FieldCtx(6)
    f = LinearizedPoly(ctx, 1, (0xE, 0, 1))
    pair = build_pair(f)
    assert pair.n_frak == 4 == f.degree
    assert list(pair.Zf) == [0, 24, 43, 51]
    assert list(pair.Zg) == [0, 3, 13, 14]
    assert len(set(pair.eval_points)) == 16


@pytest.mark.parametrize("e", [1, 2, 3])
def test_pair_projections_exhaustive(e):
    # g(beta + gamma) = beta and f(beta + gamma) = gamma on the whole grid
    pair = instantiate_standard(e)
    n = pair.n_frak
    for i, beta in enumerate(pair.Zf):
        for j, gamma in enumerate(pair.Zg):
            alpha = pair.eval_points[i * n + j]
            assert alpha == beta ^ gamma
            assert pair.g.eval(alpha) == beta
            assert pair.f.eval(alpha) == gamma


@pytest.mark.parametrize("e", [1, 2])
def test_root_spaces_are_subfield_modules(e):
    pair = instantiate_standard(e)
    scalars = subfield(pair.ctx, e)
    for space in (pair.Zf, pair.Zg):
        members = set(space)
        for a in space:
            for b in space:
                assert a ^ b in members
            for lam in scalars:
                assert pair.ctx.mul(lam, a) in members


def test_eval_points_are_all_distinct():
    for e in (1, 2, 3):
        pair = instantiate_standard(e)
        assert len(set(pair.eval_points)) == pair.n_frak**2


def test_linearized_eval_is_additive():
    pair = instantiate_standard(3)
    ctx = pair.ctx
    import numpy as np

    rng = np.random.default_rng(5)
    xs = rng.integers(0, ctx.order, size=60)
    ys = rng.integers(0, ctx.order, size=60)
    for p in (pair.f, pair.g):
        for x, y in zip(xs, ys):
            assert p.eval(int(x) ^ int(y)) == p.eval(int(x)) ^ p.eval(int(y))
