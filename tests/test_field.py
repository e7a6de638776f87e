"""Field arithmetic: constructor rules, scalar ops, vectorized ops, polynomials."""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from rsprod import field
from rsprod.field import (
    FieldCtx,
    bipoly_eval_many,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    mat_solve,
    poly,
    poly_add,
    poly_compose,
    poly_divmod,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
)

from reference import poly_deriv, poly_eval


def gf2_mul(a, b):
    """Carry-less product over GF(2), independent of the library."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def brute_irreducible(poly_bits, m):
    """Irreducibility by exhaustive factor enumeration over GF(2)."""
    for d1 in range(1, m):
        for f1 in range(1 << d1, 1 << (d1 + 1)):
            for f2 in range(1 << (m - d1), 1 << (m - d1 + 1)):
                if gf2_mul(f1, f2) == poly_bits:
                    return False
    return True


def test_default_reduction_poly_is_lex_smallest_irreducible():
    # independent oracle: enumerate degree-4 bit vectors in lex order
    expected = next(
        c for c in range(1 << 4, 1 << 5) if brute_irreducible(c, 4)
    )
    assert expected == 0b10011  # x^4 + x + 1
    assert FieldCtx(4).reduction_poly == expected


def test_m1_is_gf2():
    ctx = FieldCtx(1)
    assert ctx.order == 2
    assert ctx.reduction_poly == 0b10
    assert ctx.mul(1, 1) == 1
    assert ctx.mul(1, 0) == 0
    assert ctx.inv(1) == 1


def test_reducible_poly_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert gf2_mul(0b111, 0b111) == 0b10101
    with pytest.raises(ValueError):
        FieldCtx(4, 0b10101)


def test_wrong_degree_poly_rejected():
    with pytest.raises(ValueError):
        FieldCtx(4, 0b1011)  # degree 3
    with pytest.raises(ValueError):
        FieldCtx(0)
    with pytest.raises(ValueError):
        FieldCtx(25)
    # the largest degree is the largest one with log/exp tables
    assert field.MAX_EXTENSION_DEGREE == 20
    with pytest.raises(ValueError, match=r"\[1, 20\]"):
        FieldCtx(21)


def test_mul_examples_gf16():
    ctx = FieldCtx(4)
    assert ctx.mul(0x2, 0x3) == 0x6
    assert ctx.mul(0x8, 0x2) == 0x3  # x^4 = x + 1 mod x^4 + x + 1
    assert ctx.mul(0x8, 0x4) == 0x6  # x^5 = x^2 + x mod x^4 + x + 1
    for a in ctx.elements():
        assert ctx.mul(a, 1) == a


@pytest.mark.parametrize("m", [2, 4, 8, 10])
def test_mul_against_log_table_oracle(m):
    # Oracle: log/antilog tables built only from repeated multiplication
    # by a generator; arbitrary products must respect the discrete logs.
    ctx = FieldCtx(m)
    for g in range(2, ctx.order):
        exp = [1]
        val = g
        while val != 1:
            exp.append(val)
            val = ctx.mul(val, g)
        if len(exp) == ctx.order - 1:
            break
    log = {v: i for i, v in enumerate(exp)}
    n = ctx.order - 1
    rng = np.random.default_rng(m)
    pairs = rng.integers(1, ctx.order, size=(500, 2))
    if m == 4:
        pairs = [(a, b) for a in range(1, 16) for b in range(1, 16)]
    for a, b in pairs:
        a, b = int(a), int(b)
        assert ctx.mul(a, b) == exp[(log[a] + log[b]) % n]


def test_inv_examples():
    ctx = FieldCtx(4)
    assert ctx.inv(0x1) == 0x1
    assert ctx.inv(0x2) == 0x9
    assert ctx.mul(0x2, 0x9) == 1
    with pytest.raises(ValueError):
        ctx.inv(0)


@pytest.mark.parametrize("m", [2, 4, 8, 10])
def test_field_axioms_random_triples(m):
    ctx = FieldCtx(m)
    rng = np.random.default_rng(1234 + m)
    triples = rng.integers(0, ctx.order, size=(10_000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_frobenius_additive_gf16_exhaustive():
    ctx = FieldCtx(4)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a ^ b, a ^ b) == ctx.mul(a, a) ^ ctx.mul(b, b)


@pytest.mark.parametrize("m", [2, 4, 8, 14])
def test_mul_arr_matches_scalar_mul(m):
    ctx = FieldCtx(m)
    rng = np.random.default_rng(m)
    a = rng.integers(0, ctx.order, size=300)
    b = rng.integers(0, ctx.order, size=300)
    prod = ctx.mul_arr(a, b)
    for i in range(len(a)):
        assert int(prod[i]) == ctx.mul(int(a[i]), int(b[i]))
    inv = ctx.inv_arr(np.where(a == 0, 1, a))
    for i in range(len(a)):
        assert int(inv[i]) == ctx.inv(int(a[i]) if a[i] else 1)
    a[:4] = 0
    e = rng.integers(0, 2 * ctx.order, size=300)
    e[::5] = 0
    pw = ctx.pow_arr(a, e)
    for i in range(len(a)):
        assert int(pw[i]) == ctx.pow(int(a[i]), int(e[i]))


@pytest.mark.parametrize("m", [1, 2, 4, 8, 14])
def test_log_exp_arr_match_scalar_pow(m):
    ctx = FieldCtx(m)
    rng = np.random.default_rng(50 + m)
    a = rng.integers(1, ctx.order, size=300)
    a[:2] = [1, ctx.order - 1]
    logs = ctx.log_arr(a)
    gen = int(ctx.exp_arr(1))
    assert gen == ctx.generator
    for x, lg in zip(a, logs):
        assert 0 <= lg < ctx.order - 1
        assert ctx.pow(gen, int(lg)) == int(x)
    # any integer exponent, negative ones included, is taken mod 2^M - 1
    e = rng.integers(-3 * ctx.order, 3 * ctx.order, size=300)
    got = ctx.exp_arr(e)
    for ei, gi in zip(e, got):
        assert int(gi) == ctx.pow(gen, int(ei) % (ctx.order - 1))
    assert np.array_equal(ctx.exp_arr(logs), a)
    with pytest.raises(ValueError):
        ctx.log_arr([1, 0])


@pytest.mark.parametrize("m", [1, 2, 4, 10])
def test_mul_arr_zero_sentinel(m):
    # zero in either factor lands in the zero tail of the exp table, at
    # indices up to 4(q - 1) for 0 * 0
    ctx = FieldCtx(m)
    elems = np.arange(ctx.order)
    assert not np.any(ctx.mul_arr(elems, 0)) and not np.any(ctx.mul_arr(0, elems))
    if m <= 4:
        prod = ctx.mul_arr(elems[:, None], elems[None, :])
        for a in ctx.elements():
            for b in ctx.elements():
                assert int(prod[a, b]) == ctx.mul(a, b)
    assert np.array_equal(ctx.pow_arr([0, 0, 3 % ctx.order], [0, 2, 0]), [1, 0, 1])
    with pytest.raises(ValueError):
        ctx.inv_arr([1, 0])


def test_tables_first_use_from_threads():
    # concurrent first uses may each build the tables, but every caller
    # gets a complete, correct pair
    ctx = FieldCtx(10)
    rng = np.random.default_rng(6)
    a = rng.integers(0, ctx.order, size=64)
    b = rng.integers(0, ctx.order, size=64)
    want = np.array([ctx.mul(int(x), int(y)) for x, y in zip(a, b)])
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(ctx.mul_arr(a, b)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for got in results:
        assert np.array_equal(got, want)


# -- polynomials -------------------------------------------------------------


def test_poly_mul_and_divmod_roundtrip():
    ctx = FieldCtx(4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = field.poly_trim(rng.integers(0, 16, size=rng.integers(1, 12)))
        b = field.poly_trim(rng.integers(0, 16, size=rng.integers(1, 8)))
        if len(b) == 0:
            continue
        q, r = poly_divmod(ctx, poly_add(poly_mul(ctx, a, b), poly([1, 2])), b)
        back = poly_add(poly_mul(ctx, q, b), r)
        assert np.array_equal(back, poly_add(poly_mul(ctx, a, b), poly([1, 2])))
        assert len(r) < max(len(b), 1) or len(r) <= len(b) - 1


def test_poly_eval_matches_eval_many():
    ctx = FieldCtx(8)
    rng = np.random.default_rng(9)
    p = field.poly_trim(rng.integers(0, 256, size=20))
    xs = rng.integers(0, 256, size=40)
    vals = poly_eval_many(ctx, p, xs)
    for i, x in enumerate(xs):
        assert int(vals[i]) == poly_eval(ctx, p, int(x))


def test_poly_deriv_char2():
    # d/dx (x^3 + a x^2 + b x + c) = x^2 + b
    p = poly([5, 3, 7, 1])
    d = poly_deriv(p)
    assert np.array_equal(d, poly([3, 0, 1]))
    assert len(poly_deriv(poly([4]))) == 0


def test_poly_from_roots_vanishes_exactly_there():
    ctx = FieldCtx(4)
    roots = [0x0, 0x3, 0x7]
    p = poly_from_roots(ctx, roots)
    assert len(p) - 1 == 3
    for x in ctx.elements():
        val = poly_eval(ctx, p, x)
        assert (val == 0) == (x in roots)


def test_poly_compose_constant_and_product():
    ctx = FieldCtx(4)
    gx = poly([0, 3, 1])  # x^2 + 3x
    fx = poly([0, 2, 0, 1])  # x^3 + 2x
    one = poly_compose(ctx, np.array([[1]]), gx, fx)
    assert np.array_equal(one, poly([1]))
    # s(x, y) = x*y composes to g*f
    s = np.zeros((2, 2), dtype=np.int64)
    s[1, 1] = 1
    assert np.array_equal(poly_compose(ctx, s, gx, fx), poly_mul(ctx, gx, fx))


def test_poly_compose_agrees_with_pointwise_eval():
    ctx = FieldCtx(8)
    rng = np.random.default_rng(11)
    gx = field.poly_trim(rng.integers(0, 256, size=5))
    fx = field.poly_trim(rng.integers(0, 256, size=4))
    for _ in range(25):
        s = rng.integers(0, 256, size=(3, 3))
        h = poly_compose(ctx, s, gx, fx)
        xs = rng.integers(0, 256, size=16)
        direct = bipoly_eval_many(
            ctx, s, poly_eval_many(ctx, gx, xs), poly_eval_many(ctx, fx, xs)
        )
        assert np.array_equal(poly_eval_many(ctx, h, xs), direct)


# -- linear algebra ----------------------------------------------------------


def scalar_mat_mul(ctx, a, b):
    """a @ b with np.matmul broadcasting, by a triple loop of scalar mul."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for idx in np.ndindex(batch):
        for i in range(a.shape[-2]):
            for j in range(b.shape[-1]):
                acc = 0
                for t in range(a.shape[-1]):
                    acc ^= ctx.mul(int(a[idx + (i, t)]), int(b[idx + (t, j)]))
                out[idx + (i, j)] = acc
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m_deg=st.sampled_from([1, 2, 4, 8]),
    batches=mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    block=st.sampled_from([1, 3, 16, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mat_mul_matches_scalar_triple_loop(m_deg, batches, dims, block, seed):
    # broadcast batches, 1 x k . k x 1, inner dimension 1, and small block
    # caps so that one product spans several blocks of batch, rows, columns
    ctx = FieldCtx(m_deg)
    m, inner, n = dims
    rng = np.random.default_rng(seed)
    shape_a, shape_b = batches.input_shapes
    a = rng.integers(0, ctx.order, size=shape_a + (m, inner))
    b = rng.integers(0, ctx.order, size=shape_b + (inner, n))
    a[rng.random(a.shape) < 0.3] = 0
    b[rng.random(b.shape) < 0.3] = 0
    old = field._BLOCK_ELEMS
    field._BLOCK_ELEMS = block
    try:
        got = mat_mul(ctx, a, b)
    finally:
        field._BLOCK_ELEMS = old
    assert np.array_equal(got, scalar_mat_mul(ctx, a, b))


def test_mat_mul_over_several_default_blocks():
    ctx = FieldCtx(8)
    rng = np.random.default_rng(21)
    a = rng.integers(0, 256, size=(1, 300))
    b = rng.integers(0, 256, size=(300, 250))  # a 75,000-element temporary
    b[:, :3] = 0
    assert np.array_equal(mat_mul(ctx, a, b), scalar_mat_mul(ctx, a, b))
    with pytest.raises(ValueError):
        mat_mul(ctx, a, b.T)
    with pytest.raises(ValueError):
        mat_mul(ctx, a[0], b)


def test_mat_rank_and_nullspace():
    ctx = FieldCtx(4)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 16, size=(4, 7))
    a[3] = a[0] ^ ctx.mul_arr(a[1], 5)  # force a dependency
    rank = mat_rank(ctx, a)
    assert rank <= 3
    ns = mat_nullspace(ctx, a)
    assert ns.shape[0] == 7 - rank
    for v in ns:
        prod = [0, 0, 0, 0]
        for i in range(4):
            acc = 0
            for j in range(7):
                acc ^= ctx.mul(int(a[i, j]), int(v[j]))
            prod[i] = acc
        assert prod == [0, 0, 0, 0]


def test_mat_solve_statuses():
    ctx = FieldCtx(4)
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    x = np.array([5, 6], dtype=np.int64)
    b = np.array(
        [
            ctx.mul(1, 5) ^ ctx.mul(2, 6),
            ctx.mul(3, 5) ^ ctx.mul(4, 6),
        ],
        dtype=np.int64,
    )
    status, sol = mat_solve(ctx, a, b)
    assert status == "unique"
    assert np.array_equal(sol, x)
    # duplicated row keeps the system consistent but underdetermined
    a2 = np.array([[1, 2], [1, 2]], dtype=np.int64)
    b2 = np.array([b[0], b[0]], dtype=np.int64)
    status, _ = mat_solve(ctx, a2, b2)
    assert status == "multiple"
    status, _ = mat_solve(ctx, a2, np.array([1, 2], dtype=np.int64))
    assert status == "inconsistent"


def all_vectors(ctx, length):
    """Every vector of F^length, one per row (one empty row for length 0)."""
    return np.array(list(itertools.product(range(ctx.order), repeat=length)), dtype=np.int64)


def combos(ctx, coeffs, mat):
    """coeffs @ mat, one row per coefficient vector, by elementwise products."""
    out = np.zeros((len(coeffs), mat.shape[1]), dtype=np.int64)
    for i in range(mat.shape[0]):
        out ^= ctx.mul_arr(coeffs[:, i : i + 1], mat[i])
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m_deg=st.sampled_from([1, 2, 4]),
    shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_nullspace_solve_against_brute_force(m_deg, shape, consistent, seed):
    ctx = FieldCtx(m_deg)
    rng = np.random.default_rng(seed)
    rows, inner, cols = shape
    # rank at most inner, with some rows and columns zeroed
    a = scalar_mat_mul(
        ctx, rng.integers(0, ctx.order, (rows, inner)), rng.integers(0, ctx.order, (inner, cols))
    )
    a[rng.random(rows) < 0.2] = 0
    a[:, rng.random(cols) < 0.2] = 0
    r, pivots = mat_rref(ctx, a)
    rank = len(pivots)
    # reduced: each pivot is its row's leading 1 and alone in its column
    assert pivots == sorted(set(pivots)) and not r[rank:].any()
    for i, p in enumerate(pivots):
        assert not r[i, :p].any() and r[i, p] == 1 and np.count_nonzero(r[:, p]) == 1
    # row-equivalent: the same row space, of |F|^rank vectors
    space = {tuple(v) for v in combos(ctx, all_vectors(ctx, rows), a)}
    assert space == {tuple(v) for v in combos(ctx, all_vectors(ctx, rows), r)}
    assert len(space) == ctx.order**rank
    # the nullspace rows are the identity on the free columns, hence
    # independent, and a annihilates them
    ns = mat_nullspace(ctx, a)
    free = [c for c in range(cols) if c not in pivots]
    assert ns.shape == (cols - rank, cols)
    assert np.array_equal(ns[:, free], np.eye(len(free), dtype=np.int64))
    assert not scalar_mat_mul(ctx, a, ns.T).any()
    if consistent:
        b = scalar_mat_mul(ctx, a, rng.integers(0, ctx.order, (cols, 1)))[:, 0]
    else:
        b = rng.integers(0, ctx.order, rows)
    solutions = int(np.all(combos(ctx, all_vectors(ctx, cols), a.T) == b, axis=1).sum())
    status, x = mat_solve(ctx, a, b)
    assert status == {0: "inconsistent", 1: "unique"}.get(solutions, "multiple")
    if x is not None:
        assert np.array_equal(scalar_mat_mul(ctx, a, x[:, None])[:, 0], b)
