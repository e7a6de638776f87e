"""Code construction, encoding, the grid layout of words, membership in C_k
and in the product code, line repair, and the generator CSV export."""

import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsprod.codec import (
    _line_predictions,
    _log_differences,
    build_code,
    encode,
    export_generator_csv,
    in_code,
)
from rsprod.degrees import ref_basis
from rsprod.field import mat_rank, mat_solve, poly_compose, poly_eval_many
from rsprod.linearized import instantiate_standard
from rsprod.verify import _check_diagram

from reference import interpolate
from strategies import draw_code, pairs


@pytest.fixture(scope="module")
def pair_q4():
    return instantiate_standard(2)


def brute_min_weight(code):
    """Independent oracle: enumerate every message through per-row
    multiple tables, no shared code path with the analysis module."""
    ctx = code.ctx
    tables = [
        np.array([ctx.mul_arr(row, s) for s in range(ctx.order)]) for row in code.G
    ]
    best = code.length + 1
    for msg in itertools.product(range(ctx.order), repeat=code.k):
        if not any(msg):
            continue
        w = np.zeros(code.length, dtype=np.int64)
        for t, s in zip(tables, msg):
            w ^= t[s]
        best = min(best, int(np.count_nonzero(w)))
    return best


def test_full_product_code_q4_r2(pair_q4):
    code = build_code(pair_q4, 2, 4)
    assert mat_rank(code.ctx, code.G) == 4
    assert brute_min_weight(code) == 9  # (n - r + 1)^2


def test_k1_generator_is_constant_row(pair_q4):
    code = build_code(pair_q4, 2, 1)
    basis = ref_basis(pair_q4, 2)
    assert len(basis[0]) == 1 and int(basis[0][0]) == 1
    assert np.array_equal(code.S, [[[1, 0], [0, 0]]])
    assert np.count_nonzero(code.G[0]) == 16


def test_r3_k8_heavy_parity(pair_q4):
    code = build_code(pair_q4, 3, 8)
    assert code.Phi.shape == (1, 9)  # one heavy parity: one check on messages
    assert code.S.shape == (8, 3, 3)
    assert len(ref_basis(pair_q4, 3)[code.k - 1]) - 1 == 12  # (2r - 3) * n


def test_build_code_rejects_bad_params(pair_q4):
    with pytest.raises(ValueError):
        build_code(pair_q4, 5, 1)
    with pytest.raises(ValueError):
        build_code(pair_q4, 2, 5)
    with pytest.raises(ValueError):
        build_code(pair_q4, 2, 0)


def test_encode_unit_zero_random(pair_q4):
    code = build_code(pair_q4, 2, 3)
    e1 = [1, 0, 0]
    assert np.array_equal(encode(code, e1), code.G[0])
    assert not np.any(encode(code, [0, 0, 0]))
    rng = np.random.default_rng(2)
    for _ in range(20):
        msg = rng.integers(0, 16, size=3)
        word = encode(code, msg)
        assert in_code(code, word.reshape(4, 4))
    with pytest.raises(ValueError):
        encode(code, [1, 2])


@pytest.mark.parametrize("msg", [[-1, 0, 0], [16, 0, 0], [0, 0, 1 << 40]])
def test_encode_rejects_symbols_outside_the_field(pair_q4, msg):
    code = build_code(pair_q4, 2, 3)
    with pytest.raises(ValueError, match=r"GF\(2\^4\)"):
        encode(code, msg)
    with pytest.raises(ValueError):
        encode(code, np.array(msg))


def test_encode_in_column_blocks_matches_row_combination():
    # n = 32, k = 240: encode splits the 1024 columns into uneven blocks
    code = build_code(instantiate_standard(5), 16, 240)
    ctx = code.ctx
    rng = np.random.default_rng(11)
    for _ in range(3):
        msg = rng.integers(0, ctx.order, size=code.k)
        expect = np.bitwise_xor.reduce(ctx.mul_arr(code.G, msg[:, None]), axis=0)
        assert np.array_equal(encode(code, msg), expect)


def test_relabel_grid_of_simple_product(pair_q4):
    # s(x, y) = x*y composes to g*f; cell (beta, gamma) must hold beta*gamma
    ctx = pair_q4.ctx
    s = np.zeros((2, 2), dtype=np.int64)
    s[1, 1] = 1
    h = poly_compose(ctx, s, pair_q4.g.to_unipoly(), pair_q4.f.to_unipoly())
    word = poly_eval_many(ctx, h, np.array(pair_q4.eval_points, dtype=np.int64))
    grid = word.reshape(4, 4)
    for i, beta in enumerate(pair_q4.Zf):
        for j, gamma in enumerate(pair_q4.Zg):
            assert int(grid[i, j]) == ctx.mul(beta, gamma)


def test_local_membership_edge_cases(pair_q4):
    # membership in the product code of (pair, r) is in_code on C_{r^2}
    n = pair_q4.n_frak
    zero = np.zeros((n, n), dtype=np.int64)
    single = zero.copy()
    single[1, 1] = 7
    for r in (2, 3):
        product = build_code(pair_q4, r, r * r)
        assert in_code(product, zero)
        assert not in_code(product, single)
    # r = n admits everything
    assert in_code(build_code(pair_q4, n, n * n), single)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_diagram_commutes(e):
    # composed univariate evaluation equals direct bivariate evaluation,
    # exhaustively over the grid
    res = _check_diagram((e,), np.random.default_rng(40 + e), per_r=20)
    assert res.ok, res.detail


def test_compose_of_sum_is_identity(pair_q4):
    # s(x, y) = x + y with g + f = x composes to the identity polynomial
    ctx = pair_q4.ctx
    s = np.array([[0, 1], [1, 0]], dtype=np.int64)
    h = poly_compose(ctx, s, pair_q4.g.to_unipoly(), pair_q4.f.to_unipoly())
    assert np.array_equal(h, np.array([0, 1], dtype=np.int64))


def test_codes_nest(pair_q4):
    ctx = pair_q4.ctx
    prev_rows = None
    for k in range(1, 10):
        code = build_code(pair_q4, 3, k)
        assert mat_rank(ctx, code.G) == k
        if prev_rows is not None:
            assert np.array_equal(code.G[: k - 1], prev_rows)
        prev_rows = code.G


def test_encoded_words_relabel_into_product_code(pair_q4):
    # every row of G, viewed on the grid, has rows/columns of local degree < r
    for r, k in ((2, 4), (3, 9), (3, 7)):
        code = build_code(pair_q4, r, k)
        product = build_code(pair_q4, r, r * r)
        for row in code.G:
            assert in_code(product, row.reshape(4, 4))


def test_full_product_min_distance_q2():
    pair = instantiate_standard(1)
    code = build_code(pair, 2, 4)
    assert brute_min_weight(code) == 1  # r = n: (n - r + 1)^2 = 1


def test_interpolate_recovers_polynomial(pair_q4):
    ctx = pair_q4.ctx
    rng = np.random.default_rng(8)
    pts = list(pair_q4.Zg)
    for _ in range(10):
        coeffs = rng.integers(0, 16, size=len(pts))
        vals = poly_eval_many(ctx, np.trim_zeros(coeffs, "b"), np.array(pts))
        got = interpolate(ctx, pts, vals)
        assert np.array_equal(np.trim_zeros(got, "b"), np.trim_zeros(coeffs, "b"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e=st.integers(1, 4), data=st.data())
def test_line_predictions_match_interpolation(e, data):
    # the barycentric batch against per-line Lagrange interpolation and
    # Horner evaluation, on either point set, at every non-anchor point
    pair = instantiate_standard(e)
    ctx, n = pair.ctx, pair.n_frak
    points = data.draw(st.sampled_from([pair.Zf, pair.Zg]), label="points")
    r = data.draw(st.sampled_from([1, n]) | st.integers(1, n), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_lines = int(rng.integers(1, 6))
    lines = rng.integers(0, ctx.order, size=(n_lines, n))
    anchors = np.sort(
        np.array([rng.choice(n, size=r, replace=False) for _ in range(n_lines)]), axis=1
    )
    pred = _line_predictions(ctx, _log_differences(ctx, points), lines, anchors)
    pts = np.array(points, dtype=np.int64)
    for line, anc, got in zip(lines, anchors, pred):
        coeffs = interpolate(ctx, [int(pts[i]) for i in anc], line[anc])
        want = poly_eval_many(ctx, coeffs, pts)
        rest = np.setdiff1d(np.arange(n), anc)
        assert np.array_equal(got[rest], want[rest])


def reference_membership(pair, r, grid):
    """Every row has degree < r on Zg and every column on Zf, by
    interpolating through all n cells."""
    ctx = pair.ctx
    for lines, points in ((grid, pair.Zg), (grid.T, pair.Zf)):
        for line in lines:
            if np.any(interpolate(ctx, list(points), line)[r:]):
                return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e=st.integers(1, 3), data=st.data())
def test_local_membership_matches_interpolation(e, data):
    pair = instantiate_standard(e)
    n = pair.n_frak
    r = data.draw(st.integers(1, n), label="r")
    k = data.draw(st.integers(1, r * r), label="k")
    code = build_code(pair, r, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    word = encode(code, rng.integers(0, pair.ctx.order, size=k))
    # codewords, codewords off in a few cells, and whole-line changes that
    # keep the rows (or the columns) in the row code
    kind = data.draw(st.sampled_from(["codeword", "cells", "row"]), label="kind")
    grid = word.reshape(n, n)
    if kind == "cells":
        cells = rng.choice(n * n, size=int(rng.integers(1, 4)), replace=False)
        grid.reshape(-1)[cells] ^= rng.integers(1, pair.ctx.order, size=len(cells))
    elif kind == "row":
        grid[int(rng.integers(n))] = encode(code, rng.integers(0, pair.ctx.order, size=k))[:n]
    product = build_code(pair, r, r * r)
    assert in_code(product, grid) == reference_membership(pair, r, grid)


def test_generator_csv_export(pair_q4):
    code = build_code(pair_q4, 2, 3)
    text = export_generator_csv(code)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][2:])
    assert header == {
        "M": 4,
        "coordinate_order": "Zf-major",
        "k": 3,
        "q": 4,
        "r": 2,
        "reduction_poly_hex": "13",
    }
    assert len(lines) == 1 + 3
    first_row = [int(x, 16) for x in lines[1].split(",")]
    assert first_row == [int(x) for x in code.G[0]]
    # deterministic across calls
    assert text == export_generator_csv(build_code(pair_q4, 2, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=pairs(), data=st.data())
def test_generator_csv_parses_back(pair, data):
    code = draw_code(pair, data)
    text = export_generator_csv(code)
    head, body = text.split("\n", 1)
    assert head.startswith("# ")
    assert json.loads(head[2:]) == {
        "M": code.ctx.extension_degree,
        "coordinate_order": "Zf-major",
        "k": code.k,
        "q": pair.f.q,
        "r": code.r,
        "reduction_poly_hex": format(code.ctx.reduction_poly, "x"),
    }
    rows = [[int(x, 16) for x in row] for row in csv.reader(io.StringIO(body))]
    assert np.array_equal(np.array(rows, dtype=np.int64), code.G)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=pairs(), data=st.data())
def test_in_code_matches_solve_on_the_generator(pair, data):
    # codewords, words of the full product code, and one-cell corruptions
    code = draw_code(pair, data)
    full = build_code(pair, code.r, code.r * code.r)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = data.draw(st.sampled_from([code, full]), label="source")
    word = encode(source, rng.integers(0, code.ctx.order, size=source.k))
    if data.draw(st.booleans(), label="corrupt"):
        word[int(rng.integers(code.length))] ^= int(rng.integers(1, code.ctx.order))
    want = mat_solve(code.ctx, code.G.T, word)[0] != "inconsistent"
    assert in_code(code, word.reshape(pair.n_frak, -1)) == want
