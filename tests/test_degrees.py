"""Degree profile formulas against the symbolic row-echelon oracle, and the
transform that build_code reads against that echelon's transform and the
paper's explicit basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsprod.degrees as degrees
import rsprod.field as field
from rsprod.codec import build_code
from rsprod.degrees import _transform, degree_profile, ref_basis
from rsprod.field import mat_rank
from rsprod.linearized import instantiate_standard

from reference import explicit_basis
from strategies import general_pair, pairs, standard_codes


def test_profile_n4_r2():
    prof = degree_profile(4, 2)
    assert set(prof.D) == {0, 1, 4, 8}
    assert prof.D == (0, 1, 4, 8)


def test_profile_n4_r3():
    prof = degree_profile(4, 3)
    assert set(prof.D) == {0, 1, 2, 4, 5, 8, 9, 12, 16}
    assert [k for _, k, _ in prof.breakpoints] == [3, 5, 7, 8, 9]
    assert [d for _, _, d in prof.breakpoints] == [2, 5, 9, 12, 16]
    assert [len(iv) for iv in prof.intervals] == [3, 2, 2, 1, 1]


def test_profile_r1():
    prof = degree_profile(4, 1)
    assert prof.D == (0,)
    assert prof.breakpoints == ((0, 1, 0),)


def test_profile_rejects_r_out_of_range():
    with pytest.raises(ValueError):
        degree_profile(4, 5)
    with pytest.raises(ValueError):
        degree_profile(4, 0)


@pytest.mark.parametrize("n,r", [(8, 3), (8, 8), (16, 5), (32, 8), (128, 64)])
def test_profile_structure(n, r):
    prof = degree_profile(n, r)
    assert len(prof.D) == r * r
    assert list(prof.D) == sorted(prof.D)
    # intervals are disjoint and cover D
    flat = [x for iv in prof.intervals for x in iv]
    assert len(set(flat)) == len(flat) and set(flat) == set(prof.D)
    assert prof.D[-1] == 2 * (r - 1) * n
    if r >= 3:
        assert prof.D[-2] == (2 * r - 3) * n
        assert prof.D[-3] == (2 * r - 4) * n + 1
    # cumulative interval sizes telescope to the breakpoint dimensions
    running = 0
    for t, (iv, (tt, k_t, d_t)) in enumerate(zip(prof.intervals, prof.breakpoints)):
        running += len(iv)
        assert tt == t
        assert running == k_t == (t + 1) * r - ((t + 1) // 2) * math.ceil((t + 1) / 2)
        assert d_t == max(iv)
    assert prof.breakpoints[-1][1] == r * r
    # k_t strictly increasing
    dims = prof.breakpoint_dims
    assert all(a < b for a, b in zip(dims, dims[1:]))


@pytest.mark.parametrize("n,r", [(16, 5), (16, 9), (32, 10)])
def test_within_interval_degree_rule(n, r):
    prof = degree_profile(n, r)
    k_prev = 0
    for t, k_t, d_t in prof.breakpoints:
        for k in range(k_prev + 1, k_t):
            assert prof.partial(k) == d_t - (k_t - k)
        assert prof.partial(k_t) == d_t
        k_prev = k_t


def test_max_degree_threshold():
    # largest degree reaches the code length exactly when r >= n/2 + 1
    for n in (4, 8, 16):
        for r in range(1, n + 1):
            prof = degree_profile(n, r)
            assert (max(prof.D) >= n * n) == (r >= n / 2 + 1)


@pytest.mark.parametrize("e,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 5)])
def test_ref_oracle_matches_formula(e, r):
    pair = instantiate_standard(e)
    prof = degree_profile(pair.n_frak, r)
    assert tuple(len(p) - 1 for p in ref_basis(pair, r)) == prof.D


def test_ref_oracle_general_pair():
    # also holds for a pair that is not the small-field instantiation
    from rsprod.field import FieldCtx
    from rsprod.linearized import LinearizedPoly, build_pair

    ctx = FieldCtx(6)
    pair = build_pair(LinearizedPoly(ctx, 1, (0xE, 0, 1)))
    for r in (1, 2, 3, 4):
        assert tuple(len(p) - 1 for p in ref_basis(pair, r)) == degree_profile(4, r).D


@pytest.mark.parametrize("e,r,expected", [(2, 2, 4), (2, 3, 9), (2, 1, 1)])
def test_rank_of_product_span(e, r, expected):
    pair = instantiate_standard(e)
    assert len(ref_basis(pair, r)) == expected


def test_ref_basis_is_monic_sorted_distinct():
    pair = instantiate_standard(2)
    basis = ref_basis(pair, 3)
    degs = [len(p) - 1 for p in basis]
    assert degs == sorted(degs) and len(set(degs)) == len(degs)
    for p in basis:
        assert int(p[-1]) == 1
    # evaluation vectors must lie in the product span: cross-check rank
    assert len(basis) == 9


def test_ref_cap(monkeypatch, capsys):
    import rsprod.degrees as degrees
    from rsprod.cli import main

    # r = 3 at n = 4: 9 rows of 2*2*4 + 1 + 9 = 26 cells
    pair = instantiate_standard(2)
    monkeypatch.setattr(degrees, "REF_MAX_CELLS", 9 * 26)
    assert len(ref_basis(pair, 3)) == 9
    monkeypatch.setattr(degrees, "REF_MAX_CELLS", 9 * 26 - 1)
    with pytest.raises(ValueError, match="capped"):
        ref_basis(pair, 3)
    # at the real cap (n, r) = (64, 32) is built, (64, 64) and (128, 64)
    # are refused before their 199 and 331 MB matrices exist
    monkeypatch.undo()
    rows = degrees._echelon(instantiate_standard(6), 32)
    assert rows.shape == (32 * 32, 2 * 31 * 64 + 1 + 32 * 32)

    def fail(*args, **kwargs):
        raise AssertionError("the echelon matrix must not be built")

    monkeypatch.setattr(degrees, "_product_rows", fail)
    for q_log in ("6", "7"):
        assert main(["build", "--q-log", q_log, "--r", "64", "--k", "1"]) == 2
        assert "error: row reduction capped" in capsys.readouterr().err


def echelon_transform(pair, r):
    """The S_l of the univariate echelon, (r^2, r, r)."""
    return degrees._echelon(pair, r)[:, -r * r :].reshape(-1, r, r)


def assert_transform_matches_echelon(pair, rs):
    for r in rs:
        got = _transform(pair, degree_profile(pair.n_frak, r))
        assert np.array_equal(got, echelon_transform(pair, r)), r


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_transform_matches_echelon_standard(e):
    pair = instantiate_standard(e)
    assert_transform_matches_echelon(pair, range(1, pair.n_frak + 1))


@pytest.mark.parametrize("i", [0, 1, 2])
def test_transform_matches_echelon_general(i):
    pair = general_pair(i)
    assert_transform_matches_echelon(pair, range(1, pair.n_frak + 1))


@pytest.mark.parametrize("e,c,poly", [(2, 7, 0x19), (3, 5, 0x61), (4, None, 0x11D), (3, 9, None)])
def test_transform_matches_echelon_overrides(e, c, poly):
    pair = instantiate_standard(e, c=c, reduction_poly=poly)
    assert_transform_matches_echelon(pair, range(1, pair.n_frak + 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=pairs(), data=st.data())
def test_transform_matches_echelon_property(pair, data):
    r = data.draw(st.integers(1, pair.n_frak), label="r")
    assert_transform_matches_echelon(pair, [r])


def test_build_code_forms_no_univariate_product(monkeypatch):
    pair = instantiate_standard(5)
    want = echelon_transform(pair, 16)[:240]

    def fail(*args, **kwargs):
        raise AssertionError("build_code must not expand the products")

    monkeypatch.setattr(degrees, "_product_rows", fail)
    monkeypatch.setattr(degrees, "poly_mul", fail)
    monkeypatch.setattr(field, "poly_mul", fail)
    code = build_code(pair, 16, 240)
    assert np.array_equal(code.S, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(code=standard_codes((1, 4)))
def test_explicit_basis_spans_every_prefix(code):
    # at every j <= k, S[:j] and the explicit basis's first j rows each have
    # rank j, and stacked they still do: they span the same space.  Every
    # row of either lies on one anti-diagonal a + b, so a rank is the sum
    # over the anti-diagonals of the rank of the rows on one, restricted to
    # its cells.
    ctx, r, k = code.ctx, code.r, code.k
    diag = np.add.outer(np.arange(r), np.arange(r)).reshape(-1)

    def on_diagonals(rows):
        out = []
        for row in rows:
            (d,) = np.unique(diag[row != 0])
            out.append((int(d), row[diag == d]))
        return out

    s = on_diagonals(code.S.reshape(k, r * r))
    explicit = on_diagonals(explicit_basis(r).reshape(r * r, r * r)[:k])
    rows = {"S": {}, "explicit": {}, "stacked": {}}
    ranks = {name: {} for name in rows}
    for j in range(k):
        for name, new in (("S", [s[j]]), ("explicit", [explicit[j]]), ("stacked", [s[j], explicit[j]])):
            for d, part in new:
                rows[name].setdefault(d, []).append(part)
                ranks[name][d] = mat_rank(ctx, np.array(rows[name][d]))
        assert {name: sum(rk.values()) for name, rk in ranks.items()} == dict.fromkeys(rows, j + 1)
