"""Oracles: enumeration, spectra, erasure recoverability, peeling, double roots."""

import dataclasses
import functools
import itertools
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsprod import analysis
from rsprod.analysis import (
    BudgetExceeded,
    ErasureMask,
    _fill_lines,
    _pack_rows,
    _peel_core,
    _rank_recoverable,
    _scalings,
    _slice_spectrum,
    _spectrum_over,
    block_margin_mask,
    double_root_check,
    erasure_recoverable,
    exhaustive_distance,
    macwilliams_transform,
    peel_decode,
    sampled_distance,
    spectrum_via_dual,
    strip_margin_mask,
)
from rsprod.bounds import exact_distance
from rsprod.codec import _log_differences, build_code, encode, in_code
from rsprod.field import (
    FieldCtx,
    is_irreducible,
    mat_nullspace,
    mat_rank,
    mat_solve,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
    smallest_irreducible,
)
from rsprod.linearized import LinearizedPoly, build_pair, instantiate_standard, subfield
from rsprod.verify import _check_peel_consistency

import reference
from reference import full_spectrum, interpolate, parity_check_solve
from strategies import general_pair, standard_codes


@pytest.fixture(scope="module")
def pair_q4():
    return instantiate_standard(2)


@pytest.fixture(scope="module")
def pair_q2():
    return instantiate_standard(1)


def brute_spectrum(code):
    """Plain itertools enumeration, no shared path with the module."""
    ctx = code.ctx
    counts = {}
    for msg in itertools.product(range(ctx.order), repeat=code.k):
        word = [0] * code.length
        for m, row in zip(msg, code.G):
            if m:
                for idx in range(code.length):
                    word[idx] ^= ctx.mul(m, int(row[idx]))
        w = sum(1 for x in word if x)
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_exhaustive_matches_exact_distances_q4_r2(pair_q4):
    expected = [16, 15, 12, 9]
    for k in range(1, 5):
        code = build_code(pair_q4, 2, k)
        d, spectrum = exhaustive_distance(code)
        assert d == expected[k - 1] == exact_distance(4, 2, k)
        assert spectrum.counts[0] == 1
        assert spectrum.total == 16**k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exhaustive_spectrum_matches_brute_force_q2(pair_q2, k):
    code = build_code(pair_q2, 2, k)
    _, spectrum = exhaustive_distance(code)
    assert spectrum.counts == brute_spectrum(code)


def test_exhaustive_spectrum_matches_brute_force_q4(pair_q4):
    code = build_code(pair_q4, 3, 2)
    _, spectrum = exhaustive_distance(code)
    assert spectrum.counts == brute_spectrum(code)


def test_exhaustive_multi_word_q8():
    # 64 symbols of 6 bits each take seven packed words
    pair = instantiate_standard(3)
    code = build_code(pair, 2, 3)
    d, spectrum = exhaustive_distance(code)
    assert d == 56 == exact_distance(8, 2, 3)
    assert spectrum.total == 64**3


def test_exhaustive_budget():
    pair = instantiate_standard(2)
    code = build_code(pair, 3, 9)
    with pytest.raises(BudgetExceeded):
        exhaustive_distance(code, budget=2**28)


def brute_histogram(ctx, rows, length, base, values=None):
    """Weight histogram of base + sum_i m_i rows[i], the last m_i over
    ``values`` (all of F by default), by explicit XORs of unpacked words."""
    words = base.reshape(1, -1)
    for i, row in enumerate(rows):
        coeffs = np.arange(ctx.order) if values is None or i < len(rows) - 1 else values
        multiples = ctx.mul_arr(coeffs[:, None], row[None, :])
        words = (words[:, None, :] ^ multiples[None, :, :]).reshape(-1, length)
    return np.bincount(np.count_nonzero(words, axis=1), minlength=length + 1)


@pytest.mark.parametrize("m", range(1, 21))
def test_packed_weights_for_any_lane_width(m):
    # symbol widths that are not powers of two must not carry into the
    # neighbouring lane, and a last word may be partly filled
    ctx = FieldCtx(m)
    per = 64 // m
    rng = np.random.default_rng(m)
    for length in (per, 2 * per + 1):
        assert _pack_rows(ctx, length)["words"] == -(-length // per)
        if m < 8:
            rows = rng.integers(0, ctx.order, size=(2, length))
            base, values = np.zeros(length, dtype=np.int64), None
        else:
            # one row over a sample of F (all of it up to m = 10) and a
            # nonzero base
            rows = rng.integers(0, ctx.order, size=(1, length))
            base = rng.integers(1, ctx.order, size=length)
            values = np.arange(ctx.order) if m <= 10 else rng.choice(ctx.order, 1024)
        got = _spectrum_over(ctx, rows, length, base, values)
        assert np.array_equal(got, brute_histogram(ctx, rows, length, base, values))


@pytest.mark.parametrize("m", [1, 2, 3, 6, 10, 20])
def test_lane_test_edge_words(m):
    # the nonzero-lane test on two full words: a lane with only its top
    # bit, one with only its low bits (none at m = 1) and an all-ones lane,
    # alone at every position; then all-ones lanes beside zero lanes, and
    # every lane all ones
    ctx = FieldCtx(m)
    length = 2 * (64 // m)
    no_rows = np.zeros((0, length), dtype=np.int64)
    top, low, ones = 1 << (m - 1), (1 << (m - 1)) - 1, (1 << m) - 1

    def weight(word):
        counts = _spectrum_over(ctx, no_rows, length, word)
        assert counts.sum() == 1
        return int(np.flatnonzero(counts)[0])

    for symbol in (top, low, ones):
        for i in range(length):
            word = np.zeros(length, dtype=np.int64)
            word[i] = symbol
            assert weight(word) == (symbol != 0)
    for offset in (0, 1):
        word = np.zeros(length, dtype=np.int64)
        word[offset::2] = ones
        assert weight(word) == length // 2
    assert weight(np.full(length, ones)) == length


@pytest.mark.parametrize(
    "m,length,nrows",
    # one word (16 cells of 2 bits) with three and with four rows, four
    # words (64 cells of 3 bits) with three and with two rows, and one row
    [(2, 16, 3), (2, 16, 4), (3, 64, 3), (3, 64, 2), (4, 16, 1)],
)
def test_value_shares_sum_to_the_whole_span(m, length, nrows, monkeypatch):
    # every span here fits the block, top digit and all; with a limit of
    # one word the block keeps only its lowest digit, and the others, the
    # shared top digit among them, are enumerated as a product
    ctx = FieldCtx(m)
    rng = np.random.default_rng(m)
    rows = rng.integers(0, ctx.order, size=(nrows, length))
    base = rng.integers(0, ctx.order, size=length)
    want = brute_histogram(ctx, rows, length, base)
    shares = np.array_split(rng.permutation(ctx.order), 3)
    for limit in (analysis._BLOCK_DIGITS_LIMIT, 1):
        monkeypatch.setattr(analysis, "_BLOCK_DIGITS_LIMIT", limit)
        whole = _spectrum_over(ctx, rows, length, base)
        assert np.array_equal(whole, want)
        parts = [_spectrum_over(ctx, rows, length, base, share) for share in shares]
        assert [int(p.sum()) for p in parts] == [
            len(share) * ctx.order ** (nrows - 1) for share in shares
        ]
        assert np.array_equal(sum(parts), whole)


def test_sampled_distance(pair_q4):
    code = build_code(pair_q4, 2, 4)
    est = sampled_distance(code, 100_000, seed=1)
    assert est == 9  # hits the minimum with overwhelming probability
    assert sampled_distance(code, 50, seed=2) >= 9
    with pytest.raises(ValueError):
        sampled_distance(code, 0)


@pytest.mark.parametrize(
    "e,r,k,trials", [(1, 2, 3, 20_000), (2, 3, 7, 3000), (4, 12, 132, 3000), (5, 16, 240, 1500)]
)
def test_sampled_distance_matches_generator_product(e, r, k, trials):
    # the words of the tensor form are m . G, so the estimate is the one of
    # the generator product on the same draws, and G is never built
    code = build_code(instantiate_standard(e), r, k)
    got = sampled_distance(code, trials, seed=5)
    assert "G" not in code.__dict__
    assert got == reference.sampled_distance(code, trials, seed=5)


def test_sampled_distance_slices_stay_under_the_cap(monkeypatch):
    code = build_code(instantiate_standard(5), 16, 240)
    cap = analysis._BLOCK_ELEMS
    real = analysis._grid_values
    seen = []

    def grid_values(code, s):
        seen.append(s.shape[0])
        return real(code, s)

    monkeypatch.setattr(analysis, "_grid_values", grid_values)
    sampled_distance(code, 500, seed=0)
    assert sum(seen) == 500 and len(seen) > 1
    assert max(seen) * code.length <= cap


def test_second_weight_of_full_product_q4_r2(pair_q4):
    code = build_code(pair_q4, 2, 4)
    _, spectrum = exhaustive_distance(code)
    nonzero = sorted(w for w in spectrum.counts if w > 0)
    assert nonzero[0] == 9
    assert nonzero[1] == 12  # delta * (delta + 1)


def test_macwilliams_against_direct_dual_enumeration(pair_q2):
    for k in (1, 2, 3):
        code = build_code(pair_q2, 2, k)
        _, spectrum = exhaustive_distance(code)
        dual_rows = mat_nullspace(code.ctx, code.G)
        dual_counts = {}
        for msg in itertools.product(range(4), repeat=len(dual_rows)):
            word = np.zeros(4, dtype=np.int64)
            for m, row in zip(msg, dual_rows):
                word ^= code.ctx.mul_arr(row, m)
            w = int(np.count_nonzero(word))
            dual_counts[w] = dual_counts.get(w, 0) + 1
        assert macwilliams_transform(spectrum.counts, 4, 4) == dual_counts
        assert reference.macwilliams_transform(spectrum.counts, 4, 4) == dual_counts
        # involution: transforming twice returns the original
        assert macwilliams_transform(dual_counts, 4, 4) == spectrum.counts


def test_spectrum_via_dual_matches_direct(pair_q2):
    for k in (2, 3, 4):
        code = build_code(pair_q2, 2, k)
        _, direct = exhaustive_distance(code)
        via_dual = spectrum_via_dual(code)
        assert via_dual.counts == direct.counts


# ---------------------------------------------------------------------------
# One translation slice against the whole span
# ---------------------------------------------------------------------------


def translation_basis(pair):
    """A GF(2) basis of the evaluation points, an additive subgroup."""
    basis, span = [], {0}
    for t in pair.eval_points:
        if t not in span:
            basis.append(t)
            span |= {x ^ t for x in span}
    return basis


SLICE_PAIRS = {
    "q4": lambda: instantiate_standard(2),
    "q8": lambda: instantiate_standard(3),
    "q16": lambda: instantiate_standard(4),
    "q32": lambda: instantiate_standard(5),
    "gf64": lambda: general_pair(0),
    "gf256": lambda: general_pair(2),
    # x^4 + 14 x and x^4 + 15 x split over GF(2^10): 16 points
    "gf1024": lambda: build_pair(LinearizedPoly(FieldCtx(10), 1, (14, 0, 1))),
}


@pytest.mark.parametrize(
    "name,r,k",
    [("q4", 3, k) for k in (1, 4, 6, 7, 8)]
    + [("q8", 4, k) for k in (5, 9, 11, 13)]
    + [("gf64", 3, 5), ("gf256", 3, 7)],
)
def test_codes_are_translation_invariant(name, r, k):
    pair = SLICE_PAIRS[name]()
    code = build_code(pair, r, k)
    index = {a: i for i, a in enumerate(pair.eval_points)}
    basis = translation_basis(pair)
    assert len(basis) == 2 * (pair.n_frak.bit_length() - 1)
    for t in basis:
        moved = code.G[:, [index[a ^ t] for a in pair.eval_points]]
        assert mat_rank(code.ctx, np.vstack([code.G, moved])) == k


@pytest.mark.parametrize(
    "name,r,k,workers",
    [
        # one word: 16 cells of 4 bits; k = 1 enumerates the base alone
        ("q4", 2, 1, 1), ("q4", 2, 3, 1), ("q4", 3, 4, 2),
        # seven words: 64 cells of 6 bits
        ("q8", 2, 1, 2), ("q8", 2, 3, 1), ("q8", 2, 3, 2),
        # 32 words of 8-bit cells, 171 words of 10-bit cells
        ("q16", 2, 2, 1), ("q16", 2, 2, 2), ("q32", 2, 1, 1),
        # evaluation sets that are proper subspaces of the field, the last
        # in three words of 10-bit cells
        ("gf64", 3, 3, 1), ("gf256", 2, 2, 2), ("gf1024", 2, 2, 1), ("gf1024", 2, 2, 2),
        # one value of digit 1 per GF(q)*-orbit
        ("q4", 3, 5, 2), ("q4", 4, 4, 2), ("q8", 3, 3, 2), ("q16", 3, 2, 2),
    ],
)
def test_slice_spectrum_matches_full_enumeration(name, r, k, workers):
    # workers= is accepted and ignored: every value gives the serial spectrum
    code = build_code(SLICE_PAIRS[name](), r, k)
    d, spectrum = exhaustive_distance(code, workers=workers)
    assert spectrum.counts == full_spectrum(code.ctx, code.G)
    assert list(spectrum.counts) == sorted(spectrum.counts)
    assert d == min(w for w in spectrum.counts if w)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_slice_spectrum_of_the_dual_matches_full_enumeration(pair_q2, k, workers):
    code = build_code(pair_q2, 2, k)
    assert _slice_spectrum(code.ctx, code.H) == full_spectrum(code.ctx, code.H)
    via_dual = spectrum_via_dual(code)
    assert via_dual.counts == full_spectrum(code.ctx, code.G)
    # the primal slice, reached through the workers= keyword, agrees
    _, primal = exhaustive_distance(code, workers=workers)
    assert primal.counts == via_dual.counts


def test_workers_keyword_is_ignored_and_starts_no_process(pair_q4, monkeypatch):
    code = build_code(pair_q4, 3, 7)
    _, serial = exhaustive_distance(code, workers=1)

    def no_fork():
        raise AssertionError("a child process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    _, spectrum = exhaustive_distance(code, workers=2)
    assert spectrum.counts == serial.counts


def test_slice_spectrum_guards():
    ctx = FieldCtx(2)
    assert _slice_spectrum(ctx, np.zeros((0, 4), dtype=np.int64)) == {0: 1}
    with pytest.raises(AssertionError, match="coordinate 0"):
        _slice_spectrum(ctx, np.array([[0, 1, 1, 1]]))
    # a span no translation group acts on: one weight-1 word per slice
    # would stand for 4 * 3 words of weight 1
    with pytest.raises(AssertionError, match="wrong total"):
        _slice_spectrum(ctx, np.array([[1, 0, 0, 0]]))


def test_long_run_warning_counts_the_slice(pair_q4, monkeypatch):
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 16)
    # the words enumerated: (5 orbits of digit 1 + zero) * 16, not 16^2
    with pytest.warns(RuntimeWarning, match="enumeration of 96 codewords"):
        exhaustive_distance(build_code(pair_q4, 2, 3), budget=16**3)
    # the dual route warns by the same count: a 3-row H leaves 16^2 words
    with pytest.warns(RuntimeWarning, match="enumeration of 256 codewords"):
        spectrum_via_dual(build_code(pair_q4, 4, 13), budget=16**3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exhaustive_distance(build_code(pair_q4, 2, 2), budget=16**2)
        spectrum_via_dual(build_code(pair_q4, 4, 14), budget=16**2)


# ---------------------------------------------------------------------------
# One value of message digit 1 per GF(q)*-orbit
# ---------------------------------------------------------------------------


def largest_c(q_log):
    """The largest field element outside the order-q subfield: a c other
    than the default."""
    ctx = FieldCtx(2 * q_log)
    return max(set(ctx.elements()) - set(subfield(ctx, q_log)))


def second_irreducible(m):
    """An irreducible reduction polynomial of degree m other than the
    default."""
    default = smallest_irreducible(m)
    return next(p for p in range(default + 1, 1 << (m + 1)) if is_irreducible(p, m))


@pytest.mark.parametrize(
    "make,r,k",
    [
        (lambda: instantiate_standard(2), 3, 9),
        (lambda: instantiate_standard(2, c=largest_c(2)), 3, 7),
        (lambda: instantiate_standard(3), 8, 64),
        (lambda: instantiate_standard(3, reduction_poly=second_irreducible(6)), 4, 11),
        (lambda: instantiate_standard(4), 6, 36),
        (lambda: instantiate_standard(4, c=largest_c(4)), 5, 20),
        (lambda: instantiate_standard(4, reduction_poly=second_irreducible(8)), 3, 8),
    ],
)
def test_scalings_multiply_each_generator_row(make, r, k):
    # alpha -> lambda alpha permutes the grid, and for every lambda of
    # GF(q)* row l of G comes back multiplied by lambda^(D[l] mod (q - 1))
    pair = make()
    code = build_code(pair, r, k)
    ctx, q = code.ctx, pair.f.q
    index = {a: i for i, a in enumerate(pair.eval_points)}
    grades = np.array(code.profile.D[:k]) % (q - 1)
    scalars = subfield(ctx, pair.f.q_log)[1:]
    assert len(scalars) == q - 1 and _scalings(code) == q - 1
    for lam in scalars:
        moved = code.G[:, [index[ctx.mul(lam, a)] for a in pair.eval_points]]
        assert np.array_equal(moved, ctx.mul_arr(ctx.pow_arr(lam, grades)[:, None], code.G))


def test_scalings_check_the_grading(pair_q4):
    # an entry of S off its row's grade breaks the premise, and is caught
    # before any enumeration
    code = build_code(pair_q4, 3, 7)
    s = code.S.copy()
    s[1, 0, 0] = 1  # a + b = 0, while D[1] = 1
    with pytest.raises(AssertionError, match="not graded"):
        exhaustive_distance(dataclasses.replace(code, S=s))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(code=standard_codes((2, 3), max_messages=1 << 16))
def test_orbit_spectrum_matches_full_enumeration(code):
    assert exhaustive_distance(code)[1].counts == full_spectrum(code.ctx, code.G)


def test_orbit_weight_q_is_caught(pair_q4, monkeypatch):
    # counting each orbit q times instead of q - 1 must trip a guard
    real = analysis._top_values

    def weight_q(ctx, scalings):
        return [(values, w + 1 if w > 1 else w) for values, w in real(ctx, scalings)]

    monkeypatch.setattr(analysis, "_top_values", weight_q)
    for code in (build_code(pair_q4, 2, 3), build_code(pair_q4, 3, 7), build_code(instantiate_standard(3), 2, 2)):
        with pytest.raises(AssertionError):
            exhaustive_distance(code)


def test_erasure_recoverable_edges(pair_q4):
    code = build_code(pair_q4, 2, 4)
    empty = ErasureMask.from_flat(4, np.zeros(16, dtype=bool))
    assert erasure_recoverable(code, empty)
    # fewer than k survivors can never determine the message
    almost_all = ErasureMask.from_flat(4, np.arange(16) < 13)
    assert not erasure_recoverable(code, almost_all)


def test_erasure_mask_casts_an_int_grid_to_bool(pair_q4):
    # kept as ints, the grid would index whole rows when the decoder clears
    # the erased cells, and a valid codeword would be called inconsistent
    code = build_code(pair_q4, 3, 7)
    word = encode(code, [1, 2, 3, 4, 5, 6, 7])
    grid = np.zeros((4, 4), dtype=np.int64)
    grid[1, 2] = 1
    mask = ErasureMask(4, grid)
    assert mask.erased.dtype == bool and mask.count == 1
    assert erasure_recoverable(code, mask)
    res = peel_decode(code, word, mask)
    assert res.ok and np.array_equal(res.word, word)


@pytest.mark.parametrize(
    "shape", [(3, 3), (4, 5), (16,), (1, 4, 4)], ids=["3x3", "4x5", "flat", "3-d"]
)
def test_erasure_mask_rejects_a_grid_of_the_wrong_shape(pair_q4, shape):
    # a 3 x 3 grid for n = 4 used to get a verdict, True, as if it were a mask
    with pytest.raises(ValueError, match=r"erasure grid must have shape \(4, 4\)"):
        ErasureMask(4, np.zeros(shape, dtype=bool))


def test_block_margin_mask_geometry():
    mask = block_margin_mask(4, 2, 1, 1)
    black = (1 + 2) * (1 + 2)
    gray = 2 * (2 - 1 - 1 + 2)
    assert mask.count == black + gray
    with pytest.raises(ValueError):
        block_margin_mask(4, 2, 3, 0)


def test_block_margin_pattern_consistent_with_distance(pair_q4):
    # black + gray >= n^2 - k + 1 forces non-recoverability
    code = build_code(pair_q4, 2, 4)
    mask = block_margin_mask(4, 2, 1, 1)
    assert mask.count >= 16 - 4 + 1
    assert not erasure_recoverable(code, mask)
    # black part alone has size (a+n-r)(b+n-r) = 9 = d: ambiguous
    er = np.zeros((4, 4), dtype=bool)
    rows = [0, 2, 3]
    cols = [0, 2, 3]
    er[np.ix_(rows, cols)] = True
    assert not erasure_recoverable(code, ErasureMask(4, er))


def test_strip_margin_mask_geometry():
    for n, r, a, b in ((8, 3, 2, 5), (4, 2, 3, 3), (8, 5, 0, 0)):
        delta = n - r + 1
        mask = strip_margin_mask(n, r, a, b)
        assert mask.count == a * (n - 1) + b + (n - a - 1) * (delta - 1) + (delta - 1)
        # last column carries exactly delta - 1 erasures
        assert int(mask.erased[:, n - 1].sum()) == delta - 1
    with pytest.raises(ValueError):
        strip_margin_mask(4, 1, 0, 0)


def test_peel_single_erased_row(pair_q4):
    code = build_code(pair_q4, 3, 5)
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 16, size=5)
    word = encode(code, msg)
    er = np.zeros((4, 4), dtype=bool)
    er[2] = True
    res = peel_decode(code, word, ErasureMask(4, er))
    assert res.ok and not res.used_global
    assert np.array_equal(res.word, word)


def test_peel_gray_region_recovers_without_global(pair_q4):
    # the margins of the block pattern peel off with black intact
    code = build_code(pair_q4, 2, 4)
    full = block_margin_mask(4, 2, 1, 1).erased
    black = np.zeros((4, 4), dtype=bool)
    rowsel = np.array([True, False, True, True])
    colsel = np.array([True, False, True, True])
    black[np.ix_(rowsel, colsel)] = True
    gray_only = full & ~black
    rng = np.random.default_rng(5)
    word = encode(code, rng.integers(0, 16, size=4))
    res = peel_decode(code, word, ErasureMask(4, gray_only))
    assert res.ok and not res.used_global
    assert np.array_equal(res.word, word)


def test_peel_fails_on_minimum_weight_support(pair_q4):
    # erase exactly the support of a weight-9 codeword: ambiguous by design
    code = build_code(pair_q4, 2, 4)
    ctx = code.ctx
    beta0, gamma0 = pair_q4.Zf[1], pair_q4.Zg[2]
    grid = np.zeros((4, 4), dtype=np.int64)
    for i, beta in enumerate(pair_q4.Zf):
        for j, gamma in enumerate(pair_q4.Zg):
            grid[i, j] = ctx.mul(beta ^ beta0, gamma ^ gamma0)
    support = grid != 0
    assert int(support.sum()) == 9
    mask = ErasureMask(4, support)
    assert not erasure_recoverable(code, mask)
    res = peel_decode(code, np.zeros(16, dtype=np.int64), mask)
    assert not res.ok
    assert res.residual is not None and res.residual.count > 0


def test_peel_detects_inconsistent_input(pair_q4):
    code = build_code(pair_q4, 2, 4)
    word = encode(code, [1, 2, 3, 4])
    word = word.copy()
    word[0] ^= 5  # corrupt a known symbol
    er = np.zeros((4, 4), dtype=bool)
    er[0, 1] = True
    with pytest.raises(ValueError, match="interpolation mismatch|not consistent"):
        peel_decode(code, word, ErasureMask(4, er))


@pytest.mark.parametrize("e,r,k", [(2, 2, 3), (2, 3, 7)])
def test_peel_consistent_with_rank_oracle(e, r, k):
    result = _check_peel_consistency(((e, r, k),), np.random.default_rng(100 * e + k), 200)
    assert result.ok, result.detail


def test_peel_rejects_a_peeled_word_outside_the_subcode(pair_q4):
    # the full-code word of e_8 agrees with the product code everywhere, so
    # peeling fills (0, 0) with no mismatch; the word is not in C_7
    full, code = build_code(pair_q4, 3, 9), build_code(pair_q4, 3, 7)
    word = encode(full, [0] * 8 + [1])
    assert mat_solve(code.ctx, code.G.T, word)[0] == "inconsistent"
    er = np.zeros((4, 4), dtype=bool)
    er[0, 0] = True
    with pytest.raises(ValueError, match="not consistent with any codeword"):
        peel_decode(code, word, ErasureMask(4, er))


def test_peel_rejects_a_bad_symbol_on_lines_without_erasures(pair_q4):
    # row 0 keeps exactly r = 3 cells, so only (0, 0) is predicted; row 1
    # and column 1 carry no erasure and are never interpolated
    code = build_code(pair_q4, 3, 7)
    word = encode(code, [1, 2, 3, 4, 5, 6, 7])
    er = np.zeros((4, 4), dtype=bool)
    er[0, 0] = True
    mask = ErasureMask(4, er)
    res = peel_decode(code, word, mask)
    assert res.ok and not res.used_global and np.array_equal(res.word, word)
    bad = word.copy()
    bad[1 * 4 + 1] ^= 1
    with pytest.raises(ValueError, match="not consistent with any codeword"):
        peel_decode(code, bad, mask)


def test_peel_rejects_a_wrong_length_and_symbols_outside_the_field(pair_q4):
    code = build_code(pair_q4, 2, 3)
    word = encode(code, [1, 2, 3])
    er = np.zeros((4, 4), dtype=bool)
    er[0, 0] = True
    mask = ErasureMask(4, er)
    with pytest.raises(ValueError, match="word length must be 16"):
        peel_decode(code, word[:15], mask)
    for symbol in (-1, 16):
        bad = word.copy()
        bad[5] = symbol
        with pytest.raises(ValueError, match=r"GF\(2\^4\)"):
            peel_decode(code, bad, mask)
    # Python ints past int64 fail the same way, not with OverflowError
    for symbol in (1 << 63, 1 << 64):
        bad = [int(x) for x in word]
        bad[5] = symbol
        with pytest.raises(ValueError, match=r"GF\(2\^4\)"):
            peel_decode(code, bad, mask)
    # a float or string symbol is not truncated into the field, and a float
    # word is refused whole, even one whose every symbol is integral
    for symbol in (5.5, "5"):
        bad = [int(x) for x in word]
        bad[5] = symbol
        with pytest.raises(ValueError, match=r"GF\(2\^4\)"):
            peel_decode(code, bad, mask)
    halves = word.astype(float)
    halves[5] += 0.5
    for bad in (halves, word.astype(float)):
        with pytest.raises(ValueError, match=r"GF\(2\^4\)"):
            peel_decode(code, bad, mask)
    # an erased cell carries no symbol, so its value is not checked
    junk = word.copy()
    junk[0] = -1
    assert np.array_equal(peel_decode(code, junk, mask).word, word)


# ---------------------------------------------------------------------------
# Batched barycentric line repair against per-line interpolation
# ---------------------------------------------------------------------------


def reference_fill(ctx, r, points, lines, erased):
    """One repair pass line by line: Lagrange interpolation through the
    first r survivors and Horner evaluation at every point.  Returns the
    filled copies, or None when a known symbol disagrees."""
    lines, erased = lines.copy(), erased.copy()
    for i in range(len(lines)):
        idx = np.nonzero(~erased[i])[0]
        if not erased[i].any() or len(idx) < r:
            continue
        use = idx[:r]
        coeffs = interpolate(ctx, [int(points[j]) for j in use], lines[i, use])
        preds = poly_eval_many(ctx, coeffs, np.asarray(points, dtype=np.int64))
        if np.any(preds[idx] != lines[i, idx]):
            return None
        lines[i], erased[i] = preds, False
    return lines, erased


def reference_peel(code, word, mask):
    """The per-line peeling loop: ("mismatch",) when a repairable line
    disagrees with a known symbol, else ("peeled", grid, erased)."""
    pair = code.pair
    grid = np.array(word, dtype=np.int64).reshape(pair.n_frak, pair.n_frak)
    erased = mask.erased.copy()
    grid[erased] = 0
    progress = True
    while progress and erased.any():
        before = erased.sum()
        out = reference_fill(code.ctx, code.r, pair.Zg, grid, erased)
        if out is None:
            return ("mismatch",)
        grid, erased = out
        out = reference_fill(code.ctx, code.r, pair.Zf, grid.T, erased.T)
        if out is None:
            return ("mismatch",)
        grid, erased = out[0].T.copy(), out[1].T.copy()
        progress = erased.sum() < before
    return ("peeled", grid, erased)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(e=st.integers(1, 5), data=st.data())
def test_fill_lines_matches_per_line_interpolation(e, data):
    pair = instantiate_standard(e)
    ctx, n = pair.ctx, pair.n_frak
    points = data.draw(st.sampled_from([pair.Zf, pair.Zg]), label="points")
    r = data.draw(st.sampled_from([1, n]) | st.integers(1, n), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pts = np.array(points, dtype=np.int64)
    n_lines = 6
    # each line lies on a random polynomial of degree < r; its survivors
    # number exactly r, all n, or anything, and a few lines get a wrong cell.
    # Some lines are zero at all of their anchors, their first r survivors,
    # or at some of them, which a random line over a large field never is.
    lines = np.zeros((n_lines, n), dtype=np.int64)
    erased = np.zeros((n_lines, n), dtype=bool)
    for i in range(n_lines):
        keep = data.draw(st.sampled_from([r, n]) | st.integers(0, n), label="survivors")
        erased[i, rng.choice(n, size=n - keep, replace=False)] = True
        coeffs = rng.integers(0, ctx.order, size=r)
        anchors = np.flatnonzero(~erased[i])[:r]
        zeros = data.draw(st.sampled_from(["none", "all", "some"]), label="zero anchors")
        if zeros == "all":
            coeffs[:] = 0
        elif zeros == "some" and 0 < len(anchors) and r > 1:
            size = int(rng.integers(1, min(r - 1, len(anchors)) + 1))
            roots = rng.choice(anchors, size=size, replace=False)
            coeffs = poly_mul(ctx, poly_from_roots(ctx, pts[roots]), coeffs[len(roots) :])
        lines[i] = poly_eval_many(ctx, coeffs, pts)
    # a wrong symbol anywhere, or where the repair checks it: a known cell
    # past the first r survivors of a line with an erasure
    corrupt = data.draw(st.sampled_from(["none", "any cell", "checked cell"]), label="corrupt")
    known = ~erased
    checked = known & (np.cumsum(known, axis=1) > r) & erased.any(axis=1, keepdims=True)
    cells = checked if corrupt == "checked cell" else np.full_like(known, corrupt == "any cell")
    if cells.any():
        i, j = np.argwhere(cells)[rng.integers(cells.sum())]
        lines[i, j] ^= int(rng.integers(1, ctx.order))
    lines[erased] = 0
    want = reference_fill(ctx, r, pts, lines, erased)
    got_lines, got_erased = lines.copy(), erased.copy()
    if want is None:
        with pytest.raises(ValueError, match="interpolation mismatch on a known symbol"):
            _fill_lines(ctx, r, _log_differences(ctx, pts), got_lines, got_erased)
        return
    filled = _fill_lines(ctx, r, _log_differences(ctx, pts), got_lines, got_erased)
    assert filled == bool((got_erased != erased).any())
    assert np.array_equal(got_lines, want[0]) and np.array_equal(got_erased, want[1])


@functools.lru_cache(maxsize=None)
def general_code(r, k):
    """A code on a pair whose Zg is no scalar multiple of Zf, so row and
    column repair do not share one Lagrange basis."""
    return build_code(general_pair(1), r, k)


@pytest.mark.parametrize(
    "e,r,k,rates,examples",
    [
        pytest.param(2, 2, 3, [0.1, 0.3, 0.5, 0.7], 40, id="2-2-3"),
        pytest.param(3, 3, 4, [0.1, 0.3, 0.5, 0.7], 40, id="3-3-4"),
        pytest.param(3, 5, 20, [0.1, 0.3, 0.5, 0.7], 40, id="3-5-20"),
        pytest.param("general", 3, 5, [0.1, 0.3, 0.5, 0.7], 40, id="general-3-5"),
        # the benchmark's sparse code, where every repairable line has
        # n - r = 16 cells to predict; its reference peel is slow
        pytest.param(5, 16, 240, [0.1, 0.15], 6, id="5-16-240"),
    ],
)
def test_peel_raises_exactly_on_a_repairable_mismatch(e, r, k, rates, examples):
    code = general_code(r, k) if e == "general" else cached_code(e, r, k)
    n, ctx = code.n_frak, code.ctx

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        word = encode(code, rng.integers(0, ctx.order, size=k))
        bad = data.draw(st.integers(0, 3), label="bad")
        cells = rng.choice(code.length, size=bad, replace=False)
        word[cells] ^= rng.integers(1, ctx.order, size=len(cells))
        p = data.draw(st.sampled_from(rates), label="p")
        mask = ErasureMask.from_flat(n, rng.random(code.length) < p)
        want = reference_peel(code, word, mask)
        if want[0] == "mismatch":
            with pytest.raises(ValueError, match="interpolation mismatch on a known symbol"):
                peel_decode(code, word, mask)
            return
        _, grid, erased = want
        try:
            res = peel_decode(code, word, mask)
        except ValueError as exc:
            # past the line checks only the global solve, or the membership
            # check of a fully peeled grid, finds the survivors inconsistent
            assert "not consistent with any codeword" in str(exc)
            if not erased.any():
                assert mat_solve(ctx, code.G.T, grid.reshape(-1))[0] == "inconsistent"
            return
        assert res.used_global == bool(erased.any())
        if not erased.any():
            assert np.array_equal(res.word, grid.reshape(-1))
            assert mat_solve(ctx, code.G.T, res.word)[0] == "unique"
        elif res.residual is not None:
            assert np.array_equal(res.residual.erased, erased)

    check()


def test_peel_mismatch_first_seen_in_column_pass(pair_q4):
    # every row keeps one cell (< r = 2), so the row pass repairs nothing;
    # column 0 keeps three cells, and the third disagrees with the line
    # through the first two
    code = build_code(pair_q4, 2, 3)
    word = encode(code, [3, 1, 4])
    er = np.ones((4, 4), dtype=bool)
    er[0:3, 0] = False
    er[3, 1] = False
    mask = ErasureMask(4, er)
    res = peel_decode(code, word, mask)
    assert res.ok and np.array_equal(res.word, word)
    bad = word.copy()
    bad[2 * 4 + 0] ^= 1
    assert reference_peel(code, bad, mask) == ("mismatch",)
    with pytest.raises(ValueError, match="interpolation mismatch on a known symbol"):
        peel_decode(code, bad, mask)


# ---------------------------------------------------------------------------
# Structural oracle (peeling core + smaller-side rank) against the rank oracle
# ---------------------------------------------------------------------------

# (e, r, k): the cores' free row cells N (see analysis._solve_core) land
# below k (the line side) and at or above it (the generator route) across
# these codes; at (16, 12, 132) and (16, 12, 143) every core small enough to
# be recoverable takes the line side, since N <= |E'| <= n^2 - k < k
ORACLE_CASES = [(2, 2, 3), (2, 3, 7), (3, 3, 4), (3, 5, 20), (4, 12, 132), (4, 12, 143)]


@functools.lru_cache(maxsize=None)
def cached_code(e, r, k):
    return build_code(instantiate_standard(e), r, k)


@st.composite
def block_noise_masks(draw, n):
    """A random rows x columns block united with uniform noise: blocks give
    small peeling cores, the noise density sweeps the rest."""
    rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    er = np.random.default_rng(seed).random((n, n)) < p
    er[np.ix_(rows, cols)] = True
    return ErasureMask(n, er)


@st.composite
def uniform_masks(draw, n):
    """Every cell erased with one probability."""
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return ErasureMask(n, np.random.default_rng(seed).random((n, n)) < p)


@st.composite
def route_boundary_masks(draw, n, r, k):
    """An a x b block of erasures on random rows and columns, its own
    peeling core since a, b > n - r, with N = a (b - (n - r)) free row cells
    among the nearest to k from below and from above: both sides of the
    choice between the line side and the generator route.  Up to two
    cells of the block may survive."""
    d = n - r
    sizes = [(a, b) for a in range(d + 1, n + 1) for b in range(d + 1, n + 1)]
    below = sorted((a * (b - d), a, b) for a, b in sizes if a * (b - d) < k)[-4:]
    above = sorted((a * (b - d), a, b) for a, b in sizes if a * (b - d) >= k)[:4]
    _, a, b = draw(st.sampled_from(below + above))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    er = np.zeros((n, n), dtype=bool)
    er[np.ix_(rng.choice(n, a, replace=False), rng.choice(n, b, replace=False))] = True
    er.flat[rng.choice(np.flatnonzero(er), draw(st.integers(0, 2)), replace=False)] = False
    return ErasureMask(n, er)


def erasure_masks(code):
    return (
        block_noise_masks(code.n_frak)
        | uniform_masks(code.n_frak)
        | route_boundary_masks(code.n_frak, code.r, code.k)
    )


def sequential_core(erased, r, rows_first):
    """Peel one line at a time, all rows then all columns (or the reverse)."""
    core = erased.copy()
    first = core if rows_first else core.T
    n = len(core)
    changed = True
    while changed:
        changed = False
        for lines in (first, first.T):
            for i in range(n):
                if lines[i].any() and n - lines[i].sum() >= r:
                    lines[i] = False
                    changed = True
    return core


@pytest.mark.parametrize("e,r,k", ORACLE_CASES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_structural_oracle_matches_rank(e, r, k, data):
    code = cached_code(e, r, k)
    mask = data.draw(erasure_masks(code))
    assert erasure_recoverable(code, mask) == _rank_recoverable(code, mask)


def assert_decodes_as_the_generator(code, mask, msg, cell, error):
    """peel_decode on the word of ``msg`` against the solve on all of
    G[:, survivors]: its word or its residual, the peeling core, and then
    with ``error`` added at the surviving ``cell``, if any survives.  One
    wrong known symbol must raise exactly when no codeword fits the
    survivors, whether peeling, the core's solve or in_code finds it;
    otherwise the decoder returns the codeword that fits, if only one
    does."""
    ctx = code.ctx
    word = encode(code, msg)
    core = _peel_core(mask.erased, code.r)
    res = peel_decode(code, word, mask)
    assert res.used_global == core.any()
    if res.ok:
        assert np.array_equal(res.word, word)
    else:
        assert np.array_equal(res.residual.erased, core)
    surv = ~mask.flat()
    assert res.ok == (mat_solve(ctx, code.G[:, surv].T, word[surv])[0] == "unique")
    if not surv.any():
        return
    bad = word.copy()
    bad[np.flatnonzero(surv)[cell % surv.sum()]] ^= error
    status, fit = mat_solve(ctx, code.G[:, surv].T, bad[surv])
    if status == "inconsistent":
        with pytest.raises(ValueError, match="interpolation mismatch|not consistent"):
            peel_decode(code, bad, mask)
    else:
        res = peel_decode(code, bad, mask)
        assert res.ok == (status == "unique")
        assert np.array_equal(res.word, encode(code, fit)) if res.ok else res.residual.erased.any()


@pytest.mark.parametrize("e,r,k", [(2, 3, 7), (3, 5, 20), (4, 12, 132), (4, 12, 143)])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_peel_residual_is_mask_core(e, r, k, data):
    code = cached_code(e, r, k)
    ctx = code.ctx
    mask = data.draw(erasure_masks(code))
    msg = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=k, max_size=k))
    cell = data.draw(st.integers(0, code.length - 1), label="cell")
    error = data.draw(st.integers(1, ctx.order - 1), label="error")
    assert_decodes_as_the_generator(code, mask, msg, cell, error)


@pytest.mark.parametrize("block", [6, 13])
def test_row_solve_leaves_the_lines_outside_the_core_to_in_code(block):
    # a block x block block at (16, 12, 132) is its own core, and the line
    # side takes it (N = 6 * 2 or 13 * 9 < k): the 6 x 6 core is
    # recoverable and the 13 x 13 one is not.  Cell (15, 15) lies on a row
    # and a column that carry no erasure, so peeling never reads it, and
    # the line solve reads row 15, one of its r information rows, at its
    # first r cells only: only the final in_code finds a wrong symbol there.
    code = cached_code(4, 12, 132)
    n = code.n_frak
    er = np.zeros((n, n), dtype=bool)
    er[:block, :block] = True
    mask = ErasureMask(n, er)
    word = encode(code, np.arange(code.k) % code.ctx.order)
    res = peel_decode(code, word, mask)
    assert res.used_global and res.ok == (block == 6) == _rank_recoverable(code, mask)
    assert np.array_equal(res.word, word) if res.ok else np.array_equal(res.residual.erased, er)
    bad = word.reshape(n, n).copy()
    bad[15, 15] ^= 1
    grid = np.where(er, 0, bad)
    status, full = analysis._solve_core(code, er, grid)
    assert status == ("unique" if block == 6 else "multiple")
    assert not in_code(code, full)
    with pytest.raises(ValueError, match="not consistent with any codeword"):
        peel_decode(code, bad.reshape(-1), mask)


def test_row_route_matches_the_parity_check_route_at_n32():
    # at (32, 24, 575) a rank on G takes too long here, so a few masks are
    # held to the solve on the dense parity checks instead
    code = cached_code(5, 24, 575)
    n, r = code.n_frak, code.r
    rng = np.random.default_rng(21)
    verdicts = []
    for p in (0.3, 0.45, 0.5):
        mask = ErasureMask(n, rng.random((n, n)) < p)
        core = _peel_core(mask.erased, r)
        assert core.sum() - (n - r) * core.any(axis=1).sum() < code.k
        word = encode(code, rng.integers(0, code.ctx.order, size=code.k))
        want, full = parity_check_solve(code, core, word)
        verdict = erasure_recoverable(code, mask)
        assert verdict == (want == "unique") == (parity_check_solve(code, core)[0] == "unique")
        res = peel_decode(code, word, mask)
        assert res.ok == verdict
        assert np.array_equal(res.word, full) if verdict else np.array_equal(res.residual.erased, core)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_over_size_cores_are_solved_on_the_rows_at_n32():
    # at p = 0.85 the core is larger than n^2 - k = 449, so the decode only
    # tells an ambiguous core from inconsistent symbols, and it does so on
    # the core's lines although N >= k there: G is never built.  Row 5
    # survives whole, so a wrong symbol on it fits no codeword, while one
    # elsewhere leaves the core ambiguous.
    code = build_code(instantiate_standard(5), 24, 575)
    n, r, k = code.n_frak, code.r, code.k
    rng = np.random.default_rng(87)
    er = rng.random((n, n)) < 0.85
    er[5] = False
    mask = ErasureMask(n, er)
    core = _peel_core(er, r)
    assert core.sum() > n * n - k and core.sum() - (n - r) * core.any(axis=1).sum() >= k
    word = encode(code, rng.integers(0, code.ctx.order, size=k))
    res = peel_decode(code, word, mask)
    assert res.used_global and not res.ok and np.array_equal(res.residual.erased, core)
    cells = [5 * n + 7, int(np.flatnonzero(~er[6:].reshape(-1))[0]) + 6 * n]
    raised = []
    for cell in cells:
        bad = word.copy()
        bad[cell] ^= 1
        try:
            res = peel_decode(code, bad, mask)
        except ValueError as exc:
            assert "not consistent" in str(exc)
            raised.append(True)
        else:
            assert not res.ok and np.array_equal(res.residual.erased, core)
            raised.append(False)
    assert "G" not in vars(code)
    # the same statuses from the dense parity checks
    ref = cached_code(5, 24, 575)
    for cell, got in zip(cells, raised):
        bad = word.copy()
        bad[cell] ^= 1
        assert got == (parity_check_solve(ref, core, bad)[0] == "inconsistent")
    assert raised == [True, False]


# codes at the edges of the line solve: r = n, where every row is an
# information line, r = 1, k = r^2, where the corner has no checks, and k = 1
EDGE_CASES = [(2, 4, 10), (3, 1, 1), (3, 5, 25), (2, 3, 1)]


@st.composite
def oblong_block_masks(draw, n, r):
    """An a x b block of erasures with a != b on random rows and columns,
    b within two of its least size above n - r so that it is a core, and
    up to four of its cells surviving, one to a row and a column; united
    with uniform noise, or the transpose of all that.  Once the survivors
    outnumber b - (n - r), the core's rows hold fewer unknowns on their
    information lines than its columns, or more when transposed."""
    low = n - r + 1 if r > 1 else 1
    b = draw(st.integers(low, min(n, low + 2)))
    a = draw(st.integers(low, n).filter(lambda a: a != b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.choice(n, a, replace=False), rng.choice(n, b, replace=False)
    er = np.zeros((n, n), dtype=bool)
    er[np.ix_(rows, cols)] = True
    survive = draw(st.integers(0, min(4, a, b)))
    er[rows[:survive], cols[:survive]] = False
    er |= rng.random((n, n)) < draw(st.floats(0.0, 0.3))
    return ErasureMask(n, er.T if draw(st.booleans()) else er)


class LineSystems:
    """Records (side, unknowns) of every rank that analysis takes on the
    lines of a core, side 0 for rows and 1 for columns."""

    def __init__(self, patch):
        self.seen = []
        pending = []
        solve_lines, rank = analysis._solve_lines, analysis.mat_rank

        def spy_lines(code, core, erasures, side, grid):
            pending.append(side)
            return solve_lines(code, core, erasures, side, grid)

        def spy_rank(ctx, a):
            if pending:
                self.seen.append((pending.pop(), np.shape(a)[1]))
            return rank(ctx, a)

        patch.setattr(analysis, "_solve_lines", spy_lines)
        patch.setattr(analysis, "mat_rank", spy_rank)


def free_row_cells(core, r):
    """N = |E'| - (n - r) rho for the rho rows the core touches."""
    return int(core.sum()) - (len(core) - r) * int(core.any(axis=1).sum())


@pytest.mark.parametrize("e,r,k", ORACLE_CASES + EDGE_CASES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_line_solve_agrees_with_the_generator(e, r, k, data):
    # the solve on r information lines against the rank and the solve on
    # all of G[:, survivors], on rows and on columns: the verdict, the
    # decode, a wrong known symbol, and a completed grid that keeps every
    # known cell; each line system has at most the core's N free row cells
    code = cached_code(e, r, k)
    ctx = code.ctx
    mask = data.draw(oblong_block_masks(code.n_frak, r))
    core = _peel_core(mask.erased, r)
    with pytest.MonkeyPatch.context() as patch:
        systems = LineSystems(patch)
        verdict = erasure_recoverable(code, mask)
    assert verdict == _rank_recoverable(code, mask)
    assert all(unknowns <= free_row_cells(core, r) for _, unknowns in systems.seen)
    msg = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=k, max_size=k))
    cell = data.draw(st.integers(0, code.length - 1), label="cell")
    error = data.draw(st.integers(1, ctx.order - 1), label="error")
    assert_decodes_as_the_generator(code, mask, msg, cell, error)
    if core.any():
        grid = encode(code, msg).reshape(code.n_frak, code.n_frak)
        status, full = analysis._solve_core(code, core, np.where(core, 0, grid))
        assert status == ("unique" if verdict else "multiple")
        assert np.array_equal(full[~core], grid[~core]) and in_code(code, full)


@pytest.mark.parametrize("transpose", [False, True])
def test_line_solve_takes_the_side_with_fewer_unknowns(transpose):
    # a 13 x 6 block at (16, 12, 132) with its cells (0, 0), (1, 1) and
    # (2, 2) surviving is its own core.  Its rows hold 3 * 1 + 6 * 2 = 15
    # unknowns on their information lines (the 3 rows outside the core and
    # the 9 with the fewest erasures), its columns 2 * 8 = 16, so the rows
    # take it, and the columns take the transposed mask.
    code = cached_code(4, 12, 132)
    n = code.n_frak
    er = np.zeros((n, n), dtype=bool)
    er[:13, :6] = True
    er[[0, 1, 2], [0, 1, 2]] = False
    mask = ErasureMask(n, er.T if transpose else er)
    with pytest.MonkeyPatch.context() as patch:
        systems = LineSystems(patch)
        verdict = erasure_recoverable(code, mask)
    assert systems.seen == [(int(transpose), 15)]
    assert verdict == _rank_recoverable(code, mask)
    assert_decodes_as_the_generator(code, mask, np.arange(code.k) % code.ctx.order, 0, 1)


@pytest.mark.parametrize("e,r,k", EDGE_CASES)
def test_line_solve_of_a_fully_erased_grid(e, r, k):
    # n^2 > n^2 - k erasures: the decode solves the whole grid on its
    # lines, with no other row to read at r = n and a single information
    # row at r = 1, and finds it ambiguous without building G
    code = build_code(instantiate_standard(e), r, k)
    n = code.n_frak
    mask = ErasureMask(n, np.ones((n, n), dtype=bool))
    word = encode(code, np.arange(k) % code.ctx.order)
    res = peel_decode(code, word, mask)
    assert res.used_global and not res.ok and res.residual.erased.all()
    assert "G" not in vars(code)


def test_line_systems_of_the_stopping_sets():
    # the Fig. 2 and Fig. 1 stopping sets at (16, 12, 132): 13 and 16
    # unknowns on r information lines, where the free cells of all the
    # core's rows are N = 57 and 32
    code = cached_code(4, 12, 132)
    masks = [strip_margin_mask(16, 12, 5, 6), block_margin_mask(16, 12, 4, 4)]
    for mask, unknowns, free in zip(masks, (13, 16), (57, 32)):
        with pytest.MonkeyPatch.context() as patch:
            systems = LineSystems(patch)
            assert not erasure_recoverable(code, mask)
        assert [count for _, count in systems.seen] == [unknowns]
        assert free_row_cells(_peel_core(mask.erased, code.r), code.r) == free


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([4, 8, 16]), data=st.data())
def test_peel_core_is_order_independent(n, data):
    r = data.draw(st.integers(1, n))
    mask = data.draw(block_noise_masks(n))
    core = _peel_core(mask.erased, r)
    assert np.array_equal(sequential_core(mask.erased, r, rows_first=True), core)
    assert np.array_equal(sequential_core(mask.erased, r, rows_first=False), core)


def test_peel_core_of_block_margin_is_black_block():
    black = np.zeros((4, 4), dtype=bool)
    black[np.ix_([0, 2, 3], [0, 2, 3])] = True
    assert np.array_equal(_peel_core(block_margin_mask(4, 2, 1, 1).erased, 2), black)


@pytest.mark.parametrize("e,r,k,side", [(3, 5, 20, 4), (3, 5, 20, 5), (4, 12, 132, 5),
                                        (4, 12, 132, 12), (3, 5, 20, 6), (2, 2, 3, 3),
                                        (3, 3, 4, 6)])
def test_structural_oracle_on_blocks_both_sides(e, r, k, side):
    # a side x side block is its own core with N = side (side - (n - r))
    # free row cells; the line side takes N < k, that is sides 4, 5 and 6
    # at (8, 5, 20) and 5 and 12 at (16, 12, 132), and the generator route
    # N >= k, side 3 at (4, 2, 3) and side 6 at (8, 3, 4)
    code = cached_code(e, r, k)
    er = np.zeros((code.n_frak, code.n_frak), dtype=bool)
    er[:side, :side] = True
    mask = ErasureMask(code.n_frak, er)
    assert np.array_equal(_peel_core(er, r), er)
    assert erasure_recoverable(code, mask) == _rank_recoverable(code, mask)


@pytest.mark.parametrize("e,r,k", ORACLE_CASES + [(2, 2, 4), (3, 3, 9)])
def test_structural_oracle_on_figure_masks(e, r, k):
    code = cached_code(e, r, k)
    n = code.n_frak
    ab = range(0, r + 1, max(1, r // 4))
    masks = [block_margin_mask(n, r, a, b) for a in ab for b in ab]
    if r >= 2:
        ab = range(0, n, max(1, n // 4))
        masks += [strip_margin_mask(n, r, a, b) for a in ab for b in ab]
    verdicts = set()
    for mask in masks:
        expect = _rank_recoverable(code, mask)
        assert erasure_recoverable(code, mask) == expect
        verdicts.add(expect)
        if mask.count >= n * n - k + 1:
            assert not expect
    assert verdicts == {True, False}


def test_double_root_vacuous_and_tensor(pair_q4):
    code = build_code(pair_q4, 2, 4)
    # generic word: no zero rows/columns, vacuously true
    assert double_root_check(code, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        double_root_check(code, [0, 0, 0, 0])


def test_double_root_on_forced_zero_lines(pair_q4):
    # s(x, y) = (x - beta0)(y - gamma0) zeroes one row and one column
    from rsprod.field import mat_solve, poly_eval_many

    from reference import poly_compose

    code = build_code(pair_q4, 2, 4)
    ctx = code.ctx
    beta0, gamma0 = pair_q4.Zf[2], pair_q4.Zg[1]
    s = np.array(
        [[ctx.mul(beta0, gamma0), beta0], [gamma0, 1]], dtype=np.int64
    )
    h = poly_compose(ctx, s, pair_q4.g.to_unipoly(), pair_q4.f.to_unipoly())
    word = poly_eval_many(ctx, h, np.array(pair_q4.eval_points, dtype=np.int64))
    status, msg = mat_solve(ctx, code.G.T, word)
    assert status == "unique"
    grid = word.reshape(4, 4)
    assert not grid[2].any() and not grid[:, 1].any()
    assert double_root_check(code, [int(x) for x in msg])


@pytest.mark.parametrize("e,r", [(2, 2), (2, 3)])
def test_double_root_random_sweep(e, r):
    pair = instantiate_standard(e)
    code = build_code(pair, r, r * r)
    rng = np.random.default_rng(17)
    for _ in range(100):
        msg = rng.integers(0, code.ctx.order, size=code.k)
        if not msg.any():
            msg[0] = 1
        assert double_root_check(code, [int(x) for x in msg])
