"""Oracles: enumeration, spectra, erasure recoverability, peeling, double roots."""

import functools
import itertools
import json
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
    _gray_transitions,
    _pack_rows,
    _peel_core,
    _rank_recoverable,
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
from rsprod.cli import main
from rsprod.codec import _log_differences, build_code, encode
from rsprod.field import FieldCtx, mat_nullspace, mat_rank, mat_solve, poly_eval_many
from rsprod.linearized import LinearizedPoly, build_pair, instantiate_standard
from rsprod.verify import _check_peel_consistency

from reference import full_spectrum, interpolate
from strategies import general_pair


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


def test_gray_walk_visits_every_tuple_once():
    seen = set()
    digits = [0, 0, 0]
    seen.add(tuple(digits))
    for d, old, new in _gray_transitions(3, 3):
        assert digits[d] == old and abs(new - old) == 1
        digits[d] = new
        seen.add(tuple(digits))
    assert len(seen) == 27


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


def test_workers_agree_with_serial(pair_q4, monkeypatch):
    # a one-word and a seven-word code, both against encoding every
    # message; both slices are far below the real pool threshold
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 2)
    for code in (build_code(pair_q4, 2, 3), build_code(instantiate_standard(3), 2, 2)):
        d1, s1 = exhaustive_distance(code)
        d2, s2 = exhaustive_distance(code, workers=2)
        assert d1 == d2 and s1.counts == s2.counts
        brute = {}
        for msg in itertools.product(range(code.ctx.order), repeat=code.k):
            w = int(np.count_nonzero(encode(code, msg)))
            brute[w] = brute.get(w, 0) + 1
        assert s1.counts == brute


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
    # one word (16 cells of 2 bits), four words (64 cells of 3 bits) with
    # three and with two rows, and one row
    [(2, 16, 3), (3, 64, 3), (3, 64, 2), (4, 16, 1)],
)
def test_value_shares_sum_to_the_whole_span(m, length, nrows, monkeypatch):
    # every span here fits the block, top digit and all; with a limit of
    # one word the block keeps only its lowest digit, and the others are
    # walked
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


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process."""

    seen: list = []

    def __init__(self, max_workers):
        SerialPool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_workers_capped_at_cpu_count(pair_q4, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "seen", [])
    # the slice of (4, 2, 3) has 256 words, far below the real threshold
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 2)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
    code = build_code(pair_q4, 2, 3)
    _, serial = exhaustive_distance(code, workers=1)
    assert SerialPool.seen == []
    _, capped = exhaustive_distance(code, workers=64)
    assert SerialPool.seen == [3] and capped.counts == serial.counts
    assert main(["distance", "--q-log", "2", "--r", "2", "--k", "3", "--threads", "1000"]) == 0
    assert SerialPool.seen == [3, 3]
    assert json.loads(capsys.readouterr().out)["distance"] == serial.min_nonzero_weight()
    # an unknown CPU count means one: no pool at all
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: None)
    _, single = exhaustive_distance(code, workers=8)
    assert SerialPool.seen == [3, 3] and single.counts == serial.counts


def test_pool_starts_at_the_threshold(pair_q4, monkeypatch):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "seen", [])
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    code = build_code(pair_q4, 2, 3)  # a slice of 16^2 words
    _, serial = exhaustive_distance(code)
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 257)
    _, below = exhaustive_distance(code, workers=2)
    assert SerialPool.seen == [] and below.counts == serial.counts
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 256)
    _, at = exhaustive_distance(code, workers=2)
    assert SerialPool.seen == [2] and at.counts == serial.counts
    # one worker never starts a pool, however large the slice
    exhaustive_distance(code, workers=1)
    assert SerialPool.seen == [2]


def test_sampled_distance(pair_q4):
    code = build_code(pair_q4, 2, 4)
    est = sampled_distance(code, 100_000, seed=1)
    assert est == 9  # hits the minimum with overwhelming probability
    assert sampled_distance(code, 50, seed=2) >= 9
    with pytest.raises(ValueError):
        sampled_distance(code, 0)


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
    ],
)
def test_slice_spectrum_matches_full_enumeration(name, r, k, workers, monkeypatch):
    # with two workers, every slice of two words or more goes to the pool
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 2)
    code = build_code(SLICE_PAIRS[name](), r, k)
    d, spectrum = exhaustive_distance(code, workers=workers)
    assert spectrum.counts == full_spectrum(code.ctx, code.G)
    assert list(spectrum.counts) == sorted(spectrum.counts)
    assert d == min(w for w in spectrum.counts if w)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_slice_spectrum_of_the_dual_matches_full_enumeration(
    pair_q2, k, workers, monkeypatch
):
    monkeypatch.setattr(analysis, "_POOL_MIN_WORDS", 2)
    code = build_code(pair_q2, 2, k)
    assert _slice_spectrum(code.ctx, code.H, workers) == full_spectrum(code.ctx, code.H)
    via_dual = spectrum_via_dual(code, workers=workers)
    assert via_dual.counts == full_spectrum(code.ctx, code.G)


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
    with pytest.warns(RuntimeWarning, match="enumeration of 256 codewords"):
        exhaustive_distance(build_code(pair_q4, 2, 3), budget=16**3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exhaustive_distance(build_code(pair_q4, 2, 2), budget=16**2)


def test_erasure_recoverable_edges(pair_q4):
    code = build_code(pair_q4, 2, 4)
    empty = ErasureMask.from_flat(4, np.zeros(16, dtype=bool))
    assert erasure_recoverable(code, empty)
    # fewer than k survivors can never determine the message
    almost_all = ErasureMask.from_flat(4, np.arange(16) < 13)
    assert not erasure_recoverable(code, almost_all)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e=st.integers(1, 4), data=st.data())
def test_fill_lines_matches_per_line_interpolation(e, data):
    pair = instantiate_standard(e)
    ctx, n = pair.ctx, pair.n_frak
    points = data.draw(st.sampled_from([pair.Zf, pair.Zg]), label="points")
    r = data.draw(st.sampled_from([1, n]) | st.integers(1, n), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pts = np.array(points, dtype=np.int64)
    n_lines = 6
    # each line lies on a random polynomial of degree < r; its survivors
    # number exactly r, all n, or anything, and a few lines get a wrong cell
    lines = np.array(
        [poly_eval_many(ctx, rng.integers(0, ctx.order, size=r), pts) for _ in range(n_lines)]
    )
    erased = np.zeros((n_lines, n), dtype=bool)
    for i in range(n_lines):
        keep = data.draw(st.sampled_from([r, n]) | st.integers(0, n), label="survivors")
        erased[i, rng.choice(n, size=n - keep, replace=False)] = True
    if data.draw(st.booleans(), label="corrupt"):
        i, j = int(rng.integers(n_lines)), int(rng.integers(n))
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


@pytest.mark.parametrize("e,r,k", [(2, 2, 3), (3, 3, 4), (3, 5, 20), ("general", 3, 5)])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_peel_raises_exactly_on_a_repairable_mismatch(e, r, k, data):
    code = general_code(r, k) if e == "general" else cached_code(e, r, k)
    n, ctx = code.n_frak, code.ctx
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    word = encode(code, rng.integers(0, ctx.order, size=k))
    cells = rng.choice(code.length, size=data.draw(st.integers(0, 3), label="bad"), replace=False)
    word[cells] ^= rng.integers(1, ctx.order, size=len(cells))
    p = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7]), label="p")
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

# (e, r, k): cores land below k (parity-check side) and at or above k
# (generator side) across these codes
ORACLE_CASES = [(2, 2, 3), (2, 3, 7), (3, 3, 4), (3, 5, 20), (4, 12, 132)]


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
    mask = data.draw(block_noise_masks(code.n_frak))
    assert erasure_recoverable(code, mask) == _rank_recoverable(code, mask)


@pytest.mark.parametrize("e,r,k", [(2, 3, 7), (3, 5, 20)])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_peel_residual_is_mask_core(e, r, k, data):
    code = cached_code(e, r, k)
    mask = data.draw(block_noise_masks(code.n_frak))
    msg = data.draw(st.lists(st.integers(0, code.ctx.order - 1), min_size=k, max_size=k))
    word = encode(code, msg)
    core = _peel_core(mask.erased, r)
    res = peel_decode(code, word, mask)
    assert res.used_global == core.any()
    if res.ok:
        assert np.array_equal(res.word, word)
    else:
        assert np.array_equal(res.residual.erased, core)
    # the global fallback against the solve on all survivors
    surv = ~mask.flat()
    assert res.ok == (mat_solve(code.ctx, code.G[:, surv].T, word[surv])[0] == "unique")


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
                                        (4, 12, 132, 12)])
def test_structural_oracle_on_blocks_both_sides(e, r, k, side):
    # a side x side block is its own core; 4*4 < 20 and 5*5 < 132 take the
    # parity-check side, 5*5 >= 20 and 12*12 >= 132 the generator side
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
    from rsprod.field import mat_solve, poly_compose, poly_eval_many

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
