"""Ground-truth oracles: exhaustive weight spectra, erasure recoverability
on the peeling core, the peeling erasure decoder, and the double-root
structural check.

Exhaustive enumeration runs the last row's coefficient over a set of
values (all of F, or one worker's share) and walks the digits below it in
mixed-radix reflected Gray order, so each step XORs a single scalar
multiple of one generator row into the running partial codeword; the
lowest digits are expanded once into a vectorized span block.  Every
codeword is packed into m-bit lanes of as many uint64 words as it needs;
a fixed four-operation SWAR test (Warren, Hacker's Delight, ch. 6) sets
the top bit of each nonzero lane, and weights come from a popcount.

Every code here is invariant under the translations of its evaluation
points, a group transitive on the coordinates, so a spectrum needs only the
|F|^(k-1) words with c_0 = 1: w A_w = n^2 (|F| - 1) N_w.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .codec import (
    CodeInstance,
    _grid_values,
    _line_predictions,
    _log_differences,
    encode,
    in_code,
)
from .field import FieldCtx, mat_mul, mat_rank, mat_solve

DEFAULT_BUDGET = 1 << 28
_BLOCK_DIGITS_LIMIT = 1 << 16
# smallest slice, in words, that a worker pool enumerates: on 2 vCPUs a
# 2^18- or 2^20-word slice takes 8-13 ms serially and 29-38 ms with a
# 2-worker pool, while a 2^24-word slice gains a fifth with one packed word
# to a codeword and two fifths with seven
_POOL_MIN_WORDS = 1 << 21


class BudgetExceeded(ValueError):
    """Message space too large for exhaustive enumeration."""


@dataclass
class WeightSpectrum:
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def min_nonzero_weight(self) -> int:
        return min(w for w, c in self.counts.items() if w > 0 and c > 0)


@dataclass
class ErasureMask:
    n_frak: int
    erased: np.ndarray  # bool grid (n, n); flat index i*n + j is cell (i, j)

    @classmethod
    def from_flat(cls, n_frak: int, flat) -> "ErasureMask":
        flat = np.asarray(flat, dtype=bool)
        if flat.shape != (n_frak * n_frak,):
            raise ValueError(f"flat mask length must be {n_frak * n_frak}")
        return cls(n_frak, flat.reshape(n_frak, n_frak).copy())

    def flat(self) -> np.ndarray:
        return self.erased.reshape(-1)

    @property
    def count(self) -> int:
        return int(self.erased.sum())


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def _gray_transitions(radix: int, ndigits: int) -> Iterator[tuple[int, int, int]]:
    """(digit, old value, new value) steps of the reflected mixed-radix
    Gray walk over radix^ndigits tuples, one digit changing by +-1."""
    digits = [0] * ndigits
    dirs = [1] * ndigits
    while True:
        i = 0
        while i < ndigits:
            nxt = digits[i] + dirs[i]
            if 0 <= nxt < radix:
                break
            dirs[i] = -dirs[i]
            i += 1
        if i == ndigits:
            return
        old = digits[i]
        digits[i] = old + dirs[i]
        yield i, old, digits[i]


def _pack_rows(ctx: FieldCtx, length: int) -> dict:
    """Lane packing of a codeword of ``length`` m-bit symbols: symbol
    w * per + i sits in lane i of word w, per = 64 // m lanes to a uint64.
    ``low`` holds the m - 1 low bits of every lane and ``high`` its top
    bit."""
    m = ctx.extension_degree
    per = 64 // m
    shifts = np.arange(min(per, length), dtype=np.uint64) * np.uint64(m)
    lane_ones = sum(1 << (i * m) for i in range(per))
    return {
        "per": per,
        "words": -(-length // per),
        "shifts": shifts,
        "low": np.uint64(((1 << (m - 1)) - 1) * lane_ones),
        "high": np.uint64((1 << (m - 1)) * lane_ones),
    }


def _pack(vecs: np.ndarray, packing: dict) -> np.ndarray:
    """Symbols (..., length) to packed words (..., words)."""
    per = packing["per"]
    vecs = np.asarray(vecs, dtype=np.int64).view(np.uint64)
    out = np.zeros(vecs.shape[:-1] + (packing["words"],), dtype=np.uint64)
    for i, shift in enumerate(packing["shifts"]):
        lane = vecs[..., i::per]
        out[..., : lane.shape[-1]] |= lane << shift
    return out


def _spectrum_over(
    ctx: FieldCtx, rows: np.ndarray, length: int, base: np.ndarray, values: Optional[np.ndarray] = None
) -> np.ndarray:
    """Weight histogram of the words base + sum_i m_i rows[i], every m_i
    running over F except the last row's coefficient, which runs over
    ``values`` (all of F by default); with no rows, of base alone.  A
    worker's share of the span is this call on its share of F."""
    q = ctx.order
    packing = _pack_rows(ctx, length)
    words = packing["words"]
    low, high = packing["low"], packing["high"]
    scalars = np.arange(q, dtype=np.int64)
    top = scalars if values is None else np.asarray(values, dtype=np.int64)
    digits = [scalars] * (len(rows) - 1) + [top]
    tables = [
        _pack(ctx.mul_arr(d[:, None], row[None, :]), packing)
        for d, row in zip(digits, rows)
    ]

    # the lowest digits, at least one, are expanded into the block, the
    # top digit (the values share) too when the whole span fits
    span = _pack(base.reshape(1, -1), packing).T
    n_block = 0
    while n_block < len(tables) and (
        n_block == 0 or span.size * len(tables[n_block]) <= _BLOCK_DIGITS_LIMIT
    ):
        t = tables[n_block]
        span = (span[:, :, None] ^ t.T[:, None, :]).reshape(words, -1)
        n_block += 1

    counts = np.zeros(length + 1, dtype=np.int64)
    # every flush fills these buffers in place; span-sized temporaries would
    # be mapped and faulted in afresh on each flush.  The weights take the
    # smallest dtype that holds a weight: the words' uint8 lane counts sum
    # faster into it than into intp, and bincount's copy of it costs less.
    x = np.empty_like(span)
    nonzero = np.empty_like(span)
    weights = np.empty(span.shape[1], dtype=np.min_scalar_type(length))
    lane_counts = np.empty(span.shape, dtype=np.uint8)

    def flush(partial):
        np.bitwise_xor(span, partial[:, None], out=x)
        # the top bit of each lane is set iff the lane is nonzero: its low
        # bits plus low carry into the top bit and never out of the lane
        np.bitwise_and(x, low, out=nonzero)
        np.add(nonzero, low, out=nonzero)
        np.bitwise_or(nonzero, x, out=nonzero)
        np.bitwise_and(nonzero, high, out=nonzero)
        if words == 1:
            np.bitwise_count(nonzero[0], out=weights)
        else:
            np.bitwise_count(nonzero, out=lane_counts)
            np.sum(lane_counts, axis=0, dtype=weights.dtype, out=weights)
        counts[:] += np.bincount(weights, minlength=length + 1)

    if n_block < len(tables):
        starts = tables[-1]
    else:
        starts = np.zeros((1, words), dtype=np.uint64)
    gray_tables = tables[n_block:-1]
    for partial in starts:
        flush(partial)
        for digit, old, new in _gray_transitions(q, len(gray_tables)):
            partial ^= gray_tables[digit][old ^ new]
            flush(partial)
    return counts


def _slice_spectrum(
    ctx: FieldCtx, rows: np.ndarray, workers: int = 1
) -> dict[int, int]:
    """Weight spectrum {w: A_w}, ascending, of the span of the linearly
    independent ``rows``, from the |F|^(k-1) words with c_0 = 1 alone.

    Every span handed in here (C_k and its dual) is invariant under the
    translations alpha -> alpha + t of the evaluation points, a group that
    is transitive on the coordinates.  So each coordinate is nonzero in
    equally many weight-w words, (|F| - 1) N_w of them with N_w the
    weight-w words with c_0 = 1, and counting the pairs (word, nonzero
    coordinate) gives w A_w = length (|F| - 1) N_w.  The words with
    c_0 = 1 are base + span(others): base is a row nonzero at coordinate 0
    scaled to 1 there, and the others are the remaining rows with
    coordinate 0 cleared.  ``workers`` is an upper bound: a pool starts
    only for a slice of at least _POOL_MIN_WORDS words, and each worker
    takes a share of the values of the last row's coefficient."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return {0: 1}
    q = ctx.order
    length = rows.shape[1]
    lead = np.flatnonzero(rows[:, 0])
    if len(lead) == 0:
        raise AssertionError("no row is nonzero at coordinate 0")
    base = ctx.mul_arr(rows[lead[0]], ctx.inv(int(rows[lead[0], 0])))
    others = np.delete(rows, lead[0], axis=0)
    others ^= ctx.mul_arr(others[:, :1], base)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and q ** len(others) >= _POOL_MIN_WORDS:
        share = functools.partial(_spectrum_over, ctx, others, length, base)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(share, np.array_split(np.arange(q), workers)))
    else:
        counts = _spectrum_over(ctx, others, length, base)
    if counts[0]:
        raise AssertionError("a word with c_0 = 1 has weight 0")
    spectrum = {0: 1}
    for w in np.flatnonzero(counts):
        a_w, rem = divmod(length * (q - 1) * int(counts[w]), int(w))
        if rem:
            raise AssertionError(f"weight {w} does not divide its slice count")
        spectrum[int(w)] = a_w
    if sum(spectrum.values()) != q ** len(rows):
        raise AssertionError("slice spectrum has the wrong total")
    return spectrum


def exhaustive_distance(
    code: CodeInstance, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> tuple[int, WeightSpectrum]:
    """Exact minimum nonzero weight and full spectrum of the code.

    The spectrum comes from one translation slice of |F|^(k-1) words (see
    _slice_spectrum).  The budget still bounds the whole message space
    |F|^k, so which codes count as in budget does not depend on the
    method; over it, BudgetExceeded lets callers fall back to sampling.
    """
    size = code.ctx.order ** code.k
    if size > budget:
        raise BudgetExceeded(
            f"budget exceeded: |F|^k = {size} > {budget}; "
            "raise the budget or fall back to sampled_distance"
        )
    enumerated = size // code.ctx.order
    if enumerated > DEFAULT_BUDGET:
        warnings.warn(
            f"exhaustive enumeration of {enumerated} codewords (one translation "
            f"slice of {size}); expect minutes of runtime",
            RuntimeWarning,
            stacklevel=2,
        )
    spectrum = WeightSpectrum(_slice_spectrum(code.ctx, code.G, workers))
    return spectrum.min_nonzero_weight(), spectrum


def sampled_distance(code: CodeInstance, trials: int, seed: int = 0) -> int:
    """Minimum weight over random nonzero messages: an upper estimate."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    best = code.length
    done = 0
    while done < trials:
        batch = min(trials - done, 1 << 14)
        msgs = rng.integers(0, code.ctx.order, size=(batch, code.k), dtype=np.int64)
        msgs = msgs[np.any(msgs != 0, axis=1)]
        if len(msgs) == 0:
            continue
        words = mat_mul(code.ctx, msgs, code.G)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
        done += len(msgs)
    return best


# ---------------------------------------------------------------------------
# Spectrum through the dual code
# ---------------------------------------------------------------------------


def macwilliams_transform(counts: dict[int, int], n: int, q: int) -> dict[int, int]:
    """Weight distribution of the dual code, by the exact integer
    MacWilliams identity over a field of size q."""
    size = sum(counts.values())
    out: dict[int, int] = {}
    for i in range(n + 1):
        acc = 0
        for w, a_w in counts.items():
            if not a_w:
                continue
            k_i = 0
            for j in range(min(i, w) + 1):
                term = math.comb(w, j) * math.comb(n - w, i - j) * (q - 1) ** (i - j)
                k_i += -term if j & 1 else term
            acc += a_w * k_i
        val, rem = divmod(acc, size)
        if rem:  # pragma: no cover - identity guarantees divisibility
            raise AssertionError("transform did not divide evenly")
        if val:
            out[i] = val
    return out


def spectrum_via_dual(
    code: CodeInstance, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightSpectrum:
    """Exact spectrum obtained by enumerating one translation slice of the
    dual code (see _slice_spectrum) and transforming; useful when the code
    itself is over budget.  The budget bounds the whole dual, |F|^(n^2-k)."""
    ctx = code.ctx
    dual = code.H
    size = ctx.order ** len(dual)
    if size > budget:
        raise BudgetExceeded(
            f"dual enumeration needs {size} words, over budget {budget}"
        )
    dual_counts = _slice_spectrum(ctx, dual, workers)
    primal = macwilliams_transform(dual_counts, code.length, ctx.order)
    expected = ctx.order ** code.k
    if sum(primal.values()) != expected:  # pragma: no cover
        raise AssertionError("transformed spectrum has wrong total")
    return WeightSpectrum(primal)


# ---------------------------------------------------------------------------
# Erasures
# ---------------------------------------------------------------------------


def _peel_core(erased: np.ndarray, r: int) -> np.ndarray:
    """The peeling core E' of a bool erasure grid: every row and column
    with at least r surviving cells is cleared, repeatedly, until every
    line that still has an erasure has fewer than r survivors.  Uses the
    mask alone; the fixed point does not depend on the clearing order."""
    core = erased.copy()
    n = core.shape[0]
    while True:
        rows = core.sum(axis=1)
        cols = core.sum(axis=0)
        fix_rows = (rows > 0) & (n - rows >= r)
        fix_cols = (cols > 0) & (n - cols >= r)
        if not (fix_rows.any() or fix_cols.any()):
            return core
        core[fix_rows] = False
        core[:, fix_cols] = False


def _solve_core(
    code: CodeInstance, core: np.ndarray, values: Optional[np.ndarray] = None
) -> tuple[str, Optional[np.ndarray]]:
    """Solve for the cells of a flat erasure core from the cells outside it.

    The system with fewer unknowns is used: the parity checks
    ``H[:, core] x = H[:, ~core] y`` in the |core| erased cells when
    |core| < k, otherwise ``G[:, ~core]^T m = y`` in the k message symbols.
    With ``values`` None the right-hand side is zero and only the status
    matters ("unique" iff no nonzero codeword lives on the core).  Returns
    mat_solve's status and, when it is "unique" and values were given, the
    completed flat word."""
    ctx = code.ctx
    known = ~core
    y = np.zeros(int(known.sum()), dtype=np.int64) if values is None else values[known]
    if int(core.sum()) < code.k:
        h = code.H
        rhs = mat_mul(ctx, h[:, known], y[:, None])[:, 0]
        status, x = mat_solve(ctx, h[:, core], rhs)
        if status == "unique" and values is not None:
            word = values.copy()
            word[core] = x
            return status, word
    else:
        status, msg = mat_solve(ctx, code.G[:, known].T, y)
        if status == "unique" and values is not None:
            return status, encode(code, msg)
    return status, None


def erasure_recoverable(code: CodeInstance, mask: ErasureMask) -> bool:
    """True iff the erasure pattern is uniquely decodable, i.e. no nonzero
    codeword is supported inside the erased cells E.

    Such a codeword is zero on every grid line with at least r survivors,
    since each line is a Reed-Solomon word of dimension r, so it lies inside
    the peeling core E' of the mask alone; hence E is recoverable iff E' is.
    E' empty is recoverable and |E'| > n^2 - k is not; otherwise one rank
    decides, on H[:, E'] when |E'| < k and on G[:, ~E'] when not.  The
    parity-check matrix H is built lazily, once per code."""
    if mask.n_frak != code.n_frak:
        raise ValueError("mask size does not match the code")
    core = _peel_core(mask.erased, code.r).reshape(-1)
    size = int(core.sum())
    if size == 0:
        return True
    if size > code.length - code.k:
        return False
    return _solve_core(code, core)[0] == "unique"


def _rank_recoverable(code: CodeInstance, mask: ErasureMask) -> bool:
    """Reference oracle: the generator restricted to the surviving
    coordinates keeps full rank k."""
    if mask.n_frak != code.n_frak:
        raise ValueError("mask size does not match the code")
    surv = ~mask.flat()
    if int(surv.sum()) < code.k:
        return False
    return mat_rank(code.ctx, code.G[:, surv]) == code.k


@dataclass
class PeelResult:
    word: Optional[np.ndarray]
    residual: Optional[ErasureMask]
    used_global: bool = False

    @property
    def ok(self) -> bool:
        return self.word is not None


def _fill_lines(
    ctx: FieldCtx, r: int, ld: np.ndarray, lines: np.ndarray, erased: np.ndarray
) -> bool:
    """One pass of local repair over the rows of ``lines`` (values on the
    point set of ``ld``), in place: every line with an erasure and at least
    r survivors is interpolated through its first r survivors and filled.
    The lines of a pass are independent, so they are filled at once.  A
    known symbol off the prediction raises ValueError; returns whether any
    line was filled."""
    n = lines.shape[1]
    survivors = n - erased.sum(axis=1)
    todo = np.nonzero((survivors < n) & (survivors >= r))[0]
    if len(todo) == 0:
        return False
    vals = lines[todo]
    known = ~erased[todo]
    first = known & (np.cumsum(known, axis=1) <= r)
    anchors = np.nonzero(first)[1].reshape(len(todo), r)
    pred = _line_predictions(ctx, ld, vals, anchors)
    if np.any((pred != vals) & known & ~first):
        raise ValueError("interpolation mismatch on a known symbol")
    lines[todo] = np.where(known, vals, pred)
    erased[todo] = False
    return True


def peel_decode(code: CodeInstance, word, mask: ErasureMask) -> PeelResult:
    """Iterated local repair: any grid line with at least r surviving
    symbols is interpolated and filled, all rows of a pass at once and then
    all columns.  What peeling leaves is the peeling core E' of the mask,
    and a global solve in its cells finishes it off, on the parity checks
    when |E'| < k and on the generator otherwise (see erasure_recoverable);
    a grid that peeling fills alone must pass codec.in_code.  A word of the
    wrong length, a known symbol outside the field, and known symbols that
    fit no codeword raise ValueError; an ambiguous core returns no word and
    E' as the residual."""
    pair = code.pair
    n = code.n_frak
    if mask.n_frak != n:
        raise ValueError("mask size does not match the code")
    ctx = code.ctx
    word = np.asarray(word, dtype=np.int64)
    if word.shape != (n * n,):
        raise ValueError(f"word length must be {n * n}")
    grid = word.reshape(n, n).copy()
    erased = mask.erased.copy()
    grid[erased] = 0  # erased cells carry no symbol
    if (grid >> ctx.extension_degree).any():
        raise ValueError(f"known symbols must be elements of GF(2^{ctx.extension_degree})")
    # grid rows live on Zg and grid columns on Zf
    ld_rows = _log_differences(ctx, pair.Zg)
    ld_cols = _log_differences(ctx, pair.Zf)
    progress = True
    while progress and erased.any():
        progress = _fill_lines(ctx, code.r, ld_rows, grid, erased)
        progress |= _fill_lines(ctx, code.r, ld_cols, grid.T, erased.T)
    used_global = bool(erased.any())
    if used_global:
        status, full = _solve_core(code, erased.reshape(-1), grid.reshape(-1))
    else:
        # peeling forced every filled cell, so the grid is the only
        # candidate; lines without an erasure were never checked
        status = "unique" if in_code(code, grid) else "inconsistent"
        full = grid.reshape(-1)
    if status == "inconsistent":
        raise ValueError("surviving symbols are not consistent with any codeword")
    if status == "unique":
        return PeelResult(full, None, used_global)
    return PeelResult(None, ErasureMask(n, erased), used_global)


# ---------------------------------------------------------------------------
# Structural check behind the main lower bound
# ---------------------------------------------------------------------------

def _derivative_grid(code: CodeInstance, msg: Sequence[int]) -> np.ndarray:
    """h' on the grid, entry (i, j) at Zf[i] + Zg[j], for the encoded
    polynomial h = sum_l msg[l] basis_l.

    In the tensor form h = sum_{a,b} M[a, b] g^a f^b with
    M = sum_l msg[l] S_l.  Every term of an additive polynomial but the
    linear one has an even degree, so g' = g_0 and f' = f_0 (the linear
    coefficients), and in characteristic 2 the chain rule gives
    h' = sum_{a,b} M'[a, b] g^a f^b with
    M'[a, b] = g_0 M[a+1, b] [a even] + f_0 M[a, b+1] [b even],
    whose grid values are A^T . M' . B as for the generator."""
    ctx, pair, r = code.ctx, code.pair, code.r
    msg = np.asarray(msg, dtype=np.int64)
    m = mat_mul(ctx, msg[None], code.S.reshape(code.k, r * r)).reshape(r, r)
    dm = np.zeros((r, r), dtype=np.int64)
    dm[: r - 1 : 2] = ctx.mul_arr(m[1::2], pair.g.coeffs[0])
    dm[:, : r - 1 : 2] ^= ctx.mul_arr(m[:, 1::2], pair.f.coeffs[0])
    return _grid_values(pair, dm)


def double_root_check(code: CodeInstance, msg: Sequence[int]) -> bool:
    """At every crossing of a zero grid-row and a zero grid-column, the
    encoded univariate polynomial h must vanish to order at least two.

    h is zero at such a crossing, so the root is double iff h' is zero
    there too; h' comes from the tensor form (see _derivative_grid)."""
    if not any(msg):
        raise ValueError("message must be nonzero")
    grid = encode(code, msg).reshape(code.n_frak, code.n_frak)
    zero_rows = ~grid.any(axis=1)
    zero_cols = ~grid.any(axis=0)
    if not (zero_rows.any() and zero_cols.any()):
        return True
    return not _derivative_grid(code, msg)[np.ix_(zero_rows, zero_cols)].any()


# ---------------------------------------------------------------------------
# Canonical unrecoverable patterns
# ---------------------------------------------------------------------------


def block_margin_mask(n: int, r: int, a: int, b: int) -> ErasureMask:
    """Erasures on ([0,b) u [r,n)) rows x ([0,a) u [r,n)) columns, plus the
    two locally repairable margins; total (a+n-r)(b+n-r) + (n-r)(2r-a-b)."""
    if not (0 <= a <= r and 0 <= b <= r and r <= n):
        raise ValueError("need 0 <= a, b <= r <= n")
    er = np.zeros((n, n), dtype=bool)
    row_sel = np.zeros(n, dtype=bool)
    row_sel[:b] = True
    row_sel[r:] = True
    col_sel = np.zeros(n, dtype=bool)
    col_sel[:a] = True
    col_sel[r:] = True
    er[np.ix_(row_sel, col_sel)] = True
    er[np.ix_(np.arange(r, n), np.arange(a, r))] = True
    er[np.ix_(np.arange(b, r), np.arange(r, n))] = True
    return ErasureMask(n, er)


def strip_margin_mask(n: int, r: int, a: int, b: int) -> ErasureMask:
    """Erasures on a full-width block of a rows (all but the last column),
    a length-b strip on the next row, a (n-a-1) x (delta-1) margin, and
    delta-1 bottom cells of the last column; total a(n-1)+b + (n-a)(delta-1)."""
    delta = n - r + 1
    if r < 2 or not (0 <= a <= n - 1 and 0 <= b <= n - 1):
        raise ValueError("need r >= 2 and 0 <= a, b <= n - 1")
    er = np.zeros((n, n), dtype=bool)
    er[:a, : n - 1] = True
    er[a, :b] = True
    er[a + 1 :, : delta - 1] = True
    # the last column carries no other erasures, so the margin fits anywhere
    er[n - delta + 1 :, n - 1] = True
    return ErasureMask(n, er)
