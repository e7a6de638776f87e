"""Ground-truth oracles: exhaustive weight spectra, erasure recoverability
on the peeling core, the peeling erasure decoder, and the double-root
structural check.

Exhaustive enumeration runs the last row's coefficient over a set of
values (all of F, or one per GF(q)*-orbit) and every other coefficient
over F.  The lowest digits are expanded once into a vectorized span
block; each combination of the digits above it, a plain Cartesian
product, XORs its scalar multiples of the generator rows into one
partial codeword that is added to the whole block at once.  Every
codeword is packed into m-bit lanes of as many uint64 words as it needs;
a fixed four-operation SWAR test (Warren, Hacker's Delight, ch. 6) sets
the top bit of each nonzero lane, and weights come from a popcount.

Every code here is invariant under the translations of its evaluation
points, a group transitive on the coordinates, so a spectrum needs only the
|F|^(k-1) words with c_0 = 1: w A_w = n^2 (|F| - 1) N_w.  C_k is also
invariant under the scalings alpha -> lambda alpha, lambda in GF(q)*, which
fix the point 0 and act on message digit 1 as m_1 -> lambda m_1; so
exhaustive_distance counts one value of that digit per GF(q)*-orbit,
((|F| - 1)/(q - 1) + 1) |F|^(k-2) words in all, (q + 2) |F|^(k-2) at the
standard pair, where |F| = q^2.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codec import (
    CodeInstance,
    _grid_values,
    _anchor_bases,
    _int_symbols,
    _line_predictions,
    _message_matrix,
    encode,
    in_code,
)
from .field import _BLOCK_ELEMS, FieldCtx, mat_mul, mat_rank, mat_solve

DEFAULT_BUDGET = 1 << 28


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

    def __post_init__(self) -> None:
        # an int grid would index whole rows, and a grid of another size
        # would be read as a different mask
        self.erased = np.asarray(self.erased, dtype=bool)
        if self.erased.shape != (self.n_frak, self.n_frak):
            raise ValueError(
                f"erasure grid must have shape ({self.n_frak}, {self.n_frak}), "
                f"got {self.erased.shape}"
            )

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
    ``values`` (all of F by default); with no rows, of base alone."""
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
    # top digit (the given values) too when the whole span fits
    span = _pack(base.reshape(1, -1), packing).T
    n_block = 0
    while n_block < len(tables) and (
        n_block == 0 or span.size * len(tables[n_block]) <= _BLOCK_ELEMS
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

    # one flush per combination of the digits above the block; when the
    # block holds every digit the product is the single empty combination
    zero = np.zeros(words, dtype=np.uint64)
    for combo in itertools.product(*tables[n_block:]):
        flush(functools.reduce(np.bitwise_xor, combo, zero))
    return counts


def _top_values(ctx: FieldCtx, scalings: int) -> list[tuple[np.ndarray, int]]:
    """The values of a slice's last coefficient, in groups that each count
    with a weight (see _slice_spectrum): with scalings = q - 1 > 1, the
    coset representatives R = exp[:(|F| - 1)/(q - 1)] of GF(q)* in F*,
    weight q - 1, and {0}, weight 1; with scalings = 1, F, weight 1."""
    if scalings == 1:
        return [(np.arange(ctx.order), 1)]
    reps = ctx._tables()[0][: (ctx.order - 1) // scalings]
    return [(reps, scalings), (np.zeros(1, dtype=np.int64), 1)]


def _slice_spectrum(ctx: FieldCtx, rows: np.ndarray, scalings: int = 1) -> dict[int, int]:
    """Weight spectrum {w: A_w}, ascending, of the span of the linearly
    independent ``rows``, from the |F|^(k-1) words with c_0 = 1 alone.

    Every span handed in here (C_k and its dual) is invariant under the
    translations alpha -> alpha + t of the evaluation points, a group that
    is transitive on the coordinates.  So each coordinate is nonzero in
    equally many weight-w words, (|F| - 1) N_w of them with N_w the
    weight-w words with c_0 = 1, and counting the pairs (word, nonzero
    coordinate) gives w A_w = length (|F| - 1) N_w.  The words with
    c_0 = 1 are base + span(others): base is a row nonzero at coordinate 0
    scaled to 1 there, and the others are the remaining rows, in order,
    with coordinate 0 cleared.

    ``scalings`` = q - 1 > 1 is the caller's promise of q - 1
    weight-preserving maps of the slice onto itself, one for each lambda
    of a subgroup GF(q)* of F*, that multiply the last of the others'
    coefficients by lambda.  They act freely on its nonzero values, so it
    runs over one value per orbit with weight q - 1 and over 0 with weight
    1 (see _top_values); with scalings = 1, or no other row, over F.

    The words enumerated are counted for the long-run warning, a
    RuntimeWarning past DEFAULT_BUDGET of them.  Each group of weighted
    values is one _spectrum_over call in this process."""
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
    top = _top_values(ctx, scalings if len(others) else 1)
    enumerated = sum(len(values) for values, _ in top) * q ** len(others) // q
    if enumerated > DEFAULT_BUDGET:
        msg = f"exhaustive enumeration of {enumerated} codewords; expect minutes of runtime"
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    counts = sum(
        weight * _spectrum_over(ctx, others, length, base, values)
        for values, weight in top
    )
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


def _scalings(code: CodeInstance) -> int:
    """q - 1, the number of scalings alpha -> lambda alpha, lambda in
    GF(q)*, that map C_k onto itself, after checking the premise that
    makes them act on the message digits alone.

    f and g are GF(q)-linear, so g^a f^b(lambda alpha) =
    lambda^(a+b) g^a f^b(alpha), and Zf + Zg is closed under GF(q).  Basis
    polynomial l is graded: every nonzero S_l[a, b] has
    a + b = D[l] mod (q - 1), as the echelon only combines products that
    share a degree, and a degree fixes a + b mod (q - 1).  So scaling
    the points multiplies message digit l by lambda^(D[l] mod (q - 1)),
    and digit 1, with h_1 of degree D[1] = 1, by lambda itself.  The
    grading is checked here, k r^2 comparisons, rather than trusted."""
    q, r = code.pair.f.q, code.r
    grade = np.add.outer(np.arange(r), np.arange(r)) % (q - 1)
    degrees = np.array(code.profile.D[: code.k]) % (q - 1)
    if np.any((code.S != 0) & (grade != degrees[:, None, None])):
        raise AssertionError("a basis polynomial is not graded mod q - 1")
    if code.k > 1 and code.profile.D[1] != 1:
        raise AssertionError("basis polynomial 1 is not of degree 1")
    return q - 1


def exhaustive_distance(
    code: CodeInstance, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> tuple[int, WeightSpectrum]:
    """Exact minimum nonzero weight and full spectrum of the code.

    The spectrum comes from one translation slice (see _slice_spectrum)
    with message digit 1 as its last coefficient, where the scalings by
    GF(q)* (see _scalings) leave one value per orbit: R with weight q - 1
    and 0 with weight 1, ((|F| - 1)/(q - 1) + 1) |F|^(k-2) words in all
    (all |F|^(k-1) of the slice at q = 2 or k = 1), the count that the
    long-run warning reports.  The budget still bounds the whole message
    space |F|^k, so which codes count as in budget does not depend on the
    method; over it, BudgetExceeded lets callers fall back to sampling.

    ``workers`` is accepted and ignored: the slice is enumerated in the
    calling process.  The keyword stays until the benchmark stops passing it.
    """
    if code.ctx.order ** code.k > budget:
        # as a power: str() of an int past 4300 digits raises ValueError
        raise BudgetExceeded(
            f"budget exceeded: |F|^k = {code.ctx.order}^{code.k} > {budget}; "
            "raise the budget or fall back to sampled_distance"
        )
    # G[0], the constant, is the base; digit 1 goes last
    order = [0, *range(2, code.k), 1][: code.k]
    rows = code.G[order]
    spectrum = WeightSpectrum(_slice_spectrum(code.ctx, rows, _scalings(code)))
    return spectrum.min_nonzero_weight(), spectrum


def sampled_distance(code: CodeInstance, trials: int, seed: int = 0) -> int:
    """Minimum weight over random nonzero messages: an upper estimate.

    Messages are drawn in batches of 2^14, and their words are the grids of
    their message matrices (see codec._grid_values), as encode forms them,
    taken in slices of at most _BLOCK_ELEMS symbols; G is not built."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    best = code.length
    step = max(1, _BLOCK_ELEMS // code.length)
    done = 0
    while done < trials:
        batch = min(trials - done, 1 << 14)
        msgs = rng.integers(0, code.ctx.order, size=(batch, code.k), dtype=np.int64)
        msgs = msgs[np.any(msgs != 0, axis=1)]
        for lo in range(0, len(msgs), step):
            words = _grid_values(code, _message_matrix(code, msgs[lo : lo + step]))
            best = min(best, int(np.count_nonzero(words, axis=(1, 2)).min()))
        done += len(msgs)
    return best


# ---------------------------------------------------------------------------
# Spectrum through the dual code
# ---------------------------------------------------------------------------


def macwilliams_transform(counts: dict[int, int], n: int, q: int) -> dict[int, int]:
    """Weight distribution of the dual code, by the exact integer
    MacWilliams identity over a field of size q: B_i is sum_w A_w K_i(w)
    over the code's size, with the Krawtchouk values K_i(w) from the
    three-term recurrence
    (i+1) K_(i+1)(w) = ((q-1)(n-i) + i - q w) K_i(w) - (q-1)(n-i+1) K_(i-1)(w),
    K_0 = 1 and K_(-1) = 0, in O(n) integer steps per weight."""
    size = sum(counts.values())
    acc = [0] * (n + 1)
    for w, a_w in counts.items():
        if not a_w:
            continue
        prev, cur = 0, 1
        for i in range(n):
            acc[i] += a_w * cur
            step = ((q - 1) * (n - i) + i - q * w) * cur - (q - 1) * (n - i + 1) * prev
            nxt, rem = divmod(step, i + 1)
            if rem:  # pragma: no cover - Krawtchouk values are integers
                raise AssertionError("Krawtchouk recurrence did not divide evenly")
            prev, cur = cur, nxt
        acc[n] += a_w * cur
    out: dict[int, int] = {}
    for i, total in enumerate(acc):
        val, rem = divmod(total, size)
        if rem:  # pragma: no cover - identity guarantees divisibility
            raise AssertionError("transform did not divide evenly")
        if val:
            out[i] = val
    return out


def spectrum_via_dual(code: CodeInstance, budget: int = DEFAULT_BUDGET) -> WeightSpectrum:
    """Exact spectrum obtained by enumerating one translation slice of the
    dual code (see _slice_spectrum, which also warns on a long run) and
    transforming.  The budget bounds the whole dual, |F|^(n^2-k)."""
    ctx = code.ctx
    # H has n^2 - k rows; it is not built for a dual over budget
    if ctx.order ** (code.length - code.k) > budget:
        raise BudgetExceeded(
            f"dual enumeration needs {ctx.order}^{code.length - code.k} words, "
            f"over budget {budget}"
        )
    dual_counts = _slice_spectrum(ctx, code.H)
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
    mask alone; the fixed point does not depend on the clearing order.

    Passes alternate between the rows and the columns, rows first, and
    each reads only its own side's erasure counts e and clears every line
    with 0 < e <= n - r.  A pass in which every line has e <= n - r clears
    the whole grid, so the empty core comes back at once: a sparse mask
    takes one row count.  Otherwise the peeling stops at a pass that
    clears nothing after the other side's pass, as the lines that side
    left are all still over n - r.  The core is always a new array, never
    ``erased`` itself; ``erased`` is copied only once the first row count
    has not emptied it, and never for an empty core."""
    n = erased.shape[0]
    core = lines = erased
    while True:
        counts = lines.sum(axis=1)
        if counts.max() <= n - r:
            return np.zeros(erased.shape, dtype=bool)
        fix = (counts > 0) & (counts <= n - r)
        if core is erased:
            core = lines = erased.copy()
        elif not fix.any():
            return core
        lines[fix] = False
        lines = lines.T


def _solve_core(
    code: CodeInstance, core: np.ndarray, grid: Optional[np.ndarray] = None
) -> tuple[str, Optional[np.ndarray]]:
    """Solve for the cells of an erasure core (a bool grid) from the cells
    outside it, on a side chosen from the core alone.  With N =
    |core| - (n - r) rho free row cells, rho the rows the core touches,
    the unknowns are the k message symbols of ``G[:, ~core]^T m = y`` when
    N >= k, and otherwise the free cells of r information lines (see
    _solve_lines): rows or columns, whichever side has fewer, rows on a
    tie.  A core of more than n^2 - k cells carries a nonzero codeword, so
    its solve only tells "multiple" from "inconsistent"; it stays on the
    lines whatever N is, which costs less than G and never builds it.

    With ``grid`` None only the status is computed, from one rank:
    "unique" iff no nonzero codeword lives on the core, else "multiple".
    With the known values in ``grid``, zero on the core, the status is
    mat_solve's, and unless it is "inconsistent" a completed grid comes
    with it, the only one or one of several.  The line side reads only
    some of the known cells, so its grid is a codeword only if
    codec.in_code says so."""
    n, r, k = code.n_frak, code.r, code.k
    counts = core.sum(axis=1)
    size = int(counts.sum())
    if size - (n - r) * np.count_nonzero(counts) >= k and size <= n * n - k:
        known = ~core.reshape(-1)
        if grid is None:
            return ("unique" if mat_rank(code.ctx, code.G[:, known].T) == k else "multiple"), None
        status, msg = mat_solve(code.ctx, code.G[:, known].T, grid.reshape(-1)[known])
        if status == "inconsistent":
            return status, None
        return status, encode(code, msg).reshape(n, n)
    # a side's unknowns are the free cells of its r lines with the fewest
    # erasures, max(e - (n - r), 0) on a line of e: r (n - r) less than
    # the sum of max(e, n - r) over those lines
    erasures = np.array((counts, core.sum(axis=0)))
    side = int(np.maximum(np.sort(erasures)[:, :r], n - r).sum(axis=1).argmin())
    if side:
        status, full = _solve_lines(code, core.T, erasures[1], 1, None if grid is None else grid.T)
        return status, None if full is None else full.T
    return _solve_lines(code, core, erasures[0], 0, grid)


def _solve_lines(
    code: CodeInstance,
    core: np.ndarray,
    erasures: np.ndarray,
    side: int,
    grid: Optional[np.ndarray],
) -> tuple[str, Optional[np.ndarray]]:
    """_solve_core on r information lines, without H or G: the grid rows
    when ``side`` is 0 and the grid columns when it is 1, with ``core``
    and ``grid`` then handed in transposed, so that the lines are their
    rows either way; ``erasures`` holds each row's erased cells e_i.

    Any r rows of a word of the product code fix the others, as the
    column code is MDS of dimension r (MacWilliams and Sloane, ch. 18):
    row j is sum_a Lambda[a, j] W[R_a], Lambda the Lagrange basis of the
    r rows R on the column points.  R is the r rows with the fewest
    erasures.  On row R_a a word is the degree < r polynomial through r
    anchors, the row's known cells first and then its erased ones, and
    its values at the d_a = max(e_a - (n - r), 0) erased anchors are the
    unknowns, N' = sum_a d_a <= N of them.  A core touches more than
    n - r rows, so R holds every row outside it, and each other row is a
    core row with fewer than r known cells.  The codewords of C_k that
    vanish off the core are then the words built from R, zero at R's
    known anchors, whose other rows vanish at their known cells and whose
    corner passes Phi_C (see CodeInstance.checks); Phi_C reaches R's rows
    through Lambda, as Phi_R[a, c, p] = sum_i Lambda[a, i] Phi_C[p, i, c]
    over the corner rows i.

    With known values the same equations take their right-hand side from
    the word through R's known anchors, its unknowns at zero.  A row of R
    outside the core is read at its r anchors only, so the completed word
    is written back on the core's cells alone, and codec.in_code still
    sees every received symbol."""
    ctx, n, r = code.ctx, code.n_frak, code.r
    order = np.argsort(erasures, kind="stable")
    info, rest = order[:r], order[r:]
    # anchors: the known cells, then the erased ones, r in all; those past
    # a row's n - e_a known cells are its unknowns
    anchors = np.argsort(core[info], axis=1, kind="stable")[:, :r]
    pos = np.arange(r)
    unknown = pos >= (n - erasures[info])[:, None]
    # the rows' Lagrange bases and Lambda from one call, each on its own
    # point set's block of the side's table (see CodeInstance._ld_blocks);
    # a basis polynomial is then set to 1 at its own anchor and 0 at the
    # row's others
    both = _anchor_bases(ctx, code._ld_blocks[side], np.concatenate([anchors, info[None] + n]))
    bases, lam = both[:-1, :, :n], both[-1, :, n:]
    bases.transpose(0, 2, 1)[pos[:, None], anchors] = pos == pos[:, None]
    basis = bases[unknown]
    at = np.nonzero(unknown)[0]
    # the other rows at their known cells
    eq = ~core[rest]
    eq_rows, eq_cells = np.nonzero(eq)
    on_rows = ctx.mul_arr(lam[at[:, None], rest[eq_rows]], basis[:, eq_cells]).T
    # Phi_C and Phi_R as (row, position, check), their products all taken
    # through mat_mul as in_code takes them: Lambda is the identity on R's
    # own rows, so a corner row in R brings its own rows of Phi_C and only
    # the corner rows outside R are mixed in; Lambda's entries on R are
    # not meaningful (see _anchor_bases) and are not read here
    phi = code.checks[2].reshape(-1, r, r).transpose((1, 2, 0) if side == 0 else (2, 1, 0))
    phi_r = np.zeros((r, r, phi.shape[2]), dtype=np.int64)
    phi_r[info < r] = phi[info[info < r]]
    mixed = rest[rest < r]
    phi_r ^= mat_mul(ctx, lam[:, mixed], phi.reshape(r, -1)[mixed]).reshape(phi_r.shape)
    on_corner = mat_mul(ctx, basis[:, None, :r], phi_r[at])[:, 0].T
    coef = np.concatenate([on_rows, on_corner])
    if grid is None:
        return ("unique" if mat_rank(ctx, coef) == len(basis) else "multiple"), None

    # the word through R's known anchors, the unknowns at zero as the grid
    # holds them: the unknowns must make up the difference
    lam[:, info] = pos == pos[:, None]
    values = grid[info[:, None], anchors]
    known = mat_mul(ctx, lam.T, mat_mul(ctx, values[:, None], bases)[:, 0])
    rhs = np.concatenate([
        (grid[rest] ^ known[rest])[eq],
        mat_mul(ctx, known[:r, :r].reshape(1, -1), phi.reshape(r * r, -1))[0],
    ])
    status, x = mat_solve(ctx, coef, rhs)
    if status == "inconsistent":
        return status, None
    values[unknown] = x
    full = grid.copy()
    full[core] = mat_mul(ctx, lam.T, mat_mul(ctx, values[:, None], bases)[:, 0])[core]
    return status, full


def erasure_recoverable(code: CodeInstance, mask: ErasureMask) -> bool:
    """True iff the erasure pattern is uniquely decodable, i.e. no nonzero
    codeword is supported inside the erased cells E.

    Such a codeword is zero on every grid line with at least r survivors,
    since each line is a Reed-Solomon word of dimension r, so it lies inside
    the peeling core E' of the mask alone; hence E is recoverable iff E' is.
    E' empty is recoverable, which a mask whose rows all have at most
    n - r erasures learns from one row count (see _peel_core), before any
    cell of E' is counted; |E'| > n^2 - k is not; otherwise one rank
    decides (see _solve_core).  With N = |E'| - (n - r) rho free row cells
    for the rho rows the core touches, it is taken on G[:, ~E'] when
    N >= k, and otherwise on the free cells of r information lines, rows
    or columns, whichever side has fewer: a word of the product code is
    fixed by any r of its rows, so the other rows only have to vanish at
    their known cells (see _solve_lines).  No verdict builds H, and none
    builds G while N < k; an over-size core is refused before any
    solve."""
    if mask.n_frak != code.n_frak:
        raise ValueError("mask size does not match the code")
    core = _peel_core(mask.erased, code.r)
    if not core.any():
        return True
    if int(core.sum()) > code.length - code.k:
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
    first n points of ``ld``), in place: every line with an erasure and at
    least r survivors is interpolated through its first r survivors, its
    anchors, and predicted at its n - r other cells (see
    codec._line_predictions).
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
    rest = ~first
    anchors = np.nonzero(first)[1].reshape(len(todo), r)
    others = np.nonzero(rest)[1].reshape(len(todo), n - r)
    values = vals[first].reshape(len(todo), r)
    pred = _line_predictions(ctx, ld, values, anchors, others).reshape(-1)
    if np.any((pred != vals[rest]) & known[rest]):
        raise ValueError("interpolation mismatch on a known symbol")
    vals[rest] = pred
    lines[todo] = vals
    erased[todo] = False
    return True


def peel_decode(code: CodeInstance, word, mask: ErasureMask) -> PeelResult:
    """Iterated local repair: any grid line with at least r surviving
    symbols is interpolated through r of them and predicted at the rest (see
    _fill_lines), all rows of a pass at once and then all columns, unless
    the rows left nothing erased.  What peeling leaves is the peeling core
    E' of the mask, and a global solve in its cells finishes it off, on the
    free cells of r information lines or on the generator (see
    _solve_core), with the right-hand side from the known cells; a core of
    more than n^2 - k cells, which cannot be unique, is solved on its lines
    only to tell an ambiguous core from inconsistent symbols.  The solve
    writes back the core's cells alone, and the completed grid, whether
    peeling filled it alone or the solve did, must pass codec.in_code,
    which checks the received symbols that neither peeling nor the line
    solve read.  A word of the wrong length, a known symbol that is no
    element of the field (not an integer, or out of range), and known
    symbols that fit no codeword raise ValueError; an ambiguous core returns
    no word and E' as the residual."""
    n = code.n_frak
    if mask.n_frak != n:
        raise ValueError("mask size does not match the code")
    ctx = code.ctx
    outside = f"known symbols must be elements of GF(2^{ctx.extension_degree})"
    word = _int_symbols(word)
    if word is None:
        raise ValueError(outside)
    if word.shape != (n * n,):
        raise ValueError(f"word length must be {n * n}")
    grid = word.reshape(n, n).copy()
    erased = mask.erased.copy()
    grid[erased] = 0  # erased cells carry no symbol
    if (grid >> ctx.extension_degree).any():
        raise ValueError(outside)
    # grid rows live on Zg and grid columns on Zf
    ld_rows, ld_cols = code._ld_blocks
    progress = True
    while progress and erased.any():
        progress = _fill_lines(ctx, code.r, ld_rows, grid, erased)
        if erased.any():
            progress |= _fill_lines(ctx, code.r, ld_cols, grid.T, erased.T)
    used_global = bool(erased.any())
    status = "unique"
    if used_global:
        status, grid = _solve_core(code, erased, grid)
    # lines without an erasure were never checked, and the line solve
    # reads a line outside the core at r of its cells only
    if status == "inconsistent" or not in_code(code, grid):
        raise ValueError("surviving symbols are not consistent with any codeword")
    if status == "unique":
        return PeelResult(grid.reshape(-1), None, used_global)
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
    whose grid values are A^T . M' . B as for the codeword."""
    ctx, pair, r = code.ctx, code.pair, code.r
    m = _message_matrix(code, np.asarray(msg, dtype=np.int64))
    dm = np.zeros((r, r), dtype=np.int64)
    dm[: r - 1 : 2] = ctx.mul_arr(m[1::2], pair.g.coeffs[0])
    dm[:, : r - 1 : 2] ^= ctx.mul_arr(m[:, 1::2], pair.f.coeffs[0])
    return _grid_values(code, dm)


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
