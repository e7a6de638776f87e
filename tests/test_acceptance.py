"""Acceptance suite: one test per criterion, each printing a PASS line, and
sweeps of the paper's claims over every q = 4 and q = 8 code within the
budget.

The heavy enumerations (criterion 3's 2^32 run, criterion 9's dual-code
sweep) are shared through session fixtures.  Run with -s to watch the
per-criterion lines.
"""

import warnings

import numpy as np
import pytest

from rsprod.analysis import (
    DEFAULT_BUDGET,
    double_root_check,
    exhaustive_distance,
    spectrum_via_dual,
)
from rsprod.bounds import (
    bound_sweep,
    exact_distance,
    grid_upper,
    gridv2_upper,
    lower_opt,
    lrc_upper,
    rs_degree_lower,
)
from rsprod.cli import main
from rsprod.codec import _grid_values, build_code
from rsprod.degrees import degree_profile
from rsprod.field import mat_solve
from rsprod.linearized import instantiate_standard
from rsprod.verify import (
    _check_bound_ordering,
    _check_degree_oracle,
    _check_diagram,
    _check_peel_consistency,
)

from reference import univariate_double_root_check


@pytest.fixture(scope="session")
def pairs():
    return {e: instantiate_standard(e) for e in (2, 3)}


@pytest.fixture(scope="session")
def q4_exhaustive(pairs):
    """Exhaustive distances and spectra shared by criteria 3 and 9."""
    pair = pairs[2]
    out = {}
    for r, k, budget in ((2, 1, None), (2, 2, None), (2, 3, None), (2, 4, None),
                         (3, 1, None), (3, 2, None), (3, 3, None), (3, 4, None),
                         (3, 5, None), (3, 7, None), (3, 8, 1 << 32)):
        code = build_code(pair, r, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            d, spectrum = exhaustive_distance(code, budget=budget or (1 << 28))
        out[(r, k)] = (d, spectrum)
    return out


def assert_ok(result):
    assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_1_degree_set_formula():
    assert_ok(_check_degree_oracle((1, 2, 3, 4)))
    print("\n[acceptance] criterion 1 (degree formula vs row-echelon oracle, n in {2,4,8,16}): PASS")


def test_criterion_2_diagram_commutativity():
    assert_ok(_check_diagram((1, 2, 3), np.random.default_rng(2024), per_r=100))
    print("\n[acceptance] criterion 2 (diagram commutativity, q in {2,4,8}): PASS")


def test_criterion_3_exact_distances(q4_exhaustive):
    for k, expected in ((1, 16), (2, 15), (3, 12), (4, 9)):
        assert q4_exhaustive[(2, k)][0] == expected == exact_distance(4, 2, k)
    assert q4_exhaustive[(3, 8)][0] == 6 == exact_distance(4, 3, 8)  # delta*(delta+1)
    assert q4_exhaustive[(3, 7)][0] == 8 == exact_distance(4, 3, 7)  # delta*(delta+2)
    for k in range(1, 6):  # k <= 2r - 1 = 5: the locality-bound value is exact
        expected = 16 - k + 1 - ((k - 1) // 3) * (4 - 3)
        assert q4_exhaustive[(3, k)][0] == expected == exact_distance(4, 3, k)
    # every exhaustive distance dominates the main lower bound
    for (r, k), (d, _) in q4_exhaustive.items():
        prof = degree_profile(4, r)
        assert d >= lower_opt(4, r, k, prof.partial(k))[0]
    print("\n[acceptance] criterion 3 (exhaustive optimality at q=4): PASS")


def test_criterion_4_reference_values_at_scale():
    prof = degree_profile(128, 64)
    val, _ = lower_opt(128, 64, 4032, prof.partial(4032))
    assert val == 4940
    assert exact_distance(128, 64, 64 * 64) == 4225
    # the best proper product subcode of the same dimension reaches only
    # (128-63+1)*(128-64+1); the constructed subcode is strictly better
    assert 66 * 65 == 4290 < 4940
    print("\n[acceptance] criterion 4 (reference values at (128,64)): PASS")


def test_criterion_5_figures(capsys):
    for name, (n, r) in (("eg1", (32, 8)), ("eg2a", (32, 16)),
                         ("eg2b", (128, 64)), ("eg3", (32, 25))):
        assert main(["figure", "--name", name]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "k,value,series"
        series = {}
        for line in lines[1:]:
            k_s, v_s, s_name = line.split(",")
            series.setdefault(s_name, {})[int(k_s)] = int(v_s)
        assert set(series) == {"lower_opt", "grid_upper", "gridv2_upper"}
        assert set(series["lower_opt"]) == set(range(1, r * r + 1))
        for rep in bound_sweep(n, r, range(1, r * r + 1)):
            assert series["lower_opt"][rep.k] == rep.lower_opt
            if rep.gridv2_upper is not None:
                assert series["gridv2_upper"][rep.k] == rep.gridv2_upper
        # bound ordering at every k, and delta^2 at k = r^2
        assert_ok(_check_bound_ordering(((n, r),)))
        delta = n - r + 1
        assert series["lower_opt"][r * r - 1] == delta * (delta + 1)
        assert series["lower_opt"][r * r - 2] == delta * (delta + 2)
    print("\n[acceptance] criterion 5 (figure curves for all four parameter pairs): PASS")


def test_criterion_6_degree_bound_near_upper_bound():
    checked = 0
    for n, r in ((32, 16), (128, 64)):
        assert n // r >= 2 and n >= 32
        prof = degree_profile(n, r)
        low = [k_t for _, k_t, _ in prof.breakpoints if k_t * 100 <= 33 * r * r]
        assert low, (n, r)
        for k_t in low:
            # 10 * lower >= 9 * upper keeps the comparison in exact integers
            lo = rs_degree_lower(n, prof.partial(k_t))
            up, _ = grid_upper(n, r, k_t)
            assert 10 * lo >= 9 * up, (n, r, k_t)
        checked += len(low)
    print(f"\n[acceptance] criterion 6 (90% property at {checked} breakpoints): PASS")


def test_criterion_7_double_roots(pairs):
    rng = np.random.default_rng(7)
    total = 0
    for e in (2, 3):
        pair = pairs[e]
        ctx = pair.ctx
        n = pair.n_frak
        r_values = list(range(2, n + 1))
        codes = {r: build_code(pair, r, r * r) for r in r_values}
        per_r = -(-1000 // len(r_values))
        for r in r_values:
            code = codes[r]
            gx, fx = pair.g.to_unipoly(), pair.f.to_unipoly()
            for _ in range(per_r):
                beta0 = pair.Zf[int(rng.integers(n))]
                gamma0 = pair.Zg[int(rng.integers(n))]
                t = rng.integers(0, ctx.order, size=(r - 1, r - 1))
                if not t.any():
                    t[0, 0] = 1
                factor = np.array(
                    [[ctx.mul(beta0, gamma0), beta0], [gamma0, 1]], dtype=np.int64
                )
                s = _bipoly_mul(ctx, factor, t)
                word = _grid_values(code, s).reshape(-1)
                status, msg = mat_solve(ctx, code.G.T, word)
                assert status == "unique"
                grid = word.reshape(n, n)
                assert not grid[list(pair.Zf).index(beta0)].any()
                assert not grid[:, list(pair.Zg).index(gamma0)].any()
                msg = [int(x) for x in msg]
                assert double_root_check(code, msg)
                assert univariate_double_root_check(code, msg)
                total += 1
    assert total >= 2000
    print(f"\n[acceptance] criterion 7 (double roots on {total} forced words): PASS")


def _bipoly_mul(ctx, a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j]:
                out[i : i + b.shape[0], j : j + b.shape[1]] ^= ctx.mul_arr(b, int(a[i, j]))
    return out


def test_criterion_8_decoder_oracle_consistency():
    # 1000 random masks per code, then the Fig. 1/2 stopping sets
    cases = ((2, 2, 3), (2, 2, 4), (2, 3, 8), (3, 2, 3), (3, 3, 9))
    assert_ok(_check_peel_consistency(cases, np.random.default_rng(88), trials=1000))
    print("\n[acceptance] criterion 8 (peel/rank consistency, 5000 masks): PASS")


def test_criterion_9_weight_spectra(pairs, q4_exhaustive):
    # (q, r) = (4, 2): direct exhaustive spectrum
    _, spectrum = q4_exhaustive[(2, 4)]
    nonzero = sorted(w for w in spectrum.counts if w > 0)
    assert nonzero[0] == 9 and nonzero[1] == 12  # delta*(delta+1), delta = 3
    assert spectrum.counts[0] == 1 and spectrum.total == 16**4
    # (q, r) = (4, 3): exact spectrum through the dual code
    code = build_code(pairs[2], 3, 9)
    spec9 = spectrum_via_dual(code)
    nonzero = sorted(w for w in spec9.counts if w > 0)
    assert nonzero[0] == 4  # delta^2
    assert nonzero[1] == 6  # delta*(delta+1), delta = 2
    assert spec9.counts[0] == 1 and spec9.total == 16**9
    # the one-heavy-parity subcode spectrum agrees where it must: its
    # minimum matches the second weight of the ambient code
    assert q4_exhaustive[(3, 8)][0] == nonzero[1]
    print("\n[acceptance] criterion 9 (second weight = delta*(delta+1)): PASS")


def claim_violations(pair, cases) -> list[str]:
    """The codes (r, k) of ``cases`` whose distance breaks lower_opt <= d
    <= the upper bounds or misses a known exact distance.  Each spectrum is
    the code's own when |F|^k fits the default budget, else its dual's."""
    n = pair.n_frak
    violations = []
    for r, k in cases:
        code = build_code(pair, r, k)
        own = code.ctx.order**k <= DEFAULT_BUDGET
        spectrum = exhaustive_distance(code)[1] if own else spectrum_via_dual(code)
        d = spectrum.min_nonzero_weight()
        lower, _ = lower_opt(n, r, k, code.profile.partial(k))
        uppers = [lrc_upper(n, r, k), grid_upper(n, r, k)[0], gridv2_upper(n, r, k)]
        upper = min(u for u in uppers if u is not None)
        exact = exact_distance(n, r, k)
        if not lower <= d <= upper or exact not in (None, d):
            violations.append(f"(r, k) = ({r}, {k}): d = {d}, bounds [{lower}, {upper}], exact {exact}")
    return violations


def test_claims_at_every_q4_code_in_reach(pairs):
    # every q = 4 code whose spectrum fits the default budget on one side:
    # k <= 7 on the code itself (16^k <= 2^28) and k >= 9 on the dual
    # (16^(16 - k) <= 2^28), so all but k = 8 at r = 3 and r = 4.  The
    # bounds must hold and the known distances must be met; a word that
    # breaks either is reported here, not loosened away.
    n = pairs[2].n_frak
    cases = [(r, k) for r in range(1, n + 1) for k in range(1, r * r + 1) if k != 8]
    assert len(cases) == 28
    violations = claim_violations(pairs[2], cases)
    assert not violations, "\n".join(violations)
    print(f"\n[acceptance] paper claims at {len(cases)} q = 4 codes: PASS")


def test_claims_at_every_q8_code_in_reach(pairs):
    # every q = 8 code whose spectrum fits the default budget on one side:
    # k <= 4 at each r on the code itself, and k = 60..64 at r = 8 on the
    # dual (64^(64 - k) <= 2^28 needs k >= 60, past r^2 below r = 8).  The
    # bounds must hold and the known distances must be met; a word that
    # breaks either is reported here, not loosened away.
    n = pairs[3].n_frak
    cases = [(r, k) for r in range(1, n + 1) for k in range(1, min(4, r * r) + 1)]
    cases += [(8, k) for k in range(60, 65)]
    assert len(cases) == 34
    violations = claim_violations(pairs[3], cases)
    assert not violations, "\n".join(violations)
    print(f"\n[acceptance] paper claims at {len(cases)} q = 8 codes: PASS")
