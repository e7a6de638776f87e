"""Bound formulas, witnesses, and the ordering/monotonicity invariants."""

import math

import pytest

from rsprod.bounds import (
    bound_report,
    bound_sweep,
    exact_distance,
    grid_upper,
    gridv2_upper,
    lower_opt,
    lrc_upper,
    profile_lower,
    rs_degree_lower,
    secondweight,
)
from rsprod.degrees import degree_profile

from reference import grid_upper_scan


def test_lrc_upper_examples():
    assert lrc_upper(4, 2, 3) == 12
    assert lrc_upper(4, 2, 1) == 16
    assert lrc_upper(32, 8, 63) == 794


def test_grid_upper_examples():
    val, ab = grid_upper(32, 8, 63)
    assert val == 650 and ab == (1, 2)  # (n-r+1)(n-r+2) = 25 * 26
    val, ab = grid_upper(32, 8, 64)
    assert val == 625 and ab == (1, 1)  # (n-r+1)^2 at k = r^2
    val, ab = grid_upper(32, 8, 1)
    assert val == 1024 and ab == (8, 8)  # n^2 at k = 1


def test_grid_upper_one_dim_reduction_matches_scan():
    for n in (2, 4, 8, 16, 32):
        for r in range(1, n + 1):
            for k in range(1, r * r + 1):
                assert grid_upper(n, r, k) == grid_upper_scan(n, r, k), (n, r, k)


def test_gridv2_upper_examples():
    assert gridv2_upper(4, 2, 4) == 9
    assert gridv2_upper(4, 2, 1) is None
    assert gridv2_upper(32, 8, 63) == 770
    assert gridv2_upper(4, 4, 4) is None  # needs r <= n - 1


def test_lower_opt_reference_value_128_64():
    prof = degree_profile(128, 64)
    val, _ = lower_opt(128, 64, 4032, prof.partial(4032))
    assert val == 4940


def test_lower_opt_heavy_parity_endpoints():
    for n, r in ((8, 3), (32, 8), (32, 25), (128, 64)):
        prof = degree_profile(n, r)
        delta = n - r + 1
        assert lower_opt(n, r, r * r, prof.partial(r * r))[0] == delta * delta
        assert lower_opt(n, r, r * r - 1, prof.partial(r * r - 1))[0] == delta * (
            delta + 1
        )
        if r >= 3:
            assert lower_opt(n, r, r * r - 2, prof.partial(r * r - 2))[0] == delta * (
                delta + 2
            )


def test_rs_degree_lower_examples():
    assert rs_degree_lower(4, 1) == 15
    assert rs_degree_lower(4, 8) == 8  # misses the true 9 by (r-1)^2 = 1
    prof = degree_profile(32, 8)
    assert rs_degree_lower(32, prof.partial(64)) == 1024 - 14 * 32 == 576


def test_exact_distance_examples():
    assert exact_distance(4, 2, 3) == 12
    assert exact_distance(4, 3, 7) == 8
    assert exact_distance(4, 3, 4) == 12
    assert exact_distance(4, 3, 6) is None
    assert exact_distance(4, 2, 4) == 9
    assert exact_distance(128, 64, 64 * 64) == 4225
    assert exact_distance(128, 64, 64 * 64 - 1) == 65 * 66 == 4290
    # r = 2: k = r^2 - 2 = 2 falls under the small-k branch
    assert exact_distance(4, 2, 2) == 15


def test_profile_lower_values():
    # vanishing square-root term at k = r^2
    for n, r in ((32, 8), (16, 5)):
        assert profile_lower(n, r, r * r) == pytest.approx(n * n - 2 * r * n)
    s = 8 - math.sqrt(64 - 8)
    expected = (32 - s) ** 2 - s**2
    assert profile_lower(32, 8, 8) == pytest.approx(expected)
    assert expected == pytest.approx(990.96, abs=0.05)
    prof = degree_profile(32, 8)
    assert profile_lower(32, 8, 8) <= rs_degree_lower(32, prof.partial(8)) + 1e-9
    with pytest.raises(ValueError):
        profile_lower(32, 8, 9)  # not a breakpoint


def test_profile_lower_below_degree_bound_at_all_breakpoints():
    for n, r in ((32, 8), (32, 16), (128, 64)):
        prof = degree_profile(n, r)
        for _, k_t, _ in prof.breakpoints:
            assert (
                profile_lower(n, r, k_t)
                <= rs_degree_lower(n, prof.partial(k_t)) + 1e-9
            )


def test_secondweight():
    assert secondweight(4, 3) == 12
    assert secondweight(4, 2) == 6
    assert secondweight(32, 8) == 72
    with pytest.raises(ValueError):
        secondweight(4, 4)


@pytest.mark.parametrize("n,r", [(32, 8), (32, 16), (32, 25), (128, 64)])
def test_bound_ordering_and_monotonicity(n, r):
    reports = bound_sweep(n, r, range(1, r * r + 1))
    prev = None
    for rep in reports:
        assert rep.rs_degree_lower <= rep.lower_opt
        assert rep.lower_opt <= rep.grid_upper
        assert rep.lower_opt <= rep.lrc_upper
        if rep.gridv2_upper is not None:
            assert rep.lower_opt <= rep.gridv2_upper
        if rep.exact is not None:
            assert rep.exact == rep.lower_opt
            assert rep.exact <= min(rep.grid_upper, rep.lrc_upper)
        if prev is not None:
            assert rep.grid_upper <= prev.grid_upper
            assert rep.lower_opt <= prev.lower_opt
            assert rep.partial_k > prev.partial_k
        prev = rep


def test_witnesses_are_feasible_and_minimal():
    rep = bound_report(32, 8, 40)
    a, b = rep.witness_ab
    assert 0 <= a <= 8 and 0 <= b <= 8 and a * b >= 64 - 40 + 1
    assert (a + 24) * (b + 24) == rep.grid_upper
    nr, nc = rep.witness_nrnc
    delta = 25
    assert delta <= nr <= 32 and delta <= nc <= 32
    first = 32 * 32 - rep.partial_k + (32 - nr) * (32 - nc)
    assert max(first, nr * delta, nc * delta) == rep.lower_opt


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        lrc_upper(4, 2, 5)
    with pytest.raises(ValueError):
        grid_upper(4, 2, 0)
    with pytest.raises(ValueError):
        lower_opt(4, 2, 5, 8)
