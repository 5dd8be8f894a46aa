"""Closed-form ratios, AMP's two minima against a decimal reference, and orderings."""

from __future__ import annotations

import math
import random
from decimal import MAX_EMAX, Decimal, localcontext

import pytest

from flipmatch.adversaries import (
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from flipmatch.algos import AmpMatcher, GreedyMatcher, LGreedyMatcher, effective_budget
from flipmatch.bounds import (
    BadBudgetError,
    BadParamsError,
    amp_bound,
    amp_bound_improved,
    amp_bound_original,
    amp_default_r,
    cycle_case,
    dep_lower_bound,
    det_lower_bound,
    greedy_bound,
    lgreedy_bound,
    lgreedy_case_expressions,
    lgreedy_default_L,
    lgreedy_lower_bound,
)
from flipmatch.core import FULL, Graph
from flipmatch.harness import TABLE_HEADER, duel, emit_bound_table, random_arrival_stream, random_churn
from flipmatch.stringgame import OddKError, StringGameAdversary

try:
    from scipy.optimize import brentq, minimize_scalar
except ModuleNotFoundError:  # pragma: no cover
    minimize_scalar = None


def test_01_det_lower_bound_values():
    assert det_lower_bound(4) == pytest.approx(4 / 3)
    assert det_lower_bound(6) == pytest.approx(1.2)
    assert det_lower_bound(22) == pytest.approx(1 + 1 / 21)
    with pytest.raises(BadBudgetError) as err:
        det_lower_bound(2)
    assert err.value.code == "bad-k"


def test_02_dep_lower_bound_values():
    assert dep_lower_bound(4) == pytest.approx(10 / 7)
    assert dep_lower_bound(6) == pytest.approx(24 / 19)
    assert dep_lower_bound(8) == pytest.approx(46 / 39)
    with pytest.raises(BadBudgetError):
        dep_lower_bound(5)


def test_03_lgreedy_default_L():
    assert lgreedy_default_L(4) == 1
    assert lgreedy_default_L(6) == 2
    assert lgreedy_default_L(10) == 3
    assert lgreedy_default_L(18) == 4
    with pytest.raises(BadBudgetError):
        lgreedy_default_L(7)


def test_04_lgreedy_bound_values():
    assert lgreedy_bound(4) == 1.5
    # an explicit cap at budget 4 gets the formula, not uncapped greedy's 3/2
    assert lgreedy_bound(4, 0) == 2.0
    assert lgreedy_bound(4, 1) == pytest.approx(5 / 3)
    assert lgreedy_bound(6) == pytest.approx(22 / 15)
    assert lgreedy_bound(8) == pytest.approx(10 / 7)
    assert lgreedy_bound(10) == pytest.approx(4 / 3)
    assert lgreedy_bound(20) == pytest.approx(118 / 95)


def test_05_amp_default_r():
    assert amp_default_r(4) == pytest.approx(math.sqrt(3))
    assert amp_default_r(6) == pytest.approx(5 ** 0.25)


def test_06_amp_bound_improved_closed_form():
    for k in range(4, 41, 2):
        r = (k - 1) ** (1 / (k - 2))
        direct = (k - 1) ** ((k - 1) / (k - 2)) / (k - 2)
        assert amp_bound_improved(k) == pytest.approx(direct, abs=1e-12)
        assert amp_bound_improved(k) == pytest.approx(r**k / (r ** (k - 1) - r))
    assert amp_bound_improved(4) == pytest.approx(2.598076, abs=5e-7)
    assert amp_bound_improved(16) == pytest.approx(1.300079, abs=5e-7)
    # from k=342 at r=8, r^(k-1) overflows; r^(2-k) is then below float
    # resolution, so the bound is r, as it already reads where it computes
    assert amp_bound(340, 8.0) == 8.0
    assert amp_bound(342, 8.0) == 8.0
    assert amp_bound(1000, 8.0) == 8.0
    assert amp_bound(4, 1e200) == 1e200


def test_07_amp_bound_original_reference_values():
    # independently frozen series for the first-published bound
    series = {
        4: 2.64526,
        6: 2.03971,
        8: 1.7763,
        10: 1.62664,
        12: 1.52919,
        14: 1.46023,
        16: 1.40862,
        18: 1.3684,
        20: 1.33609,
        22: 1.3095,
    }
    for k, expect in series.items():
        assert amp_bound_original(k) == pytest.approx(expect, abs=1e-4)
    # and it keeps falling at larger budgets
    large = [amp_bound_original(k) for k in (424, 426, 1000, 1024, 1026)]
    assert large == sorted(large, reverse=True) and large[-1] > 1
    assert large[2] == pytest.approx(1.012473, abs=5e-7)


def test_08_amp_original_dominates_improved():
    for k in range(4, 41, 2):
        assert amp_bound_original(k) >= amp_bound_improved(k) - 1e-9


def test_09_lower_bound_orderings():
    for k in range(4, 41, 2):
        assert det_lower_bound(k) <= dep_lower_bound(k) + 1e-12
        assert dep_lower_bound(k) <= lgreedy_bound(k) + 1e-12


def test_10_lgreedy_lower_bound():
    assert lgreedy_lower_bound(8, 6) == pytest.approx(12 / 11)
    assert lgreedy_lower_bound(10, 3) == pytest.approx(11 / 10)
    with pytest.raises(BadParamsError) as err:
        lgreedy_lower_bound(8, 2)
    assert err.value.code == "bad-params"
    # an odd budget is a budget refusal, like every other
    with pytest.raises(BadBudgetError) as err:
        lgreedy_lower_bound(7, 3)
    assert err.value.code == "bad-k"


def test_11_case_expressions_balance_at_alpha_2b():
    cases = lgreedy_case_expressions(6, 2, 1 / 44)
    assert cases.alpha_2b == pytest.approx(1 / 44)
    # at the balancing alpha the short case at L meets the long case
    assert cases.short(2) == pytest.approx(22 / 15)
    assert cases.long == pytest.approx(22 / 15)
    assert cases.r2b == pytest.approx(22 / 15)
    assert cases.r2b == pytest.approx(lgreedy_bound(6))


def test_12_case_expressions_general_balance():
    for k in (6, 8, 10, 14, 20):
        L = lgreedy_default_L(k)
        alpha = 1 / (2 * k * (L + 2) - 4)
        cases = lgreedy_case_expressions(k, L, alpha)
        assert cases.alpha_2b == pytest.approx(alpha)
        # balancing identity: the capped-length case meets the long case
        assert cases.short(L) == pytest.approx(cases.long, rel=1e-12)
        assert cases.r2b == pytest.approx(lgreedy_bound(k, L))
        # all three case values share a denominator; the numerator of the
        # balanced case lacks the quadratic term, so it is the smallest
        assert cases.r2b <= cases.r1b + 1e-12
        assert cases.r2b <= cases.r2a + 1e-12
        assert cycle_case(3, L, alpha) <= cases.r2b + 1e-12
    # at window radius 2 the short-path cases collapse and all values agree
    for k in (6, 8):
        cases = lgreedy_case_expressions(k, 2, 1 / (8 * k - 4))
        assert cases.r1b == pytest.approx(cases.r2b, rel=1e-12)
        assert cases.short(2) == pytest.approx(cases.r2b, rel=1e-12)


def test_13_case_expressions_divide_by_zero():
    # alpha = 1/(2L) zeroes the long-case denominator (L+1)(1 - 2*L*alpha)
    with pytest.raises(ZeroDivisionError):
        lgreedy_case_expressions(4, 1, 0.5)


@pytest.mark.skipif(minimize_scalar is None, reason="scipy not installed")
def test_17_amp_bound_original_at_most_scipy_minimum():
    # an independent search over r, from just above the denominator's root
    for k in range(4, 41, 2):
        r0 = brentq(lambda r: r ** (k - 1) * (r - 1) - r, 1.0, 2.0, xtol=1e-15)
        ref = minimize_scalar(
            lambda r: r**k * (r - 1) / (r ** (k - 1) * (r - 1) - r),
            bounds=(r0 * (1 + 1e-9), 4.0), method="bounded", options={"xatol": 1e-12},
        )
        assert ref.fun - 1e-9 <= amp_bound_original(k) <= ref.fun + 1e-12, k


def test_18_asymptotic_envelope():
    # guarantees approach 1 like (log k)/k: envelope on (bound-1) * k / log k
    for k in range(40, 401, 2):
        scaled = (amp_bound_improved(k) - 1) * k / math.log(k)
        assert 0.8 <= scaled <= 2.5, (k, scaled)


def test_19_bound_rows_frozen_table():
    # reference grid: budget -> (arrival LB, departure LB, bounded-length, doubling)
    table = {
        4: (1.333333, 1.428571, 1.500000, 2.598076),
        6: (1.200000, 1.263158, 1.466667, 1.869186),
        8: (1.142857, 1.179487, 1.428571, 1.613602),
        10: (1.111111, 1.134328, 1.333333, 1.480583),
        12: (1.090909, 1.106796, 1.318182, 1.398080),
        14: (1.076923, 1.088435, 1.307692, 1.341500),
        16: (1.066667, 1.075377, 1.300000, 1.300079),
        18: (1.058824, 1.065637, 1.247059, 1.268329),
        20: (1.052632, 1.058104, 1.242105, 1.243148),
        22: (1.047619, 1.052109, 1.238095, 1.222645),
    }
    header, *lines = emit_bound_table(range(4, 23, 2)).splitlines()
    assert header == TABLE_HEADER
    rows = {int(cells[0]): cells[1:5] for cells in (line.split(",") for line in lines)}
    assert rows == {k: [f"{v:.6f}" for v in row] for k, row in table.items()}


def test_20_greedy_bound():
    assert greedy_bound(2) == 1.5
    assert greedy_bound(3) == 2.0
    with pytest.raises(BadBudgetError):
        greedy_bound(0)



def _duel(max_moves):
    return duel(FullDepartureAdversary(2), GreedyMatcher(2, FULL), max_moves)


def _arrivals(n_events, max_vertices=20, max_edges=24):
    return random_arrival_stream(random.Random(0), n_events, max_vertices, max_edges)


def _churn(n_events, max_vertices=20, max_edges=24):
    return random_churn(
        random.Random(0), GreedyMatcher(2, FULL), n_events, max_vertices, max_edges
    )


# Every integer parameter, as (name, call, minimum, error, odd): ``error`` is
# what True, a float or ``minimum - 1`` raise; ``odd`` is what an odd value
# raises where the parameter must be even, None where it need not be.
BB, BP = BadBudgetError, BadParamsError
INTEGER_PARAMETERS = [
    ("Graph.budget", Graph, 1, BB, None),
    ("LGreedyMatcher.L", lambda v: LGreedyMatcher(6, L=v), 0, BP, None),
    ("effective_budget", effective_budget, 2, BB, None),
    ("greedy_bound", greedy_bound, 1, BB, None),
    ("det_lower_bound", det_lower_bound, 3, BB, None),
    ("lgreedy_default_L", lgreedy_default_L, 4, BB, BB),
    ("lgreedy_bound", lgreedy_bound, 4, BB, BB),
    ("lgreedy_bound.L", lambda v: lgreedy_bound(6, v), 0, BP, None),
    ("amp_default_r", amp_default_r, 4, BB, BB),
    ("amp_bound", lambda v: amp_bound(v, 1.5), 4, BB, BB),
    ("amp_bound_improved", amp_bound_improved, 4, BB, BB),
    ("amp_bound_original", amp_bound_original, 4, BB, BB),
    ("dep_lower_bound", dep_lower_bound, 4, BB, BB),
    ("lgreedy_lower_bound.k", lambda v: lgreedy_lower_bound(v, 3), 4, BB, BB),
    ("lgreedy_lower_bound.L", lambda v: lgreedy_lower_bound(4, v), 3, BP, None),
    ("greedy_lb_stream.k", lambda v: greedy_lb_stream(v, 1), 2, BB, None),
    ("greedy_lb_stream.n", lambda v: greedy_lb_stream(2, v), 0, BP, None),
    ("lgreedy_lb_stream.k", lambda v: lgreedy_lb_stream(v, 3), 4, BB, BB),
    ("lgreedy_lb_stream.L", lambda v: lgreedy_lb_stream(4, v), 3, BP, None),
    ("lgreedy_lb_stream.copies", lambda v: lgreedy_lb_stream(4, 3, v), 1, BP, None),
    ("DetLowerBoundAdversary.k", DetLowerBoundAdversary, 3, BB, None),
    ("DetLowerBoundAdversary.depth", lambda v: DetLowerBoundAdversary(3, v), 1, BP, None),
    ("FullDepartureAdversary.k", FullDepartureAdversary, 1, BB, None),
    ("StringGameAdversary.k", StringGameAdversary, 4, BB, OddKError),
    ("duel.max_moves", _duel, 1, BP, None),
    ("emit_bound_table", lambda v: emit_bound_table([v]), 4, BB, BB),
    ("random_arrival_stream.n_events", _arrivals, 0, BP, None),
    ("random_arrival_stream.max_vertices", lambda v: _arrivals(3, v), 2, BP, None),
    ("random_arrival_stream.max_edges", lambda v: _arrivals(3, 20, v), 1, BP, None),
    ("random_churn.n_events", _churn, 0, BP, None),
    ("random_churn.max_vertices", lambda v: _churn(3, v), 2, BP, None),
    ("random_churn.max_edges", lambda v: _churn(3, 20, v), 1, BP, None),
]

# Holes the hand-written checks left: each of these ran, or died with a bare
# TypeError, before every integer parameter went through one check.
INTEGER_HOLES = [
    ("greedy_bound(True)", greedy_bound, True, BB),
    ("FullDepartureAdversary(2.0)", FullDepartureAdversary, 2.0, BB),
    ("DetLowerBoundAdversary(3,depth=2.5)", lambda v: DetLowerBoundAdversary(3, depth=v), 2.5, BP),
    ("duel(max_moves=2.5)", _duel, 2.5, BP),
    ("greedy_lb_stream(6.0,3)", lambda v: greedy_lb_stream(v, 3), 6.0, BB),
    ("lgreedy_lb_stream(6,3.0)", lambda v: lgreedy_lb_stream(6, v), 3.0, BP),
    ("lgreedy_lb_stream(6,3,copies=True)", lambda v: lgreedy_lb_stream(6, 3, copies=v), True, BP),
    ("random_churn(n_events=2.5)", _churn, 2.5, BP),
    ("random_arrival_stream(rng,2.5)", _arrivals, 2.5, BP),
    ("lgreedy_bound(6,L=True)", lambda v: lgreedy_bound(6, L=v), True, BP),
    ("lgreedy_bound(6,L=2.5)", lambda v: lgreedy_bound(6, L=v), 2.5, BP),
    ("lgreedy_bound(6,L=-1)", lambda v: lgreedy_bound(6, L=v), -1, BP),
    ("random_arrival_stream(rng,10,max_edges=2.5)", lambda v: _arrivals(10, 20, v), 2.5, BP),
    ("random_churn(max_edges=True)", lambda v: _churn(3, 20, v), True, BP),
]

# The growth factor goes through one check too: a real number, finite and
# above 1. A string used to die with a bare TypeError.
GROWTH_SITES = [
    ("AmpMatcher.r", lambda v: AmpMatcher(4, r=v)),
    ("amp_bound.r", lambda v: amp_bound(4, v)),
]
GROWTH_VALUES = [
    ("str", "2", BP),
    ("complex", 2 + 0j, BP),
    ("one", 1, BP),
    ("True", True, BP),
    ("nan", math.nan, BP),
    ("inf", math.inf, BP),
    # ints too large for a float: amp_bound returned one, and the referee's
    # ratio test died with a bare OverflowError
    ("10**400", 10**400, BP),
    ("2**1024", 2**1024, BP),
    ("10**5000", 10**5000, BP),
    ("int", 2, None),
    ("float", 1.5, None),
]


def _integer_cases():
    for name, call, minimum, error, odd in INTEGER_PARAMETERS:
        yield pytest.param(call, True, error, id=f"{name}-True")
        yield pytest.param(call, minimum + 0.5, error, id=f"{name}-float")
        yield pytest.param(call, minimum - 1, odd or error, id=f"{name}-below")
        if odd is not None:
            yield pytest.param(call, minimum + 1, odd, id=f"{name}-odd")
        yield pytest.param(call, minimum, None, id=f"{name}-minimum")
    for name, call, value, error in INTEGER_HOLES:
        yield pytest.param(call, value, error, id=name)
    for site, call in GROWTH_SITES:
        for name, value, error in GROWTH_VALUES:
            yield pytest.param(call, value, error, id=f"{site}-{name}")


@pytest.mark.parametrize("call, value, error", _integer_cases())
def test_21_every_integer_parameter_is_refused_one_way(call, value, error):
    if error is None:
        call(value)  # the minimum, or a valid growth factor, is accepted
        return
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert err.value.code == error.code


def test_22_amp_bound_original_past_the_fixed_bracket():
    # from about k=1.38e7 the root of the denominator lies below 1 + 1e-6
    at_14m = amp_bound_original(14_000_000)
    assert at_14m == pytest.approx(1.0000022, abs=5e-8)
    at_1e9 = amp_bound_original(10**9)
    assert 1 < at_1e9 < at_14m
    for k, value in ((14_000_000, at_14m), (10**9, at_1e9)):
        assert value >= amp_bound_improved(k)
    # the true bound at k=1e18 is 1 + 4e-17, so 1.0 is correctly rounded
    assert amp_bound_original(10**18) == 1.0
    assert amp_bound_improved(10**18) == 1.0


REFERENCE_BUDGETS = [*range(4, 23, 2), 100, 726, 1000, 1026, 10**6, 13 * 10**6, 10**9]
REFERENCE_BUDGETS += [10**12, 10**15, 10**18]


def _improved_reference(k):
    """min over r of r^k/(r^(k-1)-r), to 60 digits: r(k-1)/(k-2) at r^(k-2) = k-1."""
    with localcontext() as ctx:
        ctx.prec = 60
        K = Decimal(k)
        return ((K - 1).ln() / (K - 2)).exp() * (K - 1) / (K - 2)


def _original_reference(k):
    """min over t of (1+t)A/(A-1), A = (1+t)^(k-2) t, to 60 digits, at the
    root of (1+t)^(k-2) t^2 - (kt+1), bisected without logs."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = 60, MAX_EMAX
        K = Decimal(k)
        lo, hi = Decimal(0), Decimal(2)
        for _ in range(250):
            t = (lo + hi) / 2
            if (1 + t) ** (K - 2) * t * t < K * t + 1:
                lo = t
            else:
                hi = t
        a = (1 + hi) ** (K - 2) * hi
        return (1 + hi) * a / (a - 1)


@pytest.mark.parametrize("k", REFERENCE_BUDGETS)
def test_23_amp_bounds_match_a_decimal_reference(k):
    for value, ref in ((amp_bound_improved(k), _improved_reference(k)),
                       (amp_bound_original(k), _original_reference(k))):
        assert abs(Decimal(value) - ref) <= 2 * Decimal(math.ulp(value)), (value, ref)


def test_24_amp_bounds_fall_at_every_even_budget():
    for bound in (amp_bound_improved, amp_bound_original):
        values = [bound(k) for k in range(4, 4001, 2)]
        assert all(math.isfinite(v) for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


def test_25_huge_budgets_are_refused_typed():
    # from about k=4e17 the default growth factor rounds to 1 in floats
    for call in (amp_default_r, AmpMatcher):
        for k in (10**18, 10**400):
            with pytest.raises(BadBudgetError) as err:
                call(k)
            assert err.value.code == "bad-k"
    # both bounds are defined up to the largest float, and refused past it
    for bound in (amp_bound_improved, amp_bound_original):
        assert bound(2**1023) == 1.0
        for k in (2**1024, 10**400):
            with pytest.raises(BadBudgetError, match="does not fit in a float"):
                bound(k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: amp_bound_original(10**5000 + 1), "got a 16610-bit integer"),
        (lambda: FullDepartureAdversary(-(10**5000)), "got a negative 16610-bit integer"),
    ],
    ids=["odd", "negative"],
)
def test_26_over_long_integers_are_refused_typed(call, message):
    # the message used to print the value in decimal, which raises the
    # interpreter's own ValueError past 4300 digits
    with pytest.raises(BadBudgetError, match=message) as err:
        call()
    assert err.value.code == "bad-k"


def test_27_lgreedy_beats_amp_up_to_k_20_and_amp_leads_from_22():
    # the abstract's "L-Greedy outperforms AMP for small k", as the formulas
    # give it: at k = 20 the two are 1.24211 < 1.24315, at k = 22 1.2381 > 1.22264
    for k in range(4, 21, 2):
        assert lgreedy_bound(k) < amp_bound_improved(k), k
    for k in range(22, 41, 2):
        assert lgreedy_bound(k) > amp_bound_improved(k), k
