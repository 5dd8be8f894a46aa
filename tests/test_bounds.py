"""Closed-form ratios, the golden-section minimizer, and orderings."""

from __future__ import annotations

import math
import random

import pytest

from flipmatch.adversaries import (
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from flipmatch.algos import GreedyMatcher, LGreedyMatcher, effective_budget
from flipmatch.bounds import (
    BadBudgetError,
    BadIntervalError,
    BadParamsError,
    amp_bound,
    amp_bound_improved,
    amp_bound_original,
    amp_default_r,
    bound_rows,
    cycle_case,
    dep_lower_bound,
    det_lower_bound,
    greedy_bound,
    lgreedy_bound,
    lgreedy_case_expressions,
    lgreedy_default_L,
    lgreedy_lower_bound,
    minimize_1d,
)
from flipmatch.core import FULL, Graph
from flipmatch.harness import duel, emit_bound_table, random_arrival_stream, random_churn
from flipmatch.stringgame import OddKError, StringGameAdversary

try:
    from scipy.optimize import minimize_scalar
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
    with pytest.raises(BadParamsError):
        lgreedy_lower_bound(7, 3)


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


def test_14_minimize_quadratic():
    res = minimize_1d(lambda r: (r - 2) ** 2, 0.0, 5.0, tol=1e-10)
    assert res.argmin == pytest.approx(2.0, abs=1e-6)
    assert res.min == pytest.approx(0.0, abs=1e-12)


def test_15_minimize_recovers_default_r():
    k = 4
    res = minimize_1d(lambda r: r**k / (r ** (k - 1) - r), 1.1, 4.0, tol=1e-12)
    assert res.argmin == pytest.approx(math.sqrt(3), abs=1e-6)
    assert res.min == pytest.approx(amp_bound_improved(4), abs=1e-9)


def test_16_minimize_interval_validation():
    with pytest.raises(BadIntervalError) as err:
        minimize_1d(lambda x: x, 2.0, 1.0)
    assert err.value.code == "bad-interval"
    with pytest.raises(BadIntervalError):
        minimize_1d(lambda x: x, 0.0, 1.0, tol=0)
    with pytest.raises(BadIntervalError):
        minimize_1d(lambda x: (x - 0.3) ** 2, 0, 1, tol=math.nan)


@pytest.mark.skipif(minimize_scalar is None, reason="scipy not installed")
def test_17_minimize_agrees_with_scipy():
    functions = [
        (lambda x: (x - 1.3) ** 2 + 0.5, 0.0, 3.0),
        (lambda x: math.cosh(x - 0.25), -2.0, 2.0),
        (lambda r: r**6 / (r**5 - r), 1.05, 4.0),
    ]
    for f, lo, hi in functions:
        mine = minimize_1d(f, lo, hi, tol=1e-10)
        ref = minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
        )
        assert mine.argmin == pytest.approx(ref.x, abs=1e-5)
        assert mine.min == pytest.approx(ref.fun, abs=1e-9)


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
    rows = {row.k: row for row in bound_rows(4, 22)}
    assert sorted(rows) == sorted(table)
    for k, (det, dep, lg, amp) in table.items():
        row = rows[k]
        assert row.det_lb == pytest.approx(det, abs=5e-7)
        assert row.dep_lb == pytest.approx(dep, abs=5e-7)
        assert row.lgreedy == pytest.approx(lg, abs=5e-7)
        assert row.amp_improved == pytest.approx(amp, abs=5e-7)


def test_20_greedy_bound():
    assert greedy_bound(2) == 1.5
    assert greedy_bound(3) == 2.0
    with pytest.raises(BadBudgetError):
        greedy_bound(0)



def _duel(max_moves):
    return duel(FullDepartureAdversary(2), GreedyMatcher(2, FULL), max_moves)


def _arrivals(n_events, max_vertices=20):
    return random_arrival_stream(random.Random(0), n_events, max_vertices)


def _churn(n_events, max_vertices=20):
    return random_churn(random.Random(0), GreedyMatcher(2, FULL), n_events, max_vertices)


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
    ("amp_default_r", amp_default_r, 4, BB, BB),
    ("amp_bound", lambda v: amp_bound(v, 1.5), 4, BB, BB),
    ("amp_bound_original", amp_bound_original, 4, BB, BB),
    ("dep_lower_bound", dep_lower_bound, 4, BB, BB),
    ("lgreedy_lower_bound.k", lambda v: lgreedy_lower_bound(v, 3), 4, BP, BP),
    ("lgreedy_lower_bound.L", lambda v: lgreedy_lower_bound(4, v), 3, BP, None),
    ("bound_rows.k_min", lambda v: bound_rows(v, 6), 4, BP, None),
    ("bound_rows.k_max", lambda v: bound_rows(4, v), 4, BP, None),
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
    ("emit_bound_table", lambda v: emit_bound_table([v]), 4, BP, BP),
    ("random_arrival_stream.n_events", _arrivals, 0, BP, None),
    ("random_arrival_stream.max_vertices", lambda v: _arrivals(3, v), 2, BP, None),
    ("random_churn.n_events", _churn, 0, BP, None),
    ("random_churn.max_vertices", lambda v: _churn(3, v), 2, BP, None),
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
    ("bound_rows(4.0,6)", lambda v: bound_rows(v, 6), 4.0, BP),
    ("random_churn(n_events=2.5)", _churn, 2.5, BP),
    ("random_arrival_stream(rng,2.5)", _arrivals, 2.5, BP),
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


@pytest.mark.parametrize("call, value, error", _integer_cases())
def test_21_every_integer_parameter_is_refused_one_way(call, value, error):
    if error is None:
        call(value)  # the minimum itself is accepted
        return
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert err.value.code == error.code
