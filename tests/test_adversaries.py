"""Lower-bound streams and adaptive duels against the three matchers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from flipmatch.adversaries import (
    EXPECTATION_MISS,
    SCRIPT_COMPLETE,
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from flipmatch.algos import AmpMatcher, GreedyMatcher, LGreedyMatcher
from flipmatch.bounds import BadBudgetError, BadParamsError
from flipmatch.core import ARRIVAL, ARRIVE, FULL, Graph
from flipmatch.oracle import OracleState, brute_force_max_matching


def replay(events, matcher):
    for ev in events:
        if ev.action == ARRIVE:
            matcher.on_arrival(ev)
        else:
            matcher.on_departure(ev)
    return matcher


def drive(adv, matcher):
    """Feed a duel script to a matcher; returns the adversary's outcome."""
    for batch in adv.play(matcher):
        replay(batch, matcher)
    return adv.outcome


def live_opt(matcher) -> int:
    edges = [e.endpoints for e in matcher.graph.edges.values()]
    return brute_force_max_matching(edges)


def drive_with_oracle(adv, matcher) -> tuple[str | None, OracleState]:
    """Like drive(), but keeps an exact optimum on a board alongside (arrivals only)."""
    g = Graph(1)
    oracle = OracleState(g.rows)
    for batch in adv.play(matcher):
        for ev in batch:
            g.add_edge(*ev.endpoints)
            oracle.insert(*ev.endpoints)
        replay(batch, matcher)
    return adv.outcome, oracle


# ----------------------------------------------------------------------
# greedy starvation stream


@pytest.mark.parametrize(
    "k,n",
    [(2, 1), (2, 2), (4, 1), (4, 2), (6, 1)],
)
def test_01_greedy_stream_even_budget_terminal_sizes(k, n):
    matcher = replay(greedy_lb_stream(k, n), GreedyMatcher(k, ARRIVAL))
    assert matcher.graph.matching_size() == 2 * n + k
    assert live_opt(matcher) == 3 * n + k


@pytest.mark.parametrize("k,n", [(3, 1), (3, 2), (5, 1)])
def test_02_greedy_stream_odd_budget_terminal_sizes(k, n):
    matcher = replay(greedy_lb_stream(k, n), GreedyMatcher(k, ARRIVAL))
    assert matcher.graph.matching_size() == 2 * n + k
    assert live_opt(matcher) == 4 * n + k + 1


def test_03_greedy_stream_terminal_types_k2():
    matcher = replay(greedy_lb_stream(2, 2), GreedyMatcher(2, ARRIVAL))
    g = matcher.graph
    types = sorted(e.etype for e in g.edges.values())
    # 5 chain edges spent at type 2, 6 connectors matched at type 1,
    # 6 pendants untouched
    assert types == [0] * 6 + [1] * 6 + [2] * 5
    for e in g.edges.values():
        assert e.matched == (e.etype % 2 == 1)
    g.validate()


def test_04_greedy_stream_chain_edges_spent():
    matcher = replay(greedy_lb_stream(4, 1), GreedyMatcher(4, ARRIVAL))
    g = matcher.graph
    assert sum(1 for e in g.edges.values() if e.etype == 4) == 3  # 2n+1 chain edges
    assert g.total_flips <= 4 * len(g.edges)


def test_05_greedy_stream_ratio_approaches_three_halves():
    sizes = {}
    for n in (5, 30):
        matcher = replay(greedy_lb_stream(4, n), GreedyMatcher(4, ARRIVAL))
        sizes[n] = matcher.graph.matching_size()
        assert sizes[n] == 2 * n + 4
    gap_small = Fraction(3 * 5 + 4, 2 * 5 + 4)
    gap_big = Fraction(3 * 30 + 4, 2 * 30 + 4)
    assert gap_small < gap_big < Fraction(3, 2)


def test_06_greedy_stream_bad_arguments():
    with pytest.raises(BadBudgetError):
        greedy_lb_stream(1, 3)
    with pytest.raises(BadParamsError):
        greedy_lb_stream(4, -1)


# ----------------------------------------------------------------------
# length-capped starvation stream


def test_07_lgreedy_stream_single_copy_terminal():
    events = lgreedy_lb_stream(8, 6)
    assert len(events) == 23
    matcher = replay(events, LGreedyMatcher(8, L=6, model=ARRIVAL))
    assert matcher.graph.matching_size() == 11
    assert matcher.oracle.size == 12
    assert live_opt(matcher) == 12
    assert Fraction(12, 11) == Fraction(live_opt(matcher), matcher.graph.matching_size())


def test_08_lgreedy_stream_copies_scale_exactly():
    events = lgreedy_lb_stream(8, 6, copies=3)
    matcher = replay(events, LGreedyMatcher(8, L=6, model=ARRIVAL))
    assert matcher.graph.matching_size() == 3 * 11
    assert matcher.oracle.size == 3 * 12


def test_09_lgreedy_stream_small_cap():
    # L=3: one pendant pair, terminal (k, k+1)
    matcher = replay(lgreedy_lb_stream(6, 3), LGreedyMatcher(6, L=3, model=ARRIVAL))
    assert matcher.graph.matching_size() == 6
    assert live_opt(matcher) == 7


def test_10_lgreedy_stream_spent_seeds():
    matcher = replay(lgreedy_lb_stream(8, 6), LGreedyMatcher(8, L=6, model=ARRIVAL))
    g = matcher.graph
    spent = [e for e in g.edges.values() if e.etype == 8]
    assert len(spent) == 4  # the L-2 seed edges
    assert all(not e.matched for e in spent)
    g.validate()


def test_11_lgreedy_stream_bad_arguments():
    with pytest.raises(BadBudgetError):
        lgreedy_lb_stream(7, 6)
    with pytest.raises(BadBudgetError):
        lgreedy_lb_stream(2, 6)
    with pytest.raises(BadParamsError):
        lgreedy_lb_stream(8, 2)
    with pytest.raises(BadParamsError):
        lgreedy_lb_stream(8, 6, copies=0)


# ----------------------------------------------------------------------
# blocked-path duel


def test_12_det_duel_k3_greedy_runs_to_terminal():
    adv = DetLowerBoundAdversary(3, depth=3)
    matcher = GreedyMatcher(3, ARRIVAL)
    assert drive(adv, matcher) == SCRIPT_COMPLETE
    assert matcher.graph.matching_size() == 2 * 3 + 2
    assert live_opt(matcher) == 3 * 3 + 2
    assert adv.terminal == (8, 11)


def test_13_det_duel_k3_terminal_ratio_below_target():
    # a cooperating matcher stays just under 3/2, converging to it in depth
    adv = DetLowerBoundAdversary(3, depth=10)
    matcher = GreedyMatcher(3, ARRIVAL)
    outcome, oracle = drive_with_oracle(adv, matcher)
    assert outcome == SCRIPT_COMPLETE
    alg, opt = matcher.graph.matching_size(), oracle.size
    assert (alg, opt) == adv.terminal
    assert Fraction(opt, alg) < Fraction(3, 2)
    assert adv.target == pytest.approx(1.5)


@pytest.mark.parametrize("make", [LGreedyMatcher, AmpMatcher])
def test_14_det_duel_k3_short_sighted_matchers_stall_at_target(make):
    adv = DetLowerBoundAdversary(3, depth=5)
    matcher = make(3, model=ARRIVAL)
    assert drive(adv, matcher) == EXPECTATION_MISS
    alg, opt = matcher.graph.matching_size(), live_opt(matcher)
    assert (alg, opt) == (2, 3)  # declined the first length-5 path
    assert opt / alg == pytest.approx(1.5)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_15_det_duel_even_budget_greedy_terminal(k):
    adv = DetLowerBoundAdversary(k)
    matcher = GreedyMatcher(k, ARRIVAL)
    assert drive(adv, matcher) == SCRIPT_COMPLETE
    alg, opt = matcher.graph.matching_size(), live_opt(matcher)
    assert (alg, opt) == (k + 2, k + 4) == adv.terminal
    assert opt / alg >= adv.target - 1e-9
    matcher.graph.validate()


@pytest.mark.parametrize("k", [5, 7])
def test_16_det_duel_odd_budget_greedy_terminal(k):
    adv = DetLowerBoundAdversary(k)
    matcher = GreedyMatcher(k, ARRIVAL)
    outcome, oracle = drive_with_oracle(adv, matcher)
    assert outcome == SCRIPT_COMPLETE
    alg, opt = matcher.graph.matching_size(), oracle.size
    assert (alg, opt) == (k + 4, k + 7) == adv.terminal
    assert opt / alg >= adv.target - 1e-9
    if len(matcher.graph.edges) <= 24:
        assert live_opt(matcher) == opt


@pytest.mark.parametrize("k", [4, 5, 6, 8])
@pytest.mark.parametrize("make", [LGreedyMatcher, AmpMatcher])
def test_17_det_duel_stalled_matchers_still_witness_target(k, make):
    adv = DetLowerBoundAdversary(k)
    matcher = make(k, model=ARRIVAL)
    outcome = drive(adv, matcher)
    if (k, make) == (4, LGreedyMatcher):
        # uncapped at budget 4, so it walks the whole script like greedy
        assert outcome == SCRIPT_COMPLETE
        assert (matcher.graph.matching_size(), live_opt(matcher)) == (6, 8)
    else:
        assert outcome == EXPECTATION_MISS
    alg, opt = matcher.graph.matching_size(), live_opt(matcher)
    assert opt / alg >= adv.target - 1e-9


def test_18_det_duel_miss_ratios_during_growth():
    # the growth phase stalls at alg = j-1 vs opt = j, never below target
    k = 6
    adv = DetLowerBoundAdversary(k)
    matcher = LGreedyMatcher(k, model=ARRIVAL)  # default cap L=2 stalls at j=4
    drive(adv, matcher)
    assert (matcher.graph.matching_size(), live_opt(matcher)) == (3, 4)


def test_19_det_duel_bad_arguments():
    with pytest.raises(BadBudgetError):
        DetLowerBoundAdversary(2)
    with pytest.raises(BadParamsError):
        DetLowerBoundAdversary(3, depth=0)


def test_20_det_duel_fresh_vertices_only():
    adv = DetLowerBoundAdversary(4)
    seen: set[int] = set()
    matcher = GreedyMatcher(4, ARRIVAL)
    for batch in adv.play(matcher):
        for ev in batch:
            assert ev.action == ARRIVE
            seen.update(ev.endpoints)
        replay(batch, matcher)
    assert len(seen) == len(matcher.graph.vertices)


# ----------------------------------------------------------------------
# churn duel in the full model


@pytest.mark.parametrize("k,terminal", [(1, (1, 2)), (2, (0, 1)), (3, (1, 2)), (4, (0, 1))])
def test_21_full_departure_duel_terminals(k, terminal):
    adv = FullDepartureAdversary(k)
    matcher = GreedyMatcher(k, FULL)
    assert drive(adv, matcher) == SCRIPT_COMPLETE
    alg, opt = matcher.graph.matching_size(), live_opt(matcher)
    assert (alg, opt) == terminal == adv.terminal
    assert adv.target == 2.0


def test_22_full_departure_middle_edge_burns_whole_budget():
    adv = FullDepartureAdversary(4)
    matcher = GreedyMatcher(4, FULL)
    drive(adv, matcher)
    g = matcher.graph
    assert len(g.edges) == 1
    (edge,) = g.edges.values()
    assert edge.endpoints == (2, 3)
    assert edge.etype == 4 and not edge.matched


def test_23_full_departure_bad_budget():
    with pytest.raises(BadBudgetError):
        FullDepartureAdversary(0)


def test_24_duel_outcome_constants_are_distinct():
    assert len({SCRIPT_COMPLETE, EXPECTATION_MISS, "move-cap"}) == 3


def test_25_adversaries_report_names_and_targets():
    adv = DetLowerBoundAdversary(5)
    assert adv.name == "det-lb-k5"
    assert adv.target == pytest.approx(1.25)
    churn = FullDepartureAdversary(3)
    assert churn.name == "full-departure-k3"
    assert churn.outcome is None


def test_26_lgreedy_stream_oracle_tracks_brute_force():
    events = lgreedy_lb_stream(6, 4)  # L=4 has no pendant pairs at all
    g = Graph(1)
    oracle = OracleState(g.rows)
    edges = []
    for ev in events:
        u, v = ev.endpoints
        g.add_edge(u, v)
        oracle.insert(u, v)
        edges.append((u, v))
    assert oracle.size == brute_force_max_matching(edges)
    matcher = replay(events, LGreedyMatcher(6, L=4, model=ARRIVAL))
    # without pendants the matcher keeps pace with the optimum exactly
    assert matcher.graph.matching_size() == oracle.size


def test_27_greedy_stream_is_arrival_only():
    assert all(ev.action == ARRIVE for ev in greedy_lb_stream(4, 2))
    assert all(ev.action == ARRIVE for ev in lgreedy_lb_stream(8, 6, copies=2))
    assert any(ev.action != ARRIVE for ev in _churn_events())


def _churn_events():
    adv = FullDepartureAdversary(2)
    matcher = GreedyMatcher(2, FULL)
    events = []
    for batch in adv.play(matcher):
        events.extend(batch)
        replay(batch, matcher)
    return events


def _played(adv, matcher):
    """The batches a duel script feeds to ``matcher``, up to its stop."""
    batches = []
    for batch in adv.play(matcher):
        batches.append(batch)
        replay(batch, matcher)
    assert adv.outcome in (EXPECTATION_MISS, SCRIPT_COMPLETE)
    return batches


@pytest.mark.parametrize(
    "make,k,model",
    [(DetLowerBoundAdversary, k, ARRIVAL) for k in range(3, 8)]
    + [(FullDepartureAdversary, k, FULL) for k in range(3, 7)],
)
def test_28_scripted_duels_are_oblivious(make, k, model):
    # the script never reads the board to pick a move: any matcher sees a
    # prefix of the moves greedy sees, cut at its first miss
    full = _played(make(k), GreedyMatcher(k, model))
    for matcher in (LGreedyMatcher(k, model=model), AmpMatcher(k, model=model)):
        played = _played(make(k), matcher)
        assert played == full[: len(played)]
