"""Behavior of the three online matchers on hand-built and random streams."""

from __future__ import annotations

import copy
import math
import random
from collections.abc import Mapping

import pytest

from flipmatch.algos import (
    AmpMatcher,
    GreedyMatcher,
    LGreedyMatcher,
    NegativeEndpointWeightError,
    WeightLedger,
    amp_phase_violations,
    effective_budget,
    floor_log,
    make_matcher,
)
from flipmatch import algos, bounds, oracle
from flipmatch.adversaries import greedy_lb_stream
from flipmatch.blossom import find_augmenting_path
from flipmatch.core import (
    ARRIVAL,
    ARRIVE,
    FULL,
    LIMITED,
    MODELS,
    BlockedPathError,
    Graph,
    IllegalEventError,
    arrive,
    depart,
    is_augmenting,
    symmetric_difference,
)
from flipmatch.harness import duel, random_churn, replay
from flipmatch.oracle import brute_force_max_matching
from flipmatch.stringgame import MATCHER_STALLED, StringGameAdversary

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def feed(matcher, events):
    for ev in events:
        if ev.action == ARRIVE:
            matcher.on_arrival(ev)
        else:
            matcher.on_departure(ev)


def decompose(g, alg, opt):
    """ALG ^ OPT over the whole graph, as the walks of its paths and cycles.

    The independent reference for ``symmetric_difference``: it builds the
    difference's adjacency from every pair of the two partner maps, then
    walks paths from their smaller end vertex in increasing order, then
    cycles from their smallest vertex.
    """
    adj = {}
    for mine, other in ((alg, opt), (opt, alg)):
        for v, w in mine.items():
            if other.get(v) != w:
                adj.setdefault(v, []).append((w, g.edge(v, w)))
    for steps in adj.values():
        steps.sort(key=lambda step: step[0])  # v's two steps lead to distinct neighbours
        assert len(steps) <= 2, "two matchings give max degree 2"
    done = set()
    walks = []

    def walk_from(start):
        walk, cur = [start], start
        while True:
            step = next(((n, e) for n, e in adj[cur] if e not in done), None)
            if step is None:
                return walk
            cur, e = step
            done.add(e)
            walk.append(cur)
            if cur == start:
                return walk

    ends = sorted(v for v, steps in adj.items() if len(steps) == 1)
    for start in ends + sorted(adj):
        if any(e not in done for _, e in adj[start]):
            walks.append(walk_from(start))
    return walks


def augmenting_unspent(g, walks, max_edges=None):
    """The augmenting ``walks`` with at most ``max_edges`` edges, none spent on ``g``."""
    return [
        w
        for w in walks
        if is_augmenting(g, w)
        and (max_edges is None or len(w) - 1 <= max_edges)
        and all(g.edge(a, b).etype < g.budget for a, b in zip(w, w[1:]))
    ]


def lgreedy_candidates(m):
    """L-Greedy's candidate walks, from the whole-graph decomposition of ALG ^ OPT."""
    g = m.graph
    cap = None if m.L is None else 2 * m.L + 1
    return augmenting_unspent(g, decompose(g, g.mate, m.oracle.mate), cap)


def unoriented(walks):
    """``walks`` with each read from its smaller end, sorted: equal for equal paths."""
    return sorted(min(w, w[::-1]) for w in walks)


def test_01_effective_budget():
    assert effective_budget(2) == 2
    assert effective_budget(4) == 4
    assert effective_budget(3) == 2
    assert effective_budget(5) == 4
    with pytest.raises(bounds.BadBudgetError) as err:
        effective_budget(1)
    assert err.value.code == "bad-k"


def test_02_greedy_basic_augmentation():
    m = GreedyMatcher(2)
    feed(m, [arrive(1, 2), arrive(0, 1), arrive(2, 3)])
    g = m.graph
    # the last arrival closes a length-3 augmenting path 0-1-2-3
    assert g.matching_size() == 2
    assert g.edge(0, 1).matched
    assert g.edge(2, 3).matched
    assert g.edge(1, 2).etype == 2  # flipped twice, now spent
    assert m.augmentations == 2
    g.validate()


def test_03_greedy_full_model_collapse():
    # with budget 2 a matched departure can strand the whole component
    m = GreedyMatcher(2, model=FULL)
    feed(m, [arrive(1, 2), arrive(0, 1), arrive(2, 3)])
    m.on_departure(depart(0, 1))
    assert m.graph.matching_size() == 1  # (2,3) survives, (1,2) is spent
    m.on_departure(depart(2, 3))
    assert m.graph.matching_size() == 0
    # the only remaining edge is spent, so greedy is stuck at 0 vs OPT 1
    assert brute_force_max_matching([(1, 2)]) == 1


def test_04_greedy_limited_model_guard():
    m = GreedyMatcher(2, model=LIMITED)
    m.on_arrival(arrive(0, 1))
    with pytest.raises(IllegalEventError) as err:
        m.on_departure(depart(0, 1))
    assert err.value.code == "illegal-event-for-model"
    m.on_arrival(arrive(1, 2))  # stays unmatched: 1 is covered
    m.on_departure(depart(1, 2))  # unmatched edges may leave
    assert m.graph.matching_size() == 1


def test_05_greedy_odd_budget_uses_all_flips():
    m = GreedyMatcher(3)
    g = m.graph
    feed(m, [arrive(1, 2), arrive(0, 1), arrive(2, 3)])
    # path applied once: middle edge at type 2, still below budget 3
    assert g.edge(1, 2).etype == 2
    m.on_departure(depart(0, 1))
    # no augmentation: 1 is free but 3 is still matched
    assert g.matching_size() == 1
    m.on_departure(depart(2, 3))
    # now (1,2) alone is augmenting; its third and last flip is spent
    assert g.edge(1, 2).matched
    assert g.edge(1, 2).etype == 3
    # fresh copies of the departed edges cannot help: the path through the
    # spent middle edge is blocked, so greedy idles at 1 vs optimum 2
    feed(m, [arrive(0, 1), arrive(2, 3)])
    assert g.matching_size() == 1
    assert brute_force_max_matching([(0, 1), (1, 2), (2, 3)]) == 2


def test_07_weight_ledger_alpha_values():
    assert WeightLedger(4, 1).alpha == pytest.approx(1 / 20)
    assert WeightLedger(6, 2).alpha == pytest.approx(1 / 44)
    assert WeightLedger(8, 2).alpha == pytest.approx(1 / 60)


def test_08_weight_ledger_distribute():
    # the ledger reads only the walk: a length-5 path over vertices 0..5
    ledger = WeightLedger(6, 2)
    ledger.distribute(list(range(6)))
    a = ledger.alpha
    assert ledger.weights[0] == pytest.approx(0.5 - 2 * a)
    assert ledger.weights[5] == pytest.approx(0.5 - 2 * a)
    for v in range(1, 5):
        assert ledger.weights[v] == pytest.approx(a)
    assert ledger.total() == pytest.approx(1.0)


def test_09_weight_ledger_negative_endpoint():
    ledger = WeightLedger(4, 1)  # alpha = 1/20; half-length 11 overdraws
    with pytest.raises(NegativeEndpointWeightError) as err:
        ledger.distribute(list(range(24)))
    assert err.value.code == "negative-endpoint-weight"
    assert ledger.weights == {}


def test_10_lgreedy_step_length_gate():
    # the arrivals leave ALG = {(1,2), (3,4)} and OPT = {(0,1), (2,3), (4,5)}:
    # the symmetric difference is one length-5 augmenting path
    path = [arrive(1, 2), arrive(3, 4), arrive(2, 3), arrive(0, 1), arrive(4, 5)]
    stalled = LGreedyMatcher(6, L=1)
    feed(stalled, path)
    assert stalled.oracle.size == 3
    assert len(stalled.graph.matching()) == 2
    applied = LGreedyMatcher(6, L=2)
    feed(applied, path)
    g = applied.graph
    assert applied.graph.mate == applied.oracle.mate
    # all five edges flipped in one step: the inner two are back out at type 2
    assert [g.edge(a, a + 1).etype for a in range(5)] == [1, 2, 1, 2, 1]


def test_11_lgreedy_blind_spot_stays_stalled():
    # two long augmenting paths plus one fresh edge the bookkeeping never
    # sees: the fresh edge joins two optimum-covered vertices, so it enters
    # neither the optimum nor the symmetric difference, yet it is a plain
    # length-1 augmenting path of the graph itself.
    a, b, p, e, f, u = 0, 1, 2, 3, 4, 5
    c, d, q, r, s, v = 6, 7, 8, 9, 10, 11
    m = LGreedyMatcher(4, L=1)
    assert m.L == 1
    feed(
        m,
        [
            arrive(a, b),
            arrive(p, e),
            arrive(b, p),
            arrive(u, a),
            arrive(e, f),
            arrive(c, d),
            arrive(q, r),
            arrive(d, q),
            arrive(v, c),
            arrive(r, s),
            arrive(u, v),
        ],
    )
    g = m.graph
    assert len(m.graph.matching()) == 4
    assert m.oracle.size == 6
    # a later arrival elsewhere is served, and the missed edge stays unmatched
    feed(m, [arrive(12, 13)])
    assert len(m.graph.matching()) == 5
    uv = g.edge(u, v)
    assert not uv.matched and uv.etype == 0
    assert g.is_free(u) and g.is_free(v)
    assert lgreedy_candidates(m) == []
    assert symmetric_difference(g, m.oracle.mate, g.vertices, cap=2 * m.L + 1) == []
    # plain greedy on the same graph would grab the missed edge immediately
    assert is_augmenting(g, [u, v])
    g.apply_augmenting_path([u, v])
    assert len(m.graph.matching()) == 6


def test_12_lgreedy_ledger_tracks_matching_size():
    m = LGreedyMatcher(6)
    feed(m, [arrive(0, 1), arrive(2, 3), arrive(1, 2), arrive(0, 4), arrive(3, 5)])
    assert len(m.graph.matching()) == 3
    assert m.ledger.total() == pytest.approx(3.0)


def test_13_lgreedy_odd_budget_reserves_last_flip():
    m = LGreedyMatcher(5, L=1)
    assert m.graph.budget == 4
    # ledger uses the even budget too
    assert m.ledger.alpha == pytest.approx(1 / 20)
    # budget 4 (and odd 5) defaults to no cap; the ledger then has no
    # amortisation to do
    uncapped = LGreedyMatcher(4)
    assert uncapped.L is None
    assert uncapped.ledger.alpha == 0.0


def test_14_floor_log_boundaries():
    assert floor_log(1, 2.0) == 0
    assert floor_log(2, 2.0) == 1
    assert floor_log(7, 2.0) == 2
    assert floor_log(8, 2.0) == 3
    # r**2 == 3 exactly, up to float noise in log()
    assert floor_log(3, math.sqrt(3)) == 2
    # r**4 == 5 exactly
    assert floor_log(5, 5**0.25) == 4
    assert floor_log(4, 5**0.25) == 3
    with pytest.raises(bounds.BadParamsError) as err:
        floor_log(0, 2.0)
    assert err.value.code == "bad-params"


def test_15_amp_phase_trace_k4():
    m = AmpMatcher(4)
    assert m.r == pytest.approx(math.sqrt(3))
    for i in range(6):
        m.on_arrival(arrive(2 * i, 2 * i + 1))
    # levels at optimum sizes 1..6: 0,1,2,2,2,3 -> phases open at 1,2,3,6
    assert m.phase == len(m.history) == 4
    assert [rec.ell for rec in m.history] == [0, 1, 2, 3]
    assert [rec.opt_size for rec in m.history] == [1, 2, 3, 6]
    assert [rec.alg_size for rec in m.history] == [1, 2, 3, 6]
    assert len(m.graph.matching()) == 6


def test_16_amp_idles_between_phases():
    m = AmpMatcher(4)
    for i in range(4):
        m.on_arrival(arrive(2 * i, 2 * i + 1))
    # optimum is 4 but the last phase synced at 3
    assert len(m.graph.matching()) == 3
    assert m.phase == 3
    assert m.oracle.size == 4


def test_17_amp_sync_skips_spent_edges():
    m = AmpMatcher(2)
    assert m.r == 2.0
    m.on_arrival(arrive(0, 1))
    assert len(m.graph.matching()) == 1
    m.on_arrival(arrive(0, 2))
    m.on_arrival(arrive(1, 3))
    # optimum doubled: sync applies 2-0-1-3 and spends edge (0,1)
    assert m.phase == 2
    g = m.graph
    assert g.edge(0, 2).matched
    assert g.edge(1, 3).matched
    assert g.edge(0, 1).etype == 2
    m.on_departure(depart(0, 2))
    m.on_departure(depart(1, 3))
    # the matcher is empty; the internal optimum falls back on the spent edge
    assert len(m.graph.matching()) == 0
    assert m.oracle.size == 1
    m.on_arrival(arrive(4, 5))
    m.on_arrival(arrive(6, 7))
    m.on_arrival(arrive(8, 9))
    # optimum 4 lifts the level to 2; the sync must skip the spent edge
    assert m.phase == 3
    assert len(m.graph.matching()) == 3
    assert m.oracle.size == 4
    assert not g.edge(0, 1).matched
    rec = m.history[-1]
    assert rec.alg_size == 3
    assert rec.opt_size == 4
    assert rec.spent_vertices == 2
    g.validate()


def test_18_amp_rejects_bad_growth_and_rounds_odd_budgets():
    # an infinite r used to build a matcher whose guarantee() read nan, so
    # the referee's ratio > bound test never counted a violation
    for r in (1.0, math.inf, math.nan):
        for build in (lambda r: AmpMatcher(4, r), lambda r: bounds.amp_bound(4, r)):
            with pytest.raises(bounds.BadParamsError) as err:
                build(r)
            assert err.value.code == "bad-params"
    # the matcher builds its board at the even budget below an odd one
    m = AmpMatcher(5)
    assert m.graph.budget == 4
    assert m.r == pytest.approx(math.sqrt(3))
    m3 = AmpMatcher(3)
    assert m3.graph.budget == 2
    assert m3.r == 2.0


def test_19_make_matcher():
    m = make_matcher("lgreedy", 6, model=ARRIVAL, L=2)
    assert isinstance(m, LGreedyMatcher)
    assert m.L == 2
    with pytest.raises(bounds.BadParamsError) as err:
        make_matcher("optimal", 4)
    assert err.value.code == "bad-params"
    # the length cap must be a non-negative integer; L=0 allows single edges only
    for bad in (-1, 1.5, True):
        with pytest.raises(bounds.BadParamsError) as err:
            make_matcher("lgreedy", 6, model=ARRIVAL, L=bad)
        assert err.value.code == "bad-params"
    assert make_matcher("lgreedy", 6, model=ARRIVAL, L=0).guarantee() == pytest.approx(2.0)
    # an option the matcher does not take is named with the matcher, not a
    # bare TypeError from its constructor
    for algo, option in (("greedy", "L"), ("greedy", "r"), ("lgreedy", "r"), ("amp", "L")):
        with pytest.raises(bounds.BadParamsError) as err:
            make_matcher(algo, 4, **{option: 3})
        assert err.value.code == "bad-params"
        assert str(err.value) == f"matcher {algo!r} takes no option {option}"


GUARANTEES = [
    ("greedy", 2, 1.5),
    ("greedy", 3, 2.0),
    ("greedy", 4, 1.5),
    ("lgreedy", 4, 1.5),
    ("lgreedy", 5, 1.5),
    ("lgreedy", 6, bounds.lgreedy_bound(6)),
    ("amp", 4, bounds.amp_bound_improved(4)),
    ("amp", 6, bounds.amp_bound_improved(6)),
]


if HAVE_HYPOTHESIS:

    pair_lists = st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=18
    )

    @pytest.mark.parametrize("algo,k,bound", GUARANTEES)
    @given(pairs=pair_lists)
    @settings(max_examples=40, deadline=None)
    def test_20_arrival_streams_respect_guarantee(algo, k, bound, pairs):
        m = make_matcher(algo, k, model=ARRIVAL)
        live: set[tuple[int, int]] = set()
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in live:
                continue
            live.add((min(u, v), max(u, v)))
            m.on_arrival(arrive(u, v))
            m.graph.validate()
            alg = len(m.graph.matching())
            opt = brute_force_max_matching(live)
            assert alg <= opt
            assert opt <= bound * alg + 1e-9
            for e in m.graph.edges.values():
                assert 0 <= e.etype <= m.graph.budget
                assert e.matched == (e.etype % 2 == 1)

    full_steps = st.lists(
        st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 6)),
        max_size=24,
    )

    @pytest.mark.parametrize("algo,k", [("greedy", 2), ("lgreedy", 4), ("amp", 4)])
    @given(steps=full_steps)
    @settings(max_examples=40, deadline=None)
    def test_21_full_model_stays_consistent(algo, k, steps):
        m = make_matcher(algo, k, model=FULL)
        live: set[tuple[int, int]] = set()
        for leaving, u, v in steps:
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if leaving:
                if pair not in live:
                    continue
                live.discard(pair)
                m.on_departure(depart(u, v))
            else:
                if pair in live:
                    continue
                live.add(pair)
                m.on_arrival(arrive(u, v))
            m.graph.validate()
            alg = len(m.graph.matching())
            opt = brute_force_max_matching(live)
            assert alg <= opt
            assert m.oracle.size == opt


@pytest.mark.parametrize("algo", ["lgreedy", "amp"])
def test_22_bookkeeping_matchers_reject_budget_one(algo):
    # the reserved last flip leaves them an even budget of 0
    with pytest.raises(bounds.BadBudgetError) as err:
        make_matcher(algo, 1)
    assert err.value.code == "bad-k"


def assert_order_unobservable(m, candidates):
    """Applying ``candidates`` in found and in reverse order ends on one board."""
    ends = []
    for ordered in (candidates, candidates[::-1]):
        twin = copy.deepcopy(m)
        LGreedyMatcher._exhaust(twin, list(ordered))
        g = twin.graph
        edges = {pair: (e.etype, e.matched) for pair, e in g.edges.items()}
        ends.append((edges, g.mate, g.total_flips, twin.ledger.weights))
    assert ends[0] == ends[1]


def test_23_lgreedy_applies_both_tied_candidates_in_one_event():
    # The spent edge (1,4) sits in the optimum until the last arrival pushes
    # the optimum onto (4,5) and (0,1): two length-1 candidates in one event.
    # They share no vertex, so applying them in either order ends the same.
    m = LGreedyMatcher(2, model=FULL)
    feed(m, [arrive(1, 4), arrive(4, 5), arrive(0, 1), depart(4, 5), depart(0, 1)])
    g = m.graph
    assert g.edge(1, 4).etype == g.budget
    assert g.matching_size() == 0
    handed = []
    exhaust = m._exhaust

    def checked_exhaust(candidates):
        handed.append(len(candidates))
        assert_order_unobservable(m, candidates)
        exhaust(candidates)

    m._exhaust = checked_exhaust
    feed(m, [arrive(4, 5), arrive(0, 1)])
    assert handed[-1] == 2
    assert g.matching() == {(4, 5), (0, 1)}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", [4, 5, 6, 8])
def test_24_lgreedy_live_difference_matches_whole_graph_rebuild(model, k):
    # every event hands _exhaust exactly the candidates a whole-graph rebuild
    # finds, leaves none behind, and would end on the same board had it
    # applied them in reverse order
    default_L = bounds.lgreedy_default_L(effective_budget(k))
    checked = 0
    for L in (None, 1, default_L):
        for seed in range(6):
            m = LGreedyMatcher(k, L=L, model=model)
            exhaust = m._exhaust

            def checked_exhaust(candidates, m=m, exhaust=exhaust):
                nonlocal checked
                assert unoriented(candidates) == unoriented(lgreedy_candidates(m))
                assert_order_unobservable(m, candidates)
                exhaust(candidates)
                assert lgreedy_candidates(m) == []
                checked += 1

            m._exhaust = checked_exhaust
            random_churn(random.Random(1000 * k + seed), m, 100)
    assert checked > 0


def test_25_lgreedy_string_duel_never_rebuilds_the_difference(monkeypatch):
    # L-Greedy walks ALG ^ OPT only from the vertices an event moved: the
    # oracle's moved vertices and the event's ends. AMP's sync walks it from
    # every vertex where the two partner maps disagree.
    walker = algos.symmetric_difference
    reacting = []  # (matcher, event ends) of the reaction in progress
    calls = {"lgreedy": 0, "amp": 0}

    def spy(g, opt, seeds, *, cap=None):
        seeds = list(seeds)
        m, ends = reacting[-1]
        assert g is m.graph and opt is m.oracle.mate
        if m.name == "lgreedy":
            assert set(seeds) <= m.oracle.moved | set(ends)
        else:
            assert {v for v, _ in g.mate.items() ^ opt.items()} <= set(seeds)
        calls[m.name] += 1
        return walker(g, opt, seeds, cap=cap)

    monkeypatch.setattr(algos, "symmetric_difference", spy)
    for algo in calls:
        m = make_matcher(algo, 8, LIMITED)
        react = m._react

        def watched(ends, departed, m=m, react=react):
            reacting.append((m, ends))
            react(ends, departed)
            reacting.pop()

        m._react = watched
        report = duel(StringGameAdversary(8), m)
        assert report.bound_violations == 0
        assert calls[algo] > 0
        if algo == "lgreedy":
            assert report.stop_reason == MATCHER_STALLED


def test_26_greedy_leaves_no_augmenting_path_after_any_event():
    # _exhaust stops after one path, or two when a spent matched edge
    # departs; a fresh search of the allowed component from the event's ends
    # must then find nothing. Only an odd budget in the full model lets a
    # spent edge stay matched and depart, so those runs get more seeds.
    second_paths = 0
    for model in MODELS:
        for k in range(2, 10):
            seeds = 40 if model == FULL and k % 2 == 1 else 10
            for seed in range(seeds):
                m = GreedyMatcher(k, model)
                react = m._react

                def checked_react(ends, departed, m=m, react=react):
                    nonlocal second_paths
                    before = m.augmentations
                    react(ends, departed)
                    adj, roots = m.graph.component_view(ends)
                    walk = find_augmenting_path(adj, m.graph.mate, roots)
                    assert walk is None, (model, k, seed)
                    if m.augmentations - before == 2:
                        assert departed.matched and departed.etype == m.graph.budget
                        second_paths += 1

                m._react = checked_react
                random_churn(random.Random(seed), m, 100, max_vertices=10)
    assert second_paths >= 10


def test_27_unknown_model_is_refused():
    # a misspelt model used to act as the full model and let a matched edge go
    with pytest.raises(bounds.BadParamsError) as err:
        Graph(4, "limted")
    assert err.value.code == "bad-params"
    for algo in ("greedy", "lgreedy", "amp"):
        with pytest.raises(bounds.BadParamsError) as err:
            make_matcher(algo, 4, model="limted")
        assert err.value.code == "bad-params"


def test_28_greedy_builds_no_view_while_the_board_has_under_two_free_vertices(monkeypatch):
    views: list[tuple[int, ...]] = []
    component_view = Graph.component_view

    def spy(self, seeds):
        views.append(tuple(seeds))
        return component_view(self, seeds)

    monkeypatch.setattr(Graph, "component_view", spy)
    m = GreedyMatcher(4, ARRIVAL)
    # an arrival between two free vertices is its own augmenting path
    feed(m, [arrive(1, 2), arrive(3, 4)])
    assert views == []
    assert m.augmentations == 2
    # an augmenting path needs two free vertices: none is free when 1-3
    # arrives, and 0 is the only one when 0-1 and then 2-3 do
    feed(m, [arrive(1, 3), arrive(0, 1), arrive(2, 3)])
    assert views == []
    assert m.graph.matching_size() == 2
    # 0 and 5 free: 2-3 arrives with both ends matched and opens 0-1-2-3-4-5
    m = GreedyMatcher(4, ARRIVAL)
    feed(m, [arrive(1, 2), arrive(3, 4), arrive(0, 1), arrive(4, 5)])
    assert m.graph.matching_size() == 2
    feed(m, [arrive(2, 3)])
    assert m.graph.matching_size() == 3
    assert m.augmentations == 3
    m.graph.validate()


def test_29_lgreedy_walk_stops_when_it_closes_a_cycle(monkeypatch):
    # Uncapped (budget 4), only the judged check ends a walk around a
    # spent-free cycle of ALG ^ OPT; full-model churn on 8 vertices reaches
    # such cycles. Here ALG is 1-2, 3-4 and the optimum is set by hand to
    # the other perfect matching of the 4-cycle, 2-3, 4-1.
    m = LGreedyMatcher(4, model=FULL)
    assert m.L is None
    feed(m, [arrive(1, 2), arrive(3, 4), arrive(2, 3), arrive(4, 1)])
    assert m.graph.mate == m.oracle.mate == {1: 2, 2: 1, 3: 4, 4: 3}
    m.oracle.mate.update({1: 4, 4: 1, 2: 3, 3: 2})
    reads = []
    edge = Graph.edge

    def spy(self, u, v):
        reads.append((u, v))
        return edge(self, u, v)

    monkeypatch.setattr(Graph, "edge", spy)
    # each vertex is judged once, so seeding all four reads each edge at most once
    assert symmetric_difference(m.graph, m.oracle.mate, [1, 2, 3, 4]) == []
    assert len(reads) == len(set(reads)) <= 4
    reads.clear()
    m.oracle.moved = {1, 2, 3, 4}
    m._react((2, 3), None)
    assert m.graph.mate == {1: 2, 2: 1, 3: 4, 4: 3}
    assert len(reads) == len(set(reads)) <= 4


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", range(2, 9))
def test_30_amp_sync_leaves_no_augmenting_unspent_component(model, k):
    # right after every phase opens, the whole-graph reference finds no
    # augmenting component of ALG ^ OPT free of spent edges
    synced = 0
    for seed in range(8):
        m = AmpMatcher(k, model=model)
        react = m._react

        def checked_react(ends, departed, m=m, react=react):
            nonlocal synced
            phase = m.phase
            react(ends, departed)
            if m.phase > phase:
                g = m.graph
                walks = decompose(g, g.mate, m.oracle.mate)
                assert augmenting_unspent(g, walks) == [], (model, k, seed)
                synced += 1

        m._react = checked_react
        random_churn(random.Random(100 * k + seed), m, 80, max_vertices=12)
    assert synced > 0


@pytest.mark.parametrize("build", [LGreedyMatcher, AmpMatcher])
def test_31_bookkeeping_board_holds_the_even_budget(build):
    # at an odd budget the board itself keeps the last flip in reserve
    g = build(5).graph
    assert g.budget == 4
    g.add_edge(1, 2).etype = 4  # unmatched, after four flips
    with pytest.raises(BlockedPathError) as err:
        g.apply_augmenting_path([1, 2])
    assert err.value.code == "blocked-path"


@pytest.mark.parametrize("k", [4, 5])
def test_32_lgreedy_budget_4_with_a_cap_claims_the_formula(k):
    # the walk 1-2-3-4 is longer than the cap's 1 edge, so L-Greedy stays at
    # ratio 2, which an explicit cap at budget 4 must allow
    stream = [arrive(2, 3), arrive(1, 2), arrive(3, 4)]
    report = replay(stream, LGreedyMatcher(k, L=0, model=ARRIVAL))
    assert report.final_sizes == (1, 2)
    assert report.bound == 2.0
    assert report.bound_violations == 0


@pytest.mark.parametrize(
    "k,edges,alg,ells",
    [(4, 5, 3, [0, 1, 2]), (6, 37, 25, list(range(9)))],
)
def test_33_amp_idles_up_to_r_between_phases(k, edges, alg, ells):
    # disjoint arrivals grow the optimum by one edge a step; AMP matches
    # nothing new until the optimum reaches the next power of r, so its
    # ratio climbs towards r while greedy and L-Greedy match every edge
    stream = [arrive(2 * i + 1, 2 * i + 2) for i in range(edges)]
    m = AmpMatcher(k, model=ARRIVAL)
    report = replay(stream, m)
    assert report.final_sizes == (alg, edges)
    assert report.bound_violations == 0
    assert [rec.ell for rec in m.history] == ells
    assert amp_phase_violations(m) == []
    for algo in ("greedy", "lgreedy"):
        other = replay(stream, make_matcher(algo, k, ARRIVAL))
        assert {rec.ratio for rec in other.records} == {1.0}


def test_34_greedy_matches_a_both_free_arrival_as_its_search_would():
    # the rule in GreedyMatcher._react against the search it skips: from the
    # view built before the reaction, the search returns the arrived edge
    checked = 0
    for model in MODELS:
        for k in range(1, 10):
            for vertices in (8, 16):
                for seed in range(8):
                    m = GreedyMatcher(k, model)
                    react = m._react

                    def checked_react(ends, departed, m=m, react=react):
                        nonlocal checked
                        g = m.graph
                        if departed is None and ends[0] not in g.mate and ends[1] not in g.mate:
                            adj, roots = g.component_view(ends)
                            assert find_augmenting_path(adj, g.mate, roots) == list(ends)
                            checked += 1
                        react(ends, departed)

                    m._react = checked_react
                    random_churn(random.Random(seed), m, 100, max_vertices=vertices)
    assert checked > 2000


class CountingRows(Mapping):
    """Rows a search reads through, counting each ``adj[v]`` read."""

    def __init__(self, rows, reads):
        self.rows, self.reads = rows, reads

    def __getitem__(self, v):
        self.reads[0] += 1
        return self.rows[v]

    def __contains__(self, v):
        return v in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@pytest.mark.parametrize("algo", ["greedy", "lgreedy", "amp"])
def test_35_plain_chain_scans_stay_linear(algo, monkeypatch):
    # rows scanned per event (component-view rows plus each search's row
    # reads) stay flat as the starvation chain grows: about 4x from n = 500
    # to 2000 would mean a quadratic replay
    scans = [0]
    component_view, search = Graph.component_view, find_augmenting_path

    def view_spy(self, seeds):
        adj, roots = component_view(self, seeds)
        scans[0] += len(adj)
        return adj, roots

    def search_spy(adj, mate, roots):
        return search(CountingRows(adj, scans), mate, roots)

    monkeypatch.setattr(Graph, "component_view", view_spy)
    monkeypatch.setattr(algos, "find_augmenting_path", search_spy)
    monkeypatch.setattr(oracle, "find_augmenting_path", search_spy)
    per_event = []
    for n in (500, 2000):
        scans[0] = 0
        stream = greedy_lb_stream(6, n)
        replay(stream, make_matcher(algo, 6, ARRIVAL))
        per_event.append(scans[0] / len(stream))
    assert per_event[1] <= 1.5 * per_event[0]
