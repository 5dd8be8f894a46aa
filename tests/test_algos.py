"""Behavior of the three online matchers on hand-built and random streams."""

from __future__ import annotations

import math

import pytest

from flipmatch.algos import (
    AmpMatcher,
    AmpState,
    GreedyMatcher,
    LGreedyMatcher,
    NegativeEndpointWeightError,
    OddBudgetError,
    WeightLedger,
    effective_budget,
    floor_log,
    lgreedy_step,
    make_matcher,
)
from flipmatch import bounds
from flipmatch.core import (
    ARRIVAL,
    ARRIVE,
    AUGMENTING_PATH,
    FULL,
    LIMITED,
    Graph,
    LimitedDepartureViolation,
    arrive,
    depart,
)
from flipmatch.oracle import OracleState, brute_force_max_matching

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
    assert g.edge(g.edge_id(0, 1)).matched
    assert g.edge(g.edge_id(2, 3)).matched
    assert g.edge(g.edge_id(1, 2)).etype == 2  # flipped twice, now spent
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
    with pytest.raises(LimitedDepartureViolation):
        m.on_departure(depart(0, 1))
    m.on_arrival(arrive(1, 2))  # stays unmatched: 1 is covered
    m.on_departure(depart(1, 2))  # unmatched edges may leave
    assert m.graph.matching_size() == 1


def test_05_greedy_odd_budget_uses_all_flips():
    m = GreedyMatcher(3)
    g = m.graph
    feed(m, [arrive(1, 2), arrive(0, 1), arrive(2, 3)])
    # path applied once: middle edge at type 2, still below budget 3
    assert g.edge(g.edge_id(1, 2)).etype == 2
    m.on_departure(depart(0, 1))
    # no augmentation: 1 is free but 3 is still matched
    assert g.matching_size() == 1
    m.on_departure(depart(2, 3))
    # now (1,2) alone is augmenting; its third and last flip is spent
    assert g.edge(g.edge_id(1, 2)).matched
    assert g.edge(g.edge_id(1, 2)).etype == 3
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
    g = Graph(6)
    eids = [g.add_edge(i, i + 1) for i in range(5)]
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path([eids[3]])
    ledger = WeightLedger(6, 2)
    component = g.component_from_edges(eids)
    ledger.distribute(g, component)
    a = ledger.alpha
    assert ledger.weights[0] == pytest.approx(0.5 - 2 * a)
    assert ledger.weights[5] == pytest.approx(0.5 - 2 * a)
    for v in range(1, 5):
        assert ledger.weights[v] == pytest.approx(a)
    assert ledger.total() == pytest.approx(1.0)


def test_09_weight_ledger_negative_endpoint():
    g = Graph(4)
    eids = [g.add_edge(i, i + 1) for i in range(23)]
    ledger = WeightLedger(4, 1)  # alpha = 1/20; half-length 11 overdraws
    component = g.component_from_edges(eids)
    with pytest.raises(NegativeEndpointWeightError) as err:
        ledger.distribute(g, component)
    assert err.value.code == "negative-endpoint-weight"


def test_10_lgreedy_step_length_gate():
    g = Graph(6)
    eids = [g.add_edge(i, i + 1) for i in range(5)]
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path([eids[3]])
    oracle = OracleState()
    for eid in eids:
        oracle.insert(eid, *g.edges[eid].endpoints)
    assert oracle.size == 3
    # the symmetric difference is one length-5 augmenting path
    assert lgreedy_step(g, oracle, L=1) is None
    applied = lgreedy_step(g, oracle, L=2)
    assert applied is not None
    assert len(applied.edges) == 5
    assert g.matching_size() == 3


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
    assert len(m.matching()) == 4
    assert m.oracle.size == 6
    uv = g.edge(g.edge_id(u, v))
    assert not uv.matched and uv.etype == 0
    assert g.is_free(u) and g.is_free(v)
    assert lgreedy_step(g, m.oracle, m.L) is None
    # plain greedy on the same graph would grab the missed edge immediately
    assert g.component_from_vertices([u, v]).kind == AUGMENTING_PATH
    g.apply_augmenting_path([uv.id])
    assert len(m.matching()) == 5


def test_12_lgreedy_ledger_tracks_matching_size():
    m = LGreedyMatcher(6)
    feed(m, [arrive(0, 1), arrive(2, 3), arrive(1, 2), arrive(0, 4), arrive(3, 5)])
    assert len(m.matching()) == 3
    assert m.ledger.total() == pytest.approx(3.0)


def test_13_lgreedy_odd_budget_reserves_last_flip():
    m = LGreedyMatcher(5, L=1)
    assert m.k_eff == 4
    assert m.params()["k_eff"] == 4
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
    with pytest.raises(ValueError):
        floor_log(0, 2.0)


def test_15_amp_phase_trace_k4():
    m = AmpMatcher(4)
    assert m.r == pytest.approx(math.sqrt(3))
    for i in range(6):
        m.on_arrival(arrive(2 * i, 2 * i + 1))
    # levels at optimum sizes 1..6: 0,1,2,2,2,3 -> phases open at 1,2,3,6
    assert [rec.phase for rec in m.history] == [1, 2, 3, 4]
    assert [rec.ell for rec in m.history] == [0, 1, 2, 3]
    assert [rec.opt_size for rec in m.history] == [1, 2, 3, 6]
    assert [rec.alg_size for rec in m.history] == [1, 2, 3, 6]
    assert len(m.matching()) == 6


def test_16_amp_idles_between_phases():
    m = AmpMatcher(4)
    for i in range(4):
        m.on_arrival(arrive(2 * i, 2 * i + 1))
    # optimum is 4 but the last phase synced at 3
    assert len(m.matching()) == 3
    assert m.phase == 3
    assert m.state.oracle.size == 4


def test_17_amp_sync_skips_spent_edges():
    m = AmpMatcher(2)
    assert m.r == 2.0
    m.on_arrival(arrive(0, 1))
    assert len(m.matching()) == 1
    m.on_arrival(arrive(0, 2))
    m.on_arrival(arrive(1, 3))
    # optimum doubled: sync applies 2-0-1-3 and spends edge (0,1)
    assert m.phase == 2
    g = m.graph
    assert g.edge(g.edge_id(0, 2)).matched
    assert g.edge(g.edge_id(1, 3)).matched
    assert g.edge(g.edge_id(0, 1)).etype == 2
    m.on_departure(depart(0, 2))
    m.on_departure(depart(1, 3))
    # the matcher is empty; the internal optimum falls back on the spent edge
    assert len(m.matching()) == 0
    assert m.state.oracle.size == 1
    m.on_arrival(arrive(4, 5))
    m.on_arrival(arrive(6, 7))
    m.on_arrival(arrive(8, 9))
    # optimum 4 lifts the level to 2; the sync must skip the spent edge
    assert m.phase == 3
    assert len(m.matching()) == 3
    assert m.state.oracle.size == 4
    assert not g.edge(g.edge_id(0, 1)).matched
    rec = m.history[-1]
    assert rec.alg_size == 3
    assert rec.opt_size == 4
    assert rec.spent_vertices == 2
    g.validate()


def test_18_amp_rejects_odd_budget_state():
    with pytest.raises(OddBudgetError) as err:
        AmpState(5, 1.5)
    assert err.value.code == "odd-budget"
    with pytest.raises(ValueError):
        AmpState(4, 1.0)
    # the matcher front-end rounds odd budgets down instead
    m = AmpMatcher(5)
    assert m.state.k == 4
    assert m.r == pytest.approx(math.sqrt(3))
    m3 = AmpMatcher(3)
    assert m3.state.k == 2
    assert m3.r == 2.0


def test_19_make_matcher():
    m = make_matcher("lgreedy", 6, model=ARRIVAL, L=2)
    assert isinstance(m, LGreedyMatcher)
    assert m.params()["L"] == 2
    with pytest.raises(ValueError):
        make_matcher("optimal", 4)


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
            alg = len(m.matching())
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
            alg = len(m.matching())
            opt = brute_force_max_matching(live)
            assert alg <= opt
            if hasattr(m, "oracle"):
                assert m.oracle.size == opt
            elif hasattr(m, "state"):
                assert m.state.oracle.size == opt


@pytest.mark.parametrize("algo", ["lgreedy", "amp"])
def test_22_bookkeeping_matchers_reject_budget_one(algo):
    # the reserved last flip leaves them an even budget of 0
    with pytest.raises(bounds.BadBudgetError) as err:
        make_matcher(algo, 1)
    assert err.value.code == "bad-k"
