"""Graph state, flip parity, components, symmetric difference."""

from __future__ import annotations

import random

import pytest

from flipmatch.bounds import BadBudgetError
from flipmatch.core import (
    ARRIVAL,
    AUGMENTING_PATH,
    CYCLE,
    EVEN_PATH,
    FULL,
    LIMITED,
    BlockedPathError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    LimitedDepartureViolation,
    NotAMatchingError,
    NotAugmentingError,
    SelfLoopError,
    UnknownEdgeError,
    canonical_type_string,
    symmetric_difference,
)


def build_path(g: Graph, vertices: list[int]) -> list[int]:
    return [g.add_edge(a, b) for a, b in zip(vertices, vertices[1:])]


def test_01_add_edge_basics():
    g = Graph(4)
    e = g.add_edge(1, 2)
    assert g.edge(e).endpoints == (1, 2)
    assert g.edge(e).etype == 0
    assert not g.edge(e).matched
    assert g.vertices == {1, 2}


def test_02_self_loop_rejected():
    g = Graph(2)
    with pytest.raises(SelfLoopError) as err:
        g.add_edge(3, 3)
    assert err.value.code == "self-loop"


def test_03_duplicate_edge_rejected():
    g = Graph(2)
    g.add_edge(1, 2)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(2, 1)


def test_04_readd_after_departure_is_fresh():
    g = Graph(3)
    e1 = g.add_edge(1, 2)
    g.apply_augmenting_path([e1])
    g.remove_edge(e1, FULL)
    e2 = g.add_edge(1, 2)
    assert e2 != e1
    assert g.edge(e2).etype == 0


def test_05_limited_model_keeps_matched_edges():
    g = Graph(3)
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([e])
    with pytest.raises(LimitedDepartureViolation) as err:
        g.remove_edge(e, LIMITED)
    assert err.value.code == "limited-departure-violation"
    # unmatched edges may leave
    f = g.add_edge(2, 3)
    g.remove_edge(f, LIMITED)
    assert not g.has_edge(2, 3)


def test_06_arrival_model_never_departs():
    g = Graph(3)
    e = g.add_edge(1, 2)
    with pytest.raises(GraphError):
        g.remove_edge(e, ARRIVAL)


def test_07_unknown_edge():
    g = Graph(3)
    with pytest.raises(UnknownEdgeError):
        g.remove_edge(7, FULL)
    with pytest.raises(UnknownEdgeError):
        g.edge_id(1, 2)


def test_08_apply_single_edge_path():
    g = Graph(2)
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([e])
    assert g.edge(e).etype == 1
    assert g.edge(e).matched
    assert g.matching() == {e}


def test_09_apply_walks_types_up():
    # 0,1,0 -> 1,2,1 -> pushing the middle twice
    g = Graph(4)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path(eids)
    assert [g.edge(e).etype for e in eids] == [1, 2, 1]
    assert g.matching() == {eids[0], eids[2]}


def test_10_apply_01210_becomes_12321():
    g = Graph(5)
    eids = build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([eids[2]])
    g.apply_augmenting_path(eids[1:4])
    comp = g.component_from_edges(eids)
    assert comp.type_string == (0, 1, 2, 1, 0)
    g.apply_augmenting_path(eids)
    assert [g.edge(e).etype for e in eids] == [1, 2, 3, 2, 1]
    g.validate()


def test_11_blocked_path_rejected():
    g = Graph(1)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([eids[1]])  # middle now at type 1 == budget
    with pytest.raises(BlockedPathError) as err:
        g.apply_augmenting_path(eids)
    assert err.value.code == "blocked-path"


def test_12_not_augmenting_rejected():
    g = Graph(4)
    eids = build_path(g, [1, 2, 3, 4])
    # even-length walk
    with pytest.raises(NotAugmentingError):
        g.apply_augmenting_path(eids[:2])
    # alternation broken: all three unmatched
    with pytest.raises(NotAugmentingError):
        g.apply_augmenting_path(eids)
    # endpoint not free
    g.apply_augmenting_path([eids[0]])
    with pytest.raises(NotAugmentingError):
        g.apply_augmenting_path([eids[1]])


def test_14_canonical_type_string_paths():
    assert canonical_type_string([0, 3, 0, 1, 0]) == (0, 1, 0, 3, 0)
    assert canonical_type_string([0, 1, 2, 1, 0]) == (0, 1, 2, 1, 0)
    assert canonical_type_string([2, 1]) == (1, 2)


def test_15_canonical_type_string_cycles():
    # same cycle read from different start points and directions
    a = canonical_type_string([1, 2, 1, 2], cycle=True)
    b = canonical_type_string([2, 1, 2, 1], cycle=True)
    assert a == b == (1, 2, 1, 2)


def test_19_augmenting_component_kind():
    g = Graph(4)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([eids[1]])
    comp = g.component_from_edges(eids)
    assert comp.kind == AUGMENTING_PATH
    assert comp.surplus == 1
    assert comp.type_string == (0, 1, 0)
    h = Graph(4)
    square = build_path(h, [1, 2, 3, 4, 1])
    h.apply_augmenting_path([square[0]])
    h.apply_augmenting_path([square[2]])
    assert h.component_from_edges(square).kind == CYCLE
    assert h.component_from_edges(square).surplus == 0
    assert h.component_from_edges(square[:2]).kind == EVEN_PATH


def test_20_symmetric_difference_kinds():
    g = Graph(6)
    eids = build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path([eids[3]])
    alg = g.matching()
    opt = {eids[0], eids[2], eids[4]}
    comps = symmetric_difference(g, alg, opt)
    assert len(comps) == 1
    assert comps[0].kind == AUGMENTING_PATH
    assert comps[0].surplus == 1
    assert len(comps[0].edges) == 5


def test_21_symmetric_difference_not_a_matching():
    g = Graph(4)
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(2, 3)
    with pytest.raises(NotAMatchingError) as err:
        symmetric_difference(g, {e1, e2}, set())
    assert err.value.code == "not-a-matching"


def test_22_symmetric_difference_excluding_blocked_splits():
    # types 1,2,1 at budget 2: dropping the blocked middle splits the path
    g = Graph(2)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path(eids)
    assert [g.edge(e).etype for e in eids] == [1, 2, 1]
    alg = g.matching()
    opt = {eids[1]}
    whole = symmetric_difference(g, alg, opt)
    assert len(whole) == 1 and len(whole[0].edges) == 3
    split = symmetric_difference(g, alg, opt, blocked_at=2)
    assert len(split) == 2
    assert all(len(c.edges) == 1 for c in split)
    assert all(g.edge(e).etype < 2 for c in split for e in c.edges)
    assert all(c.kind == EVEN_PATH for c in split)


def _naive_components(g: Graph, alg: set[int], opt: set[int]) -> list[tuple]:
    """Union-find over the symmetric difference, then per-group summaries."""
    sym = alg ^ opt
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in sym:
        e = g.edge(eid)
        for v in e.endpoints:
            parent.setdefault(v, v)
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for eid in sym:
        groups.setdefault(find(g.edge(eid).u), []).append(eid)
    out = []
    for eids in groups.values():
        surplus = sum(1 if e in opt else -1 for e in eids)
        out.append((frozenset(eids), surplus))
    return sorted(out, key=lambda t: min(t[0]))


@pytest.mark.parametrize("seed", range(20))
def test_23_symmetric_difference_matches_naive_scan(seed):
    rng = random.Random(seed)
    g = Graph(9)
    n = 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    eids = [g.add_edge(u, v) for u, v in pairs[: rng.randint(6, 14)]]

    def random_matching() -> set[int]:
        chosen: set[int] = set()
        covered: set[int] = set()
        for eid in rng.sample(eids, len(eids)):
            e = g.edge(eid)
            if not ({e.u, e.v} & covered) and rng.random() < 0.7:
                chosen.add(eid)
                covered.update(e.endpoints)
        return chosen

    alg, opt = random_matching(), random_matching()
    comps = symmetric_difference(g, alg, opt)
    got = sorted(
        ((frozenset(c.edges), c.surplus) for c in comps), key=lambda t: min(t[0])
    )
    assert got == _naive_components(g, alg, opt)
    # every component is a path or cycle with alternating membership
    for c in comps:
        for a, b in zip(c.edges, c.edges[1:]):
            assert (a in alg) != (b in alg)


def test_24_budget_validation():
    for bad in (0, -2):
        with pytest.raises(BadBudgetError) as err:
            Graph(bad)
        assert err.value.code == "bad-k"


def test_25_total_flips_counter():
    g = Graph(4)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([eids[1]])
    g.apply_augmenting_path(eids)
    assert g.total_flips == 4
