"""Graph state, flip parity, augmenting walks, symmetric difference."""

from __future__ import annotations

import random

import pytest

from flipmatch.bounds import BadBudgetError
from flipmatch.core import (
    ARRIVAL,
    FULL,
    LIMITED,
    BlockedPathError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    IllegalEventError,
    NotAugmentingError,
    SelfLoopError,
    UnknownEdgeError,
    is_augmenting,
    symmetric_difference,
)


def build_path(g: Graph, vertices: list[int]) -> list[int]:
    return [g.add_edge(a, b) for a, b in zip(vertices, vertices[1:])]


def board(g: Graph) -> tuple:
    """Edge types and matched flags, the matching, the partner map and the flip count."""
    edges = {eid: (e.etype, e.matched) for eid, e in g.edges.items()}
    return edges, g.matching(), dict(g.mate), g.total_flips


def partners(g: Graph, edge_ids: set[int]) -> dict[int, int]:
    """The partner map (vertex -> partner) of the matching ``edge_ids``."""
    mate: dict[int, int] = {}
    for eid in edge_ids:
        e = g.edge(eid)
        mate[e.u], mate[e.v] = e.v, e.u
    return mate


def refuse(g: Graph, walk: list[int], error: type) -> GraphError:
    """Assert that applying ``walk`` raises exactly ``error`` and changes nothing."""
    before = board(g)
    with pytest.raises(error) as err:
        g.apply_augmenting_path(walk)
    assert type(err.value) is error
    assert board(g) == before
    g.validate()
    return err.value


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
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    for u, v in ((2, 1), (1, 2)):
        with pytest.raises(DuplicateEdgeError) as err:
            g.add_edge(u, v)
        assert err.value.code == "duplicate-edge"
    # refused before any mutation: edge e alone holds the pair, still matched
    assert list(g.edges) == [e]
    assert g.rows == {1: {2: e}, 2: {1: e}}
    assert g.matching() == {e}
    g.validate()
    assert g.add_edge(2, 3) == e + 1  # no edge id was spent on the refusals


def test_04_readd_after_departure_is_fresh():
    g = Graph(3)
    e1 = g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    g.remove_edge(e1)  # the default full model lets a matched edge leave
    assert g.mate == {}
    e2 = g.add_edge(1, 2)
    assert e2 != e1
    assert g.edge(e2).etype == 0


def test_05_limited_model_keeps_matched_edges():
    g = Graph(3, LIMITED)
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([2, 1])
    before = board(g)
    with pytest.raises(IllegalEventError) as err:
        g.remove_edge(e)
    assert err.value.code == "illegal-event-for-model"
    assert board(g) == before
    # unmatched edges may leave
    f = g.add_edge(2, 3)
    g.remove_edge(f)
    assert not g.has_edge(2, 3)
    g.validate()


def test_06_arrival_model_never_departs():
    g = Graph(3, ARRIVAL)
    e = g.add_edge(1, 2)
    with pytest.raises(IllegalEventError) as err:
        g.remove_edge(e)
    assert err.value.code == "illegal-event-for-model"
    assert g.has_edge(1, 2)


def test_07_unknown_edge():
    for model in (ARRIVAL, LIMITED, FULL):
        g = Graph(3, model)
        with pytest.raises(UnknownEdgeError):
            g.remove_edge(7)
        with pytest.raises(UnknownEdgeError):
            g.edge_id(1, 2)


def test_08_apply_single_edge_path():
    g = Graph(2)
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    assert g.edge(e).etype == 1
    assert g.edge(e).matched
    assert g.matching() == {e}


def test_09_apply_walks_types_up():
    # 0,1,0 -> 1,2,1 -> pushing the middle twice
    g = Graph(4)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([1, 2, 3, 4])
    assert [g.edge(e).etype for e in eids] == [1, 2, 1]
    assert g.matching() == {eids[0], eids[2]}


def test_10_apply_01210_becomes_12321():
    g = Graph(5)
    eids = build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([3, 4])
    g.apply_augmenting_path([5, 4, 3, 2])  # either direction of a walk applies
    assert [g.edge(e).etype for e in eids] == [0, 1, 2, 1, 0]
    g.apply_augmenting_path([1, 2, 3, 4, 5, 6])
    assert [g.edge(e).etype for e in eids] == [1, 2, 3, 2, 1]
    g.validate()


def test_11_blocked_path_rejected():
    g = Graph(1)
    build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])  # middle now at type 1 == budget
    assert refuse(g, [1, 2, 3, 4], BlockedPathError).code == "blocked-path"


def test_12_not_augmenting_rejected():
    g = Graph(4)
    build_path(g, [1, 2, 3, 4])
    # even-length walk
    refuse(g, [1, 2, 3], NotAugmentingError)
    # alternation broken: all three unmatched
    assert refuse(g, [1, 2, 3, 4], NotAugmentingError).code == "not-augmenting"
    # no edges at all
    refuse(g, [1], NotAugmentingError)
    refuse(g, [], NotAugmentingError)
    # endpoint not free
    g.apply_augmenting_path([1, 2])
    refuse(g, [2, 3], NotAugmentingError)


def test_13_revisiting_walk_rejected():
    g = Graph(4)
    build_path(g, [1, 2, 3, 4, 1])
    g.apply_augmenting_path([2, 3])
    # a cycle's walk closes on its start
    assert refuse(g, [1, 2, 3, 4, 1], GraphError).code == "graph-error"
    # an odd walk that crosses one vertex twice
    refuse(g, [4, 1, 2, 3, 2, 1], GraphError)


def test_14_walk_over_missing_edge_rejected():
    g = Graph(4)
    build_path(g, [1, 2, 3])
    g.add_edge(4, 5)
    g.apply_augmenting_path([2, 3])
    # the first two edges are live and alternate; 3-4 is not an edge
    assert refuse(g, [1, 2, 3, 4], UnknownEdgeError).code == "unknown-edge"
    refuse(g, [6, 7], UnknownEdgeError)
    # an edge that departed is missing too
    g.remove_edge(g.edge_id(4, 5))
    refuse(g, [4, 5], UnknownEdgeError)


def test_19_augmenting_component_kind():
    g = Graph(4)
    build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])
    assert is_augmenting(g, [1, 2, 3, 4])
    assert is_augmenting(g, [4, 3, 2, 1])
    assert not is_augmenting(g, [1, 2, 3])  # even edge count
    assert not is_augmenting(g, [2, 3])  # matched ends
    assert not is_augmenting(g, [1])
    h = Graph(4)
    build_path(h, [1, 2, 3, 4, 1])
    h.apply_augmenting_path([1, 2])
    h.apply_augmenting_path([3, 4])
    assert not is_augmenting(h, [1, 2, 3, 4, 1])  # a cycle
    assert not is_augmenting(h, [1, 2, 3])
    # an odd cycle has an odd edge count but only one end
    t = Graph(4)
    build_path(t, [1, 2, 3, 1])
    assert not is_augmenting(t, [1, 2, 3, 1])


def test_20_symmetric_difference_kinds():
    g = Graph(6)
    eids = build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([4, 5])
    opt = {eids[0], eids[2], eids[4]}
    walks = symmetric_difference(g, g.mate, partners(g, opt))
    assert walks == [[1, 2, 3, 4, 5, 6]]
    assert is_augmenting(g, walks[0])
    g.apply_augmenting_path(walks[0])
    assert g.matching() == opt


def test_22_symmetric_difference_excluding_blocked_splits():
    # types 1,2,1 at budget 2: dropping the blocked middle splits the path
    g = Graph(2)
    eids = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([1, 2, 3, 4])
    assert [g.edge(e).etype for e in eids] == [1, 2, 1]
    alg, opt = g.mate, partners(g, {eids[1]})
    assert symmetric_difference(g, alg, opt) == [[1, 2, 3, 4]]
    split = symmetric_difference(g, alg, opt, blocked_at=2)
    assert split == [[1, 2], [3, 4]]
    assert not any(is_augmenting(g, w) for w in split)


def test_15_symmetric_difference_cycle_walk_closes():
    g = Graph(4)
    square = build_path(g, [5, 6, 7, 8, 5])
    g.apply_augmenting_path([5, 6])
    g.apply_augmenting_path([7, 8])
    path = build_path(g, [1, 2])
    opt = partners(g, {square[1], square[3], path[0]})
    walks = symmetric_difference(g, g.mate, opt)
    # paths first, then cycles, each walked from its smallest vertex
    assert walks == [[1, 2], [5, 6, 7, 8, 5]]
    assert [is_augmenting(g, w) for w in walks] == [True, False]


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
    walks = symmetric_difference(g, partners(g, alg), partners(g, opt))
    edge_walks = [[g.edge_id(a, b) for a, b in zip(w, w[1:])] for w in walks]
    got = sorted(
        ((frozenset(eids), sum(1 if e in opt else -1 for e in eids)) for eids in edge_walks),
        key=lambda t: min(t[0]),
    )
    assert got == _naive_components(g, alg, opt)
    # every component is a path or cycle with alternating membership
    for eids in edge_walks:
        for a, b in zip(eids, eids[1:]):
            assert (a in alg) != (b in alg)


def test_26_symmetric_difference_rejects_a_pair_that_is_no_edge():
    # a partner map cannot cover a vertex twice, but it can pair two vertices
    # the graph never joined
    g = Graph(4)
    g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    with pytest.raises(UnknownEdgeError) as err:
        symmetric_difference(g, g.mate, {1: 3, 3: 1})
    assert err.value.code == "unknown-edge"
    assert symmetric_difference(g, g.mate, {1: 2, 2: 1}) == []


def test_24_budget_validation():
    # a bool is an int to Python, but True is no budget of 1
    for bad in (0, -2, True, False):
        with pytest.raises(BadBudgetError) as err:
            Graph(bad)
        assert err.value.code == "bad-k"


def test_25_total_flips_counter():
    g = Graph(4)
    build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([1, 2, 3, 4])
    assert g.total_flips == 4
