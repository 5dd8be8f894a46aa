"""Graph state, flip parity, augmenting walks, symmetric difference."""

from __future__ import annotations

import random

import pytest

from flipmatch.algos import GreedyMatcher
from flipmatch.bounds import BadBudgetError, BadParamsError
from flipmatch.core import (
    ARRIVAL,
    FULL,
    LIMITED,
    BadVertexError,
    BlockedPathError,
    DuplicateEdgeError,
    EdgeState,
    Event,
    Graph,
    GraphError,
    IllegalEventError,
    NotAugmentingError,
    SelfLoopError,
    UnknownEdgeError,
    arrive,
    depart,
    is_augmenting,
    symmetric_difference,
)
from flipmatch.harness import replay


def build_path(g: Graph, vertices: list[int]) -> list[EdgeState]:
    return [g.add_edge(a, b) for a, b in zip(vertices, vertices[1:])]


def board(g: Graph) -> tuple:
    """Edge types and matched flags, the matching, the partner map and the flip count."""
    edges = {pair: (e.etype, e.matched) for pair, e in g.edges.items()}
    return edges, g.matching(), dict(g.mate), g.total_flips


def partners(pairs: set[tuple[int, int]]) -> dict[int, int]:
    """The partner map (vertex -> partner) of the matching ``pairs``."""
    mate: dict[int, int] = {}
    for u, v in pairs:
        mate[u], mate[v] = v, u
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
    e = g.add_edge(2, 1)
    assert g.edge(1, 2) is e and g.edge(2, 1) is e
    assert e.endpoints == (1, 2)
    assert e.etype == 0
    assert not e.matched
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
    assert g.edges == {(1, 2): e}
    assert g.rows == {1: {2: e}, 2: {1: e}}
    assert g.matching() == {(1, 2)}
    assert e.etype == 1
    g.validate()


def test_04_readd_after_departure_is_fresh():
    g = Graph(3)
    e1 = g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    assert g.remove_edge(2, 1) is e1  # the default full model lets a matched edge leave
    assert g.mate == {}
    e2 = g.add_edge(1, 2)
    assert e2 is not e1
    assert g.edge(1, 2) is e2
    assert e2.etype == 0 and e1.etype == 1


def test_05_limited_model_keeps_matched_edges():
    g = Graph(3, LIMITED)
    g.add_edge(1, 2)
    g.apply_augmenting_path([2, 1])
    before = board(g)
    with pytest.raises(IllegalEventError) as err:
        g.remove_edge(1, 2)
    assert err.value.code == "illegal-event-for-model"
    assert board(g) == before
    # unmatched edges may leave
    g.add_edge(2, 3)
    g.remove_edge(3, 2)
    assert not g.has_edge(2, 3)
    g.validate()


def test_06_arrival_model_never_departs():
    g = Graph(3, ARRIVAL)
    g.add_edge(1, 2)
    with pytest.raises(IllegalEventError) as err:
        g.remove_edge(1, 2)
    assert err.value.code == "illegal-event-for-model"
    assert g.has_edge(1, 2)


def test_07_unknown_edge():
    for model in (ARRIVAL, LIMITED, FULL):
        g = Graph(3, model)
        with pytest.raises(UnknownEdgeError):
            g.remove_edge(1, 7)
        with pytest.raises(UnknownEdgeError):
            g.edge(1, 2)


def test_08_apply_single_edge_path():
    g = Graph(2)
    e = g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    assert e.etype == 1
    assert e.matched
    assert g.matching() == {(1, 2)}


def test_09_apply_walks_types_up():
    # 0,1,0 -> 1,2,1 -> pushing the middle twice
    g = Graph(4)
    path = build_path(g, [1, 2, 3, 4])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([1, 2, 3, 4])
    assert [e.etype for e in path] == [1, 2, 1]
    assert g.matching() == {(1, 2), (3, 4)}


def test_10_apply_01210_becomes_12321():
    g = Graph(5)
    path = build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([3, 4])
    g.apply_augmenting_path([5, 4, 3, 2])  # either direction of a walk applies
    assert [e.etype for e in path] == [0, 1, 2, 1, 0]
    g.apply_augmenting_path([1, 2, 3, 4, 5, 6])
    assert [e.etype for e in path] == [1, 2, 3, 2, 1]
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
    g.remove_edge(4, 5)
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


def count_edge_reads(monkeypatch) -> list[tuple[int, int]]:
    """Record every ``Graph.edge`` lookup from now on."""
    reads: list[tuple[int, int]] = []
    edge = Graph.edge

    def spy(self, u, v):
        reads.append((u, v))
        return edge(self, u, v)

    monkeypatch.setattr(Graph, "edge", spy)
    return reads


def test_20_symmetric_difference_kinds():
    g = Graph(6)
    build_path(g, [1, 2, 3, 4, 5, 6])
    g.apply_augmenting_path([2, 3])
    g.apply_augmenting_path([4, 5])
    opt = partners({(1, 2), (3, 4), (5, 6)})
    # a seed anywhere on the component walks all of it, in some direction
    for seed in range(1, 7):
        (walk,) = symmetric_difference(g, opt, [seed])
        assert min(walk, walk[::-1]) == [1, 2, 3, 4, 5, 6]
    assert symmetric_difference(g, opt, [1], cap=5) == [[1, 2, 3, 4, 5, 6]]
    assert symmetric_difference(g, opt, [1], cap=4) == []
    # a seed whose two partners agree, or that neither map covers, is no seed
    assert symmetric_difference(g, opt, [7]) == []
    assert symmetric_difference(g, dict(g.mate), list(g.vertices)) == []
    # the augmenting component for OPT is not one for ALG
    assert symmetric_difference(Graph(6), g.mate, [1]) == []
    g.apply_augmenting_path(symmetric_difference(g, opt, [3])[0])
    assert g.mate == opt


def test_22_symmetric_difference_skips_a_spent_component():
    # types 1,2,1 on 1-2-3-4, then fresh 0-1 and 4-5: the path 0-1-2-3-4-5
    # is augmenting, and its edge 2-3 is spent on a board of budget 2 only
    for budget, walks in ((2, []), (3, [[0, 1, 2, 3, 4, 5]])):
        g = Graph(budget)
        path = build_path(g, [1, 2, 3, 4])
        g.apply_augmenting_path([2, 3])
        g.apply_augmenting_path([1, 2, 3, 4])
        assert [e.etype for e in path] == [1, 2, 1]
        build_path(g, [0, 1])
        build_path(g, [4, 5])
        opt = partners({(0, 1), (2, 3), (4, 5)})
        assert symmetric_difference(g, opt, range(6)) == walks


def test_15_symmetric_difference_cycle_walk_closes(monkeypatch):
    g = Graph(4)
    build_path(g, [5, 6, 7, 8, 5])
    g.apply_augmenting_path([5, 6])
    g.apply_augmenting_path([7, 8])
    g.add_edge(1, 2)
    opt = partners({(6, 7), (5, 8), (1, 2)})
    reads = count_edge_reads(monkeypatch)
    # the cycle is dropped, and each vertex judged once: seeding all of it
    # reads each of its edges at most once
    assert symmetric_difference(g, opt, [5, 6, 7, 8, 1, 2]) == [[1, 2]]
    assert len(reads) == len(set(reads)) <= 5


def _naive_components(alg: set[tuple], opt: set[tuple]) -> list[tuple]:
    """Union-find over the symmetric difference, then per-group summaries."""
    sym = alg ^ opt
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sym:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[tuple]] = {}
    for pair in sym:
        groups.setdefault(find(pair[0]), []).append(pair)
    out = []
    for pairs in groups.values():
        surplus = sum(1 if e in opt else -1 for e in pairs)
        out.append((frozenset(pairs), surplus))
    return sorted(out, key=lambda t: min(t[0]))


@pytest.mark.parametrize("seed", range(20))
def test_23_symmetric_difference_matches_naive_scan(seed):
    rng = random.Random(seed)
    budget = rng.choice((2, 3, 9))
    g = Graph(budget)
    n = 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    live = pairs[: rng.randint(6, 14)]
    for u, v in live:
        g.add_edge(u, v)

    def random_matching() -> set[tuple[int, int]]:
        chosen: set[tuple[int, int]] = set()
        covered: set[int] = set()
        for u, v in rng.sample(live, len(live)):
            if not ({u, v} & covered) and rng.random() < 0.7:
                chosen.add((u, v))
                covered.update((u, v))
        return chosen

    alg, opt = random_matching(), random_matching()
    g.mate.update(partners(alg))
    # types up to the budget, odd exactly on ALG's edges
    for pair in alg:
        g.edges[pair].etype = rng.choice([t for t in (1, 3) if t <= budget])
    for pair in set(live) - alg:
        g.edges[pair].etype = rng.choice((0, 2))
    g.validate()
    cap = rng.choice((None, 1, 3))
    walks = symmetric_difference(g, partners(opt), rng.sample(range(n), n), cap=cap)
    edge_walks = [[g.edge(a, b).endpoints for a, b in zip(w, w[1:])] for w in walks]
    got = sorted(
        ((frozenset(es), sum(1 if e in opt else -1 for e in es)) for es in edge_walks),
        key=lambda t: min(t[0]),
    )
    # the naive scan's augmenting components (one more OPT edge than ALG
    # edges, so a path with two ALG-free ends) within the cap and unspent
    assert got == [
        (es, surplus)
        for es, surplus in _naive_components(alg, opt)
        if surplus == 1
        and (cap is None or len(es) <= cap)
        and all(g.edges[e].etype < budget for e in es)
    ]
    # every walk alternates, starting and ending on an OPT edge
    for es in edge_walks:
        assert es[0] in opt and es[-1] in opt
        for a, b in zip(es, es[1:]):
            assert (a in alg) != (b in alg)


def test_26_symmetric_difference_rejects_a_pair_that_is_no_edge():
    # a partner map cannot cover a vertex twice, but it can pair two vertices
    # the graph never joined
    g = Graph(4)
    g.add_edge(1, 2)
    g.apply_augmenting_path([1, 2])
    with pytest.raises(UnknownEdgeError) as err:
        symmetric_difference(g, {1: 3, 3: 1}, [1])
    assert err.value.code == "unknown-edge"
    assert symmetric_difference(g, {1: 2, 2: 1}, [1, 2]) == []


def test_27_refusals_name_the_pairs_they_refuse():
    # an edge is its vertex pair: a refusal names the pair, never an index
    fresh = Graph(4)
    build_path(fresh, [5, 7, 9, 11])  # all unmatched: (7, 9) breaks alternation
    g = Graph(1, LIMITED)
    build_path(g, [5, 7, 9, 11])
    g.apply_augmenting_path([7, 9])  # (7, 9) is matched and spent at budget 1
    messages = [
        str(refuse(fresh, [5, 7, 9, 11], NotAugmentingError)),
        str(refuse(g, [5, 7, 9, 11], BlockedPathError)),
    ]
    with pytest.raises(IllegalEventError) as err:
        g.remove_edge(9, 7)
    messages.append(str(err.value))
    assert messages[0] == "edge (7, 9) breaks the unmatched/matched alternation"
    assert messages[1] == "edges [(7, 9)] have exhausted their flip budget"
    assert messages[2] == "edge (7, 9) is matched and cannot depart under the limited model"


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


def test_28_replay_refuses_a_string_vertex_id_typed():
    # used to die with a bare TypeError from sorting the event's ends
    matcher = GreedyMatcher(4)
    with pytest.raises(BadVertexError) as err:
        replay([arrive(1, "x")], matcher)
    assert err.value.code == "bad-vertex"
    assert isinstance(err.value, GraphError)
    assert matcher.graph.rows == {} and matcher.oracle.size == 0


def test_29_add_edge_refuses_a_float_vertex_id():
    # 2.0 used to alias the int key 2 in rows and mate
    g = Graph(4)
    g.add_edge(1, 2)
    before = board(g)
    for u, v in ((1, 2.0), (3, 2.0), (2.5, 3)):
        with pytest.raises(BadVertexError, match="vertex id must be an integer, got"):
            g.add_edge(u, v)
    assert board(g) == before and set(g.rows) == {1, 2}


def test_30_add_edge_refuses_a_bool_vertex_id():
    # True used to alias the int key 1
    g = Graph(4)
    for u, v in ((True, 2), (3, False)):
        with pytest.raises(BadVertexError, match="got (True|False)"):
            g.add_edge(u, v)
    assert g.rows == {} and g.edges == {}


def test_31_matchers_hand_the_event_to_the_graph_first():
    # a departure reaches the graph's check before its ends are compared or
    # sorted: a string id no longer raises TypeError, and 2.0 no longer
    # removes the live edge (1, 2)
    matcher = GreedyMatcher(4, FULL)
    with pytest.raises(BadVertexError):
        replay([depart(1, "x")], matcher)
    with pytest.raises(BadVertexError):
        replay([arrive(2, 1), depart(1, 2.0)], matcher)
    assert matcher.graph.has_edge(1, 2) and matcher.graph.matching() == {(1, 2)}
    matcher.oracle.verify()


def test_32_an_event_refuses_an_unknown_action():
    # "stay" used to be replayed as a departure: it removed the live edge
    # (1, 2) and was recorded as "- 1 2"
    with pytest.raises(BadParamsError, match="unknown event action 'stay'") as err:
        Event("stay", 1, 2)
    assert err.value.code == "bad-params"
    matcher = GreedyMatcher(4, FULL)
    replay([arrive(1, 2)], matcher)
    with pytest.raises(BadParamsError):
        replay([Event("stay", 1, 2)], matcher)
    assert matcher.graph.matching() == {(1, 2)}
