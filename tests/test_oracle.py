"""Incremental maximum matching against brute force and networkx."""

from __future__ import annotations

import random

import pytest

from flipmatch import oracle
from flipmatch.algos import MATCHERS, make_matcher
from flipmatch.blossom import find_augmenting_path
from flipmatch.core import FULL, Graph, SelfLoopError, arrive, depart
from flipmatch.oracle import (
    BRUTE_FORCE_EDGE_LIMIT,
    OracleState,
    TooLargeError,
    brute_force_max_matching,
)

try:
    import networkx as nx
except ModuleNotFoundError:  # pragma: no cover
    nx = None


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def test_01_brute_force_tiny():
    assert brute_force_max_matching([]) == 0
    assert brute_force_max_matching([(1, 2)]) == 1
    assert brute_force_max_matching([(1, 2), (2, 3)]) == 1
    assert brute_force_max_matching([(1, 2), (2, 3), (3, 4)]) == 2
    # triangle plus pendant
    assert brute_force_max_matching([(1, 2), (2, 3), (1, 3), (3, 4)]) == 2


def test_02_brute_force_petersen_is_perfect():
    assert brute_force_max_matching(petersen_edges()) == 5


def random_board(rng: random.Random) -> list[tuple[int, int]]:
    """1-24 distinct pairs on 2-14 vertices, as odd cycles, isolated edges and
    random pieces, often in several components."""
    n = rng.randint(2, 14)
    vs = rng.sample(range(50), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n // 3))))
    pairs: set[tuple[int, int]] = set()
    for group in (vs[a:b] for a, b in zip([0, *cuts], [*cuts, n])):
        if len(group) == 2:  # an isolated edge
            pairs.add((min(group), max(group)))
        elif len(group) > 2 and len(group) % 2 and rng.random() < 0.5:  # an odd cycle
            pairs.update((min(p), max(p)) for p in zip(group, group[1:] + group[:1]))
        else:
            inside = [(u, v) for u in group for v in group if u < v]
            pairs.update(rng.sample(inside, rng.randint(min(1, len(inside)), len(inside))))
    out = sorted(pairs)
    rng.shuffle(out)
    return out[:BRUTE_FORCE_EDGE_LIMIT]


@pytest.mark.skipif(nx is None, reason="networkx not installed")
def test_03_brute_force_agrees_with_networkx():
    rng = random.Random(7)
    odd_cycles = isolated = split = 0
    for board_no in range(2000):
        edges = random_board(rng)
        g = nx.Graph(edges)
        expect = len(nx.max_weight_matching(g, maxcardinality=True))
        if board_no % 3 == 0:
            # reversed duplicates must count once
            edges = edges + [(v, u) for u, v in rng.sample(edges, (len(edges) + 1) // 2)]
            rng.shuffle(edges)
        assert brute_force_max_matching(edges) == expect, edges
        parts = [g.subgraph(c) for c in nx.connected_components(g)]
        odd_cycles += not nx.is_bipartite(g)
        isolated += any(p.number_of_edges() == 1 for p in parts)
        split += len(parts) > 1
    # the generator reaches every shape it promises
    assert min(odd_cycles, isolated, split) > 200, (odd_cycles, isolated, split)


def test_04_brute_force_size_guard():
    edges = [(i, i + 100) for i in range(BRUTE_FORCE_EDGE_LIMIT + 1)]
    with pytest.raises(TooLargeError) as err:
        brute_force_max_matching(edges)
    assert err.value.code == "too-large"
    # the guard counts distinct pairs, and 24 of them are still solved
    path = [(i, i + 1) for i in range(BRUTE_FORCE_EDGE_LIMIT)]
    assert brute_force_max_matching(path) == 12
    # 25 entries, but the last is the first reversed
    assert brute_force_max_matching(path + [(1, 0)]) == 12
    # 24 edges in two components: a 13-edge path and an 11-cycle
    cycle = [(100 + i, 100 + (i + 1) % 11) for i in range(11)]
    assert brute_force_max_matching(path[:13] + cycle) == 7 + 5


def free(adj, mate) -> list[int]:
    """The free vertices of the view ``adj``: every root a search may start from."""
    return [v for v in adj if v not in mate]


def test_05_blossom_handles_odd_cycles():
    # triangle with one tail and a maximum matching: no augmenting path, and
    # the odd cycle must not fool the search into reporting one
    adj: dict[int, dict[int, int]] = {}

    def link(u, v, eid):
        adj.setdefault(u, {})[v] = eid
        adj.setdefault(v, {})[u] = eid

    link(0, 1, 0)
    link(1, 2, 1)
    link(2, 3, 2)
    link(3, 1, 3)
    link(3, 4, 4)
    mate = {1: 2, 2: 1, 3: 4, 4: 3}
    assert find_augmenting_path(adj, mate, free(adj, mate)) is None

    # same graph, weaker matching: now an augmenting path does exist
    mate = {2: 3, 3: 2}
    walk = find_augmenting_path(adj, mate, free(adj, mate))
    assert walk is not None
    assert len(walk) % 2 == 0
    assert walk[0] not in mate and walk[-1] not in mate
    # consecutive hops alternate unmatched and matched
    for i, (a, b) in enumerate(zip(walk, walk[1:])):
        assert (mate.get(a) == b) == (i % 2 == 1)


def board() -> tuple[Graph, OracleState]:
    """A graph and the oracle over its rows, fed as a matcher feeds them."""
    g = Graph(1)
    return g, OracleState(g.rows)


def add(g: Graph, o: OracleState, u: int, v: int) -> bool:
    g.add_edge(u, v)
    return o.insert(u, v)


def remove(g: Graph, o: OracleState, eid: int) -> None:
    e = g.remove_edge(eid)
    o.delete(e.u, e.v)


def test_06_oracle_insert_grows():
    g, o = board()
    assert add(g, o, 1, 2) is True
    assert add(g, o, 2, 3) is False
    assert add(g, o, 3, 4) is True
    assert o.size == 2
    o.verify()


def test_07_oracle_delete_repairs():
    g, o = board()
    add(g, o, 1, 2)
    add(g, o, 2, 3)
    add(g, o, 3, 4)
    assert o.size == 2
    # deleting a matched edge: repair finds the alternative
    assert o.mate == {1: 2, 2: 1, 3: 4, 4: 3}
    remove(g, o, g.edge_id(1, 2))
    assert o.size >= 1
    o.verify()


def test_09_oracle_petersen():
    g, o = board()
    for u, v in petersen_edges():
        add(g, o, u, v)
    assert o.size == 5
    o.verify()


@pytest.mark.parametrize("seed", range(25))
def test_10_oracle_tracks_brute_force_under_churn(seed):
    rng = random.Random(seed)
    g, o = board()
    n = 9
    for _ in range(60):
        if g.edges and (rng.random() < 0.35 or len(g.edges) >= 22):
            remove(g, o, rng.choice(sorted(g.edges)))
        else:
            u, v = rng.sample(range(n), 2)
            if g.has_edge(u, v):
                continue
            add(g, o, u, v)
        assert o.size == brute_force_max_matching(e.endpoints for e in g.edges.values())
        o.verify()


def test_11_deterministic_across_runs():
    def run() -> list[int]:
        g, o = board()
        sizes = []
        for u, v in petersen_edges():
            add(g, o, u, v)
            sizes.append(o.size)
        return sizes

    assert run() == run()


def test_12_blossom_never_crosses_a_walled_matched_vertex():
    # 3-0-1-2 would augment, but the matched edge 0-1 is absent from the
    # searchable edges (spent), so 0 and 1 are walls and no path exists
    adj = {0: {3: 1}, 3: {0: 1}, 1: {2: 2}, 2: {1: 2}}
    mate = {0: 1, 1: 0}
    assert find_augmenting_path(adj, mate, free(adj, mate)) is None
    # with the matched edge searchable the same path is found
    adj[0][1] = adj[1][0] = 0
    assert find_augmenting_path(adj, mate, free(adj, mate)) == [2, 1, 0, 3]


def test_13_flipped_is_the_last_repair_path():
    g, o = board()
    for u, v in [(1, 2), (2, 3), (3, 4), (0, 1)]:
        add(g, o, u, v)
    assert o.moved == set()  # 0 is the only free vertex, so no path exists
    add(g, o, 4, 5)
    assert o.moved == {0, 1, 2, 3, 4, 5}  # 0-1-2-3-4-5 augmented
    remove(g, o, 0)  # unmatched now: nothing to repair
    assert o.moved == set()
    # under churn, moved is exactly the vertices whose partner changed
    (g, o), rng = board(), random.Random(3)
    for _ in range(400):
        before = dict(o.mate)
        if g.edges and rng.random() < 0.4:
            remove(g, o, rng.choice(sorted(g.edges)))
        else:
            u, v = rng.sample(range(12), 2)
            if g.has_edge(u, v):
                continue
            add(g, o, u, v)
        changed = {x for x in before.keys() | o.mate.keys() if before.get(x) != o.mate.get(x)}
        assert o.moved == changed


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: (rows[1].pop(2), rows[2].pop(1)),  # a live edge lost its rows
        lambda rows: rows[3].pop(4),  # one row lost a live edge
        lambda rows: (rows[1].update({4: 9}), rows[4].update({1: 9})),  # an unknown edge
        lambda rows: (rows[2].update({3: 0}), rows[3].update({2: 0})),  # an id on two pairs
    ],
    ids=["lost-edge", "one-sided", "unknown-edge", "moved-id"],
)
def test_15_verify_catches_adjacency_that_disagrees_with_the_edges(corrupt):
    # the oracle searches the graph's rows, so the graph checks them
    g, o = board()
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        add(g, o, u, v)
    g.validate()
    o.verify()
    corrupt(g.rows)
    with pytest.raises(AssertionError):
        g.validate()


def _is_wall(adj, mate, v):
    return v in mate and mate[v] not in adj.get(v, {})


@pytest.mark.parametrize("seed", range(4))
def test_16_search_finds_a_path_exactly_when_the_wall_free_graph_has_one(seed):
    # random boards of at most 10 vertices with a random matching; some
    # matched edges are left out of adj, which makes their ends walls
    rng = random.Random(seed)
    found = 0
    for _ in range(1500):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 18)))
        mate: dict[int, int] = {}
        walled: list[tuple[int, int]] = []
        for u, v in rng.sample(edges, len(edges)):
            if u not in mate and v not in mate and rng.random() < 0.6:
                mate[u], mate[v] = v, u
                if rng.random() < 0.3:
                    walled.append((u, v))
        adj: dict[int, dict[int, int]] = {v: {} for v in range(n) if rng.random() < 0.9}
        for eid, (u, v) in enumerate(edges):
            if (u, v) not in walled:
                adj.setdefault(u, {})[v] = eid
                adj.setdefault(v, {})[u] = eid
        walls = {v for v in adj if _is_wall(adj, mate, v)}
        searchable = [
            (u, v) for u in adj for v in adj[u] if u < v and not {u, v} & walls
        ]
        matched = sum(1 for u, v in searchable if mate.get(u) == v)
        walk = find_augmenting_path(adj, mate, free(adj, mate))
        assert (walk is not None) == (brute_force_max_matching(searchable) > matched)
        if walk is None:
            continue
        found += 1
        assert len(walk) % 2 == 0 and len(set(walk)) == len(walk)
        assert walk[0] not in mate and walk[-1] not in mate
        for i, (a, b) in enumerate(zip(walk, walk[1:])):
            assert b in adj[a]
            assert (mate.get(a) == b) == (i % 2 == 1)
        assert not set(walk) & walls
    assert found > 50


@pytest.mark.parametrize("algo", sorted(MATCHERS))
def test_17_self_loop_arrival_leaves_the_board_clean(algo):
    matcher = make_matcher(algo, 4)
    with pytest.raises(SelfLoopError) as err:
        matcher.on_arrival(arrive(3, 3))
    assert err.value.code == "self-loop"
    matcher.graph.validate()
    matcher.oracle.verify()
    assert matcher.oracle.mate == {}
    matcher.on_arrival(arrive(3, 4))
    assert matcher.oracle.size == 1


@pytest.mark.skipif(nx is None, reason="networkx not installed")
@pytest.mark.parametrize("algo", sorted(MATCHERS))
def test_18_oracle_matches_networkx_on_large_full_churn(algo):
    # beyond brute force's 24 edges: the board climbs from 100 live edges to
    # 300 and back, any edge may leave, and every 25th event is checked
    rng = random.Random(11)
    matcher = make_matcher(algo, 4, FULL)
    g = matcher.graph
    checks, climbing = 0, True
    for step in range(1250):
        if len(g.edges) >= 300:
            climbing = False
        elif len(g.edges) <= 100:
            climbing = True
        if step < 100 or rng.random() < (0.75 if climbing else 0.25):
            u, v = rng.sample(range(80), 2)
            if not g.has_edge(u, v):
                matcher.on_arrival(arrive(u, v))
        else:
            gone = g.edges[rng.choice(list(g.edges))]
            matcher.on_departure(depart(gone.u, gone.v))
        if step >= 100 and step % 25 == 0:
            board = nx.Graph(e.endpoints for e in g.edges.values())
            expect = len(nx.max_weight_matching(board, maxcardinality=True))
            assert matcher.oracle.size == expect, step
            matcher.oracle.verify()
            checks += 1
    g.validate()
    assert checks == 46


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda g, o: o.mate.update({1: 9}),  # a mate that does not point back
        lambda g, o: o.mate.update({1: 4, 4: 1, 2: 3, 3: 2}),  # mates 1 and 4 share no edge
        lambda g, o: g.rows.pop(1),  # mates whose edge is no longer live
    ],
    ids=["one-way-mate", "non-edge-mates", "dead-edge"],
)
def test_19_oracle_verify_fails_with_assertion_error_only(corrupt):
    g, o = board()
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        add(g, o, u, v)
    assert o.mate == {1: 2, 2: 1, 3: 4, 4: 3}
    o.verify()
    corrupt(g, o)
    with pytest.raises(AssertionError):
        o.verify()


@pytest.mark.parametrize("edges", [[(1, 1)], [(1, 1), (2, 3)], [(2, 3), (4, 4)]])
def test_20_brute_force_refuses_a_self_loop(edges):
    with pytest.raises(SelfLoopError) as err:
        brute_force_max_matching(edges)
    assert err.value.code == "self-loop"


def test_21_each_update_searches_only_from_the_roots_it_can_open(monkeypatch):
    calls: list[tuple[int, ...]] = []

    def spy(adj, mate, roots):
        calls.append(tuple(roots))
        return find_augmenting_path(adj, mate, roots)

    monkeypatch.setattr(oracle, "find_augmenting_path", spy)
    g, o = board()
    # both ends free: matched directly, with no search
    assert add(g, o, 1, 2) is True
    assert calls == [] and o.moved == {1, 2}
    add(g, o, 3, 4)
    # 8 is a free vertex away from the event, so the board has two free
    # vertices once 0 arrives and the free-vertex count does not skip
    add(g, o, 6, 7)
    add(g, o, 6, 8)
    calls.clear()
    # one free end, on either side: the search starts from it alone
    assert add(g, o, 0, 1) is False
    assert calls == [(0,)]
    calls.clear()
    assert add(g, o, 4, 5) is False
    assert calls == [(5,)]
    calls.clear()
    # both ends matched: the component's free vertices are the roots
    assert add(g, o, 2, 3) is True
    assert sorted(calls[0]) == [0, 5] and len(calls) == 1
    assert o.mate == {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    calls.clear()
    # an unmatched delete makes no search; a matched one searches from its ends
    remove(g, o, g.edge_id(1, 2))
    assert calls == [] and o.moved == set()
    remove(g, o, g.edge_id(2, 3))
    assert calls == [(2, 3)]
    assert o.size == 3
    o.verify()


def test_22_a_one_free_end_insert_augments_through_a_blossom():
    # 1-2 and 3-4 matched, 2-3-4 a triangle, 5 free behind 3: inserting 0-1
    # opens exactly one path, 0-1-2-4-3-5. The search from 0 first reaches 3
    # as an odd vertex from 2, so it finds 5 only after contracting the
    # triangle 2-3-4 and making 3 even
    g, o = board()
    for u, v in [(1, 2), (3, 4), (2, 3), (2, 4), (3, 5)]:
        add(g, o, u, v)
    assert o.mate == {1: 2, 2: 1, 3: 4, 4: 3}
    assert add(g, o, 0, 1) is True
    assert o.moved == {0, 1, 2, 3, 4, 5}
    assert o.mate == {0: 1, 1: 0, 2: 4, 4: 2, 3: 5, 5: 3}
    assert o.size == brute_force_max_matching(e.endpoints for e in g.edges.values())
    o.verify()


def test_23_an_insert_with_both_ends_matched_on_a_board_with_one_free_vertex_walks_nothing(
    monkeypatch,
):
    walks: list[int] = []
    searches: list[tuple[int, ...]] = []
    free_in_component = OracleState._free_in_component

    def walk_spy(self, seed):
        walks.append(seed)
        return free_in_component(self, seed)

    def search_spy(adj, mate, roots):
        searches.append(tuple(roots))
        return find_augmenting_path(adj, mate, roots)

    monkeypatch.setattr(OracleState, "_free_in_component", walk_spy)
    monkeypatch.setattr(oracle, "find_augmenting_path", search_spy)
    # 1-2 and 3-4 matched: 0-1 arrives with one free end, 0, which is the
    # board's only free vertex, so no augmenting path can exist and it
    # makes no search
    g, o = board()
    for u, v in [(1, 2), (3, 4)]:
        add(g, o, u, v)
    assert add(g, o, 0, 1) is False
    assert walks == [] and searches == []
    # 2-3 arrives with both ends matched: neither the DFS nor a search
    assert add(g, o, 2, 3) is False
    assert walks == [] and searches == []
    assert o.moved == set() and o.size == 2
    # test_21's board has exactly two free vertices, 0 and 5, so 2-3 still
    # collects them and searches from both
    g, o = board()
    for u, v in [(1, 2), (3, 4), (0, 1), (4, 5)]:
        add(g, o, u, v)
    walks.clear()
    searches.clear()
    assert add(g, o, 2, 3) is True
    assert walks == [2]
    assert len(searches) == 1 and sorted(searches[0]) == [0, 5]
    o.verify()
