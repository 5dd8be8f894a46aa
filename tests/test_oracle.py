"""Incremental maximum matching against brute force and networkx."""

from __future__ import annotations

import random

import pytest

from flipmatch import oracle
from flipmatch.algos import MATCHERS, LGreedyMatcher, make_matcher
from flipmatch.blossom import find_augmenting_path
from flipmatch.core import FULL, LIMITED, EdgeState, Graph, SelfLoopError, arrive, depart
from flipmatch.harness import duel
from flipmatch.oracle import (
    BRUTE_FORCE_EDGE_LIMIT,
    OracleState,
    TooLargeError,
    brute_force_max_matching,
)
from flipmatch.stringgame import StringGameAdversary

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


def remove(g: Graph, o: OracleState, u: int, v: int) -> None:
    g.remove_edge(u, v)
    o.delete(u, v)


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
    remove(g, o, 1, 2)
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
            remove(g, o, *rng.choice(list(g.edges)))
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


class _RowsRead(dict):
    """A view that records every vertex whose row is read: the vertices a
    search visits."""

    def __init__(self, adj):
        super().__init__(adj)
        self.read: set[int] = set()

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)


def _search_every_vertex(g: Graph) -> list[int] | None:
    """Search the component view of every vertex of ``g`` and check it.

    The search finds a path exactly when brute force on the unspent edges
    between non-walls beats the matched ones among them, and it never
    visits a wall, a vertex whose matched edge is spent.
    """
    walls = {v for v, w in g.mate.items() if g.edge(v, w).etype >= g.budget}
    adj, roots = g.component_view(g.vertices)
    view = _RowsRead(adj)
    walk = find_augmenting_path(view, g.mate, roots)
    searchable = [
        e.endpoints for e in g.edges.values() if e.etype < g.budget and not walls & {e.u, e.v}
    ]
    matched = sum(1 for u, v in searchable if g.mate.get(u) == v)
    assert (walk is not None) == (brute_force_max_matching(searchable) > matched)
    assert not walls & adj.keys()  # a wall gets no row
    assert not view.read & walls
    return walk


def test_12_blossom_never_crosses_a_walled_matched_vertex():
    # 3-0-1-2 would augment, but at budget 1 the matched edge 0-1 is spent,
    # so 0 and 1 are walls and no path exists; at budget 3 it is not spent
    for budget, want in ((1, None), (3, [2, 1, 0, 3])):
        g = Graph(budget)
        for u, v in [(0, 3), (0, 1), (1, 2)]:
            g.add_edge(u, v)
        g.apply_augmenting_path([0, 1])
        assert _search_every_vertex(g) == want


def test_13_flipped_is_the_last_repair_path():
    g, o = board()
    for u, v in [(1, 2), (2, 3), (3, 4), (0, 1)]:
        add(g, o, u, v)
    assert o.moved == set()  # 0 is the only free vertex, so no path exists
    add(g, o, 4, 5)
    assert o.moved == {0, 1, 2, 3, 4, 5}  # 0-1-2-3-4-5 augmented
    remove(g, o, 1, 2)  # unmatched now: nothing to repair
    assert o.moved == set()
    # under churn, moved is exactly the vertices whose partner changed
    (g, o), rng = board(), random.Random(3)
    for _ in range(400):
        before = dict(o.mate)
        if g.edges and rng.random() < 0.4:
            remove(g, o, *rng.choice(list(g.edges)))
        else:
            u, v = rng.sample(range(12), 2)
            if g.has_edge(u, v):
                continue
            add(g, o, u, v)
        changed = {x for x in before.keys() | o.mate.keys() if before.get(x) != o.mate.get(x)}
        assert o.moved == changed
        o.verify()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: (rows[1].pop(2), rows[2].pop(1)),  # a live edge lost its rows
        lambda rows: rows[3].pop(4),  # one row lost a live edge
        # an unknown edge
        lambda rows: (rows[1].update({4: EdgeState(1, 4)}), rows[4].update({1: rows[1][4]})),
        # one state on two pairs
        lambda rows: (rows[2].update({3: rows[1][2]}), rows[3].update({2: rows[1][2]})),
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


@pytest.mark.parametrize("seed", range(4))
def test_16_search_finds_a_path_exactly_when_the_wall_free_graph_has_one(seed):
    # random boards of at most 10 vertices at the odd budget 3 with a random
    # matching; some matched edges are spent, which makes their ends walls
    rng = random.Random(seed)
    found = 0
    for _ in range(1500):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(3)
        for u, v in rng.sample(pairs, rng.randint(1, min(len(pairs), 18))):
            g.add_edge(u, v)
        for e in rng.sample(list(g.edges.values()), len(g.edges)):
            if g.is_free(e.u) and g.is_free(e.v) and rng.random() < 0.6:
                g.apply_augmenting_path([e.u, e.v])
                if rng.random() < 0.3:
                    e.etype = g.budget  # spent, as two more flips would leave it
        g.validate()
        walk = _search_every_vertex(g)
        if walk is None:
            continue
        found += 1
        # the graph checks the walk: alternating, free ends, no spent edge
        g.apply_augmenting_path(walk)
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
            matcher.on_departure(depart(*rng.choice(list(g.edges))))
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
    # 8 and 9 are free vertices away from the event, so the board has three
    # free vertices once 0 arrives: the free-vertex count does not skip, and
    # the exactly-two rule (test_24) does not search from another vertex first
    add(g, o, 6, 7)
    add(g, o, 6, 8)
    add(g, o, 6, 9)
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
    remove(g, o, 1, 2)
    assert calls == [] and o.moved == set()
    remove(g, o, 2, 3)
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
    # test_21's board has exactly two free vertices, 0 and 5, so 2-3 makes no
    # DFS: it searches once, from the smaller one
    g, o = board()
    for u, v in [(1, 2), (3, 4), (0, 1), (4, 5)]:
        add(g, o, u, v)
    walks.clear()
    searches.clear()
    assert add(g, o, 2, 3) is True
    assert walks == []
    assert searches == [(0,)]
    o.verify()


def test_24_with_exactly_two_free_vertices_an_insert_searches_from_the_other_one_first(
    monkeypatch,
):
    calls: list[tuple[int, ...]] = []

    def spy(adj, mate, roots):
        calls.append(tuple(roots))
        return find_augmenting_path(adj, mate, roots)

    monkeypatch.setattr(oracle, "find_augmenting_path", spy)
    # 1-2 and 6-7 matched, 8 free behind 6: 0-1 arrives with one free end,
    # 0, and 8 is the board's only other free vertex. The tree from 8 is
    # 8-6-7 and stops there, so that one search settles the insert
    g, o = board()
    for u, v in [(1, 2), (6, 7), (6, 8)]:
        add(g, o, u, v)
    assert o.free == {8}
    calls.clear()
    assert add(g, o, 0, 1) is False
    assert calls == [(8,)]
    assert o.moved == set() and o.free == {0, 8}
    o.verify()

    # 1-2, 3-6 and 4-5 matched; 2-3-6-9 and 2-4-5-9 both lead from 2 to the
    # free 9. Once 0-1 arrives, the search from 9 finds 9-5-4-2-1-0 and the
    # search from 0 would find 0-1-2-3-6-9; the insert searches only from 9
    # and applies its walk
    g, o = board()
    for u, v in [(1, 2), (3, 6), (4, 5), (2, 3), (2, 4), (6, 9), (5, 9)]:
        add(g, o, u, v)
    assert o.free == {9}
    g.add_edge(0, 1)
    before = dict(o.mate)
    assert find_augmenting_path(g.rows, before, (0,)) == [0, 1, 2, 3, 6, 9]
    assert find_augmenting_path(g.rows, before, (9,)) == [9, 5, 4, 2, 1, 0]
    calls.clear()
    assert o.insert(0, 1) is True
    assert calls == [(9,)]
    assert o.moved == {0, 1, 2, 4, 5, 9} and o.free == set()
    assert o.mate == {0: 1, 1: 0, 2: 4, 4: 2, 5: 9, 9: 5, 3: 6, 6: 3}
    o.verify()

    # an unmatched departure empties 8's row, but 8 stays a free vertex of
    # the rows: the search from it finds nothing at once
    g, o = board()
    for u, v in [(1, 2), (2, 8)]:
        add(g, o, u, v)
    remove(g, o, 2, 8)
    assert g.rows[8] == {} and o.free == {8}
    calls.clear()
    assert add(g, o, 0, 1) is False
    assert calls == [(8,)]
    assert o.free == {0, 8} and o.size == 1
    o.verify()


def test_25_no_insert_of_a_string_duel_searches_twice(monkeypatch):
    # the k=8 string duel against L-Greedy meets hundreds of inserts on a
    # board with exactly two free vertices whose search succeeds; each makes
    # one search, whichever end of the insert is free
    searches: list[tuple[int, ...]] = []
    inserts: list[tuple[int, bool, bool]] = []  # searches, exactly two, grew
    insert = OracleState.insert

    def search_spy(adj, mate, roots):
        searches.append(tuple(roots))
        return find_augmenting_path(adj, mate, roots)

    def insert_spy(self, u, v):
        free = self.free | {x for x in (u, v) if x not in self.mate}
        direct = u not in self.mate and v not in self.mate
        searches.clear()
        grew = insert(self, u, v)
        inserts.append((len(searches), not direct and len(free) == 2, grew))
        return grew

    monkeypatch.setattr(oracle, "find_augmenting_path", search_spy)
    monkeypatch.setattr(OracleState, "insert", insert_spy)
    report = duel(StringGameAdversary(8), LGreedyMatcher(8, model=LIMITED))
    assert report.bound_violations == 0
    assert max(n for n, _, _ in inserts) == 1
    assert any(two and grew for _, two, grew in inserts)


def pendant_board(rng: random.Random) -> tuple[str, set[str], list[tuple[int, int]]]:
    """A non-trivial 2-core with pendant paths and trees hung off it: at most
    24 distinct pairs, relabelled and oriented at random. Returns the core's
    shape, the kinds of pendant hung and the pairs."""
    shape = rng.choice(("odd cycle", "blossom", "petersen minus edges"))
    if shape == "odd cycle":
        n = rng.choice((3, 5, 7, 9))
        core = [(i, (i + 1) % n) for i in range(n)]
    elif shape == "blossom":
        # an odd cycle, a stem of 0-2 edges from its vertex 0, and a second
        # odd cycle through the stem's far end
        a, b = rng.choice((3, 5)), rng.choice((3, 5, 7))
        core = [(i, (i + 1) % a) for i in range(a)]
        join, nxt = 0, a
        for _ in range(rng.randint(0, 2)):
            core.append((join, nxt))
            join, nxt = nxt, nxt + 1
        ring = [join, *range(nxt, nxt + b - 1)]
        core += list(zip(ring, ring[1:] + ring[:1]))
    else:
        core = petersen_edges()
        for e in rng.sample(core, rng.randint(1, 3)):
            core.remove(e)
    pairs = list(core)
    verts = sorted({x for e in core for x in e})
    nxt = max(verts) + 1
    kinds: set[str] = set()
    for _ in range(rng.randint(1, 3)):
        room = BRUTE_FORCE_EDGE_LIMIT - len(pairs)
        if room == 0:
            break
        kind = rng.choice(("path", "tree"))
        grown = [rng.choice(verts)]
        for _ in range(rng.randint(1, min(6, room))):
            at = grown[-1] if kind == "path" else rng.choice(grown)
            pairs.append((at, nxt))
            grown.append(nxt)
            nxt += 1
        verts += grown[1:]
        kinds.add(kind)
    labels = rng.sample(range(100), nxt)
    out = [(labels[u], labels[v])[:: rng.choice((1, -1))] for u, v in pairs]
    rng.shuffle(out)
    return shape, kinds, out


@pytest.mark.skipif(nx is None, reason="networkx not installed")
def test_26_peeling_pendants_off_a_core_agrees_with_networkx(monkeypatch):
    dp_calls = []
    solve = oracle._component_max

    def spy(edges):
        dp_calls.append(edges)
        return solve(edges)

    monkeypatch.setattr(oracle, "_component_max", spy)
    rng = random.Random(26)
    shapes: dict[str, int] = {}
    kinds = {"path": 0, "tree": 0}
    reached_dp = 0
    for board_no in range(2000):
        shape, hung, edges = pendant_board(rng)
        g = nx.Graph(edges)
        assert g.number_of_edges() == len(edges) <= BRUTE_FORCE_EDGE_LIMIT
        assert nx.k_core(g, 2).number_of_edges() > 0 and min(d for _, d in g.degree) == 1
        expect = len(nx.max_weight_matching(g, maxcardinality=True))
        if board_no % 4 == 0:
            edges = edges + [(v, u) for u, v in rng.sample(edges, (len(edges) + 1) // 2)]
        dp_calls.clear()
        assert brute_force_max_matching(edges) == expect, edges
        shapes[shape] = shapes.get(shape, 0) + 1
        for kind in hung:
            kinds[kind] += 1
        reached_dp += bool(dp_calls)
    # the generator reaches every shape it promises, and the peel both leaves
    # kernels to the DP and, on some boards, eats the whole core
    assert len(shapes) == 3 and min(shapes.values()) > 500, shapes
    assert min(kinds.values()) > 500, kinds
    assert 200 < reached_dp < 1800, reached_dp


def test_27_forests_never_reach_the_dp_and_a_core_hands_it_only_its_kernel(monkeypatch):
    dp_calls = []
    solve = oracle._component_max

    def spy(edges):
        dp_calls.append(edges)
        return solve(edges)

    monkeypatch.setattr(oracle, "_component_max", spy)
    path = [(i, i + 1) for i in range(9)]
    star = [(0, i) for i in range(1, 9)]
    spine = [(i, i + 1) for i in range(4)]
    caterpillar = spine + [(i, 10 + 2 * i + j) for i in range(5) for j in range(2)]
    for edges, size in ((path, 5), (star, 1), (caterpillar, 5)):
        assert brute_force_max_matching(edges) == size
        assert brute_force_max_matching([(v, u) for u, v in reversed(edges)]) == size
    # a pendant at a triangle takes a core vertex, and the rest peels too
    assert brute_force_max_matching([(1, 2), (2, 3), (1, 3), (3, 4)]) == 2
    assert dp_calls == []

    def pairs(edges):
        return frozenset((min(e), max(e)) for e in edges)

    pentagon = [(i, (i + 1) % 5) for i in range(5)]
    # a two-edge pendant path off vertex 0 peels to the bare pentagon
    assert brute_force_max_matching(pentagon + [(0, 10), (10, 11)]) == 3
    assert dp_calls == [pairs(pentagon)]
    dp_calls.clear()
    # a star hung by its centre off the Petersen graph, beside a loose path:
    # only the Petersen graph is left
    star_off_0 = [(0, 20), (20, 21), (20, 22)]
    loose = [(30, 31), (31, 32), (32, 33)]
    assert brute_force_max_matching(petersen_edges() + star_off_0 + loose) == 5 + 1 + 2
    assert dp_calls == [pairs(petersen_edges())]
