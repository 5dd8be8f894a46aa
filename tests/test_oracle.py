"""Incremental maximum matching against brute force and networkx."""

from __future__ import annotations

import random

import pytest

from flipmatch.blossom import find_augmenting_path
from flipmatch.core import UnknownEdgeError
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


@pytest.mark.skipif(nx is None, reason="networkx not installed")
def test_03_brute_force_agrees_with_networkx():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(4, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(3, min(len(pairs), 16))]
        g = nx.Graph(edges)
        expect = len(nx.max_weight_matching(g, maxcardinality=True))
        assert brute_force_max_matching(edges) == expect


def test_04_brute_force_size_guard():
    edges = [(i, i + 100) for i in range(BRUTE_FORCE_EDGE_LIMIT + 1)]
    with pytest.raises(TooLargeError) as err:
        brute_force_max_matching(edges)
    assert err.value.code == "too-large"


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
    assert find_augmenting_path(adj, mate) is None

    # same graph, weaker matching: now an augmenting path does exist
    mate = {2: 3, 3: 2}
    walk = find_augmenting_path(adj, mate)
    assert walk is not None
    assert len(walk) % 2 == 0
    assert walk[0] not in mate and walk[-1] not in mate
    # consecutive hops alternate unmatched and matched
    for i, (a, b) in enumerate(zip(walk, walk[1:])):
        assert (mate.get(a) == b) == (i % 2 == 1)


def test_06_oracle_insert_grows():
    o = OracleState()
    assert o.insert(0, 1, 2) is True
    assert o.insert(1, 2, 3) is False
    assert o.insert(2, 3, 4) is True
    assert o.size == 2
    o.verify()


def test_07_oracle_delete_repairs():
    o = OracleState()
    o.insert(0, 1, 2)
    o.insert(1, 2, 3)
    o.insert(2, 3, 4)
    assert o.size == 2
    # deleting a matched edge: repair finds the alternative
    matched = sorted(o.opt)
    o.delete(matched[0])
    assert o.size >= 1
    o.verify()


def test_08_oracle_delete_unknown():
    o = OracleState()
    with pytest.raises(UnknownEdgeError):
        o.delete(5)


def test_09_oracle_petersen():
    o = OracleState()
    for eid, (u, v) in enumerate(petersen_edges()):
        o.insert(eid, u, v)
    assert o.size == 5
    o.verify()


@pytest.mark.parametrize("seed", range(25))
def test_10_oracle_tracks_brute_force_under_churn(seed):
    rng = random.Random(seed)
    o = OracleState()
    live: dict[int, tuple[int, int]] = {}
    next_id = 0
    n = 9
    for _ in range(60):
        if live and (rng.random() < 0.35 or len(live) >= 22):
            eid = rng.choice(sorted(live))
            o.delete(eid)
            del live[eid]
        else:
            u, v = rng.sample(range(n), 2)
            key = (min(u, v), max(u, v))
            if key in {tuple(sorted(p)) for p in live.values()}:
                continue
            o.insert(next_id, u, v)
            live[next_id] = key
            next_id += 1
        assert o.size == brute_force_max_matching(live.values())
        o.verify()


def test_11_deterministic_across_runs():
    def run() -> list[int]:
        o = OracleState()
        sizes = []
        for eid, (u, v) in enumerate(petersen_edges()):
            o.insert(eid, u, v)
            sizes.append(o.size)
        return sizes

    assert run() == run()


def test_12_blossom_never_crosses_a_walled_matched_vertex():
    # 3-0-1-2 would augment, but the matched edge 0-1 is absent from the
    # searchable edges (spent), so 0 and 1 are walls and no path exists
    adj = {0: {3: 1}, 3: {0: 1}, 1: {2: 2}, 2: {1: 2}}
    mate = {0: 1, 1: 0}
    assert find_augmenting_path(adj, mate) is None
    # with the matched edge searchable the same path is found
    adj[0][1] = adj[1][0] = 0
    assert find_augmenting_path(adj, mate) == [2, 1, 0, 3]
