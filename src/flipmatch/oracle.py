"""Incrementally maintained maximum matching plus a brute-force reference.

The oracle keeps its own adjacency copy, fed by insert/delete calls, and
repairs its matching with at most one augmenting-path search per update:

* insert: a new edge can raise the maximum by at most one, and any new
  augmenting path must use it, so one search inside the touched component
  settles the update;
* delete of a matched edge: the two freed endpoints are the only candidate
  ends of a repair path, so searching from them settles the update;
* delete of an unmatched edge: removing an edge never creates augmenting
  paths, so nothing needs to run.

Budgets are irrelevant here -- the oracle answers "what could an offline
matcher do with the current edge set".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .blossom import find_augmenting_path
from .core import UnknownEdgeError

BRUTE_FORCE_EDGE_LIMIT = 24


class TooLargeError(Exception):
    """Brute force was asked to chew on more edges than the guard allows."""

    code = "too-large"


class OracleState:
    """Maximum matching maintained under edge insertions and deletions."""

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, int]] = {}  # vertex -> {neighbor: edge id}
        self.endpoints: dict[int, tuple[int, int]] = {}  # edge id -> (u, v)
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex
        self.opt: set[int] = set()  # matched edge ids

    @property
    def size(self) -> int:
        return len(self.opt)

    def insert(self, edge_id: int, u: int, v: int) -> bool:
        """Register a new edge; returns True when the matching grew."""
        if edge_id in self.endpoints:
            raise ValueError(f"edge id {edge_id} already registered")
        self.endpoints[edge_id] = (u, v)
        self.adj.setdefault(u, {})[v] = edge_id
        self.adj.setdefault(v, {})[u] = edge_id
        return self._augment_around((u, v))

    def delete(self, edge_id: int) -> None:
        """Forget an edge, repairing the matching if it was in it."""
        try:
            u, v = self.endpoints.pop(edge_id)
        except KeyError:
            raise UnknownEdgeError(f"oracle has no edge with id {edge_id}") from None
        del self.adj[u][v]
        del self.adj[v][u]
        if edge_id in self.opt:
            self.opt.discard(edge_id)
            del self.mate[u]
            del self.mate[v]
            self._augment_around((u, v))

    # ------------------------------------------------------------------

    def _component(self, seeds: Iterable[int]) -> dict[int, dict[int, int]]:
        seen: set[int] = set()
        stack = [s for s in seeds if s in self.adj]
        seen.update(stack)
        view: dict[int, dict[int, int]] = {}
        while stack:
            x = stack.pop()
            row = self.adj.get(x, {})
            view[x] = row
            for nbr in row:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return view

    def _augment_around(self, seeds: tuple[int, int]) -> bool:
        view = self._component(seeds)
        roots = sorted(x for x in view if x not in self.mate)
        walk = find_augmenting_path(view, self.mate, roots)
        if walk is None:
            return False
        for i, (a, b) in enumerate(zip(walk, walk[1:])):
            eid = self.adj[a][b]
            if i % 2 == 0:
                self.opt.add(eid)
                self.mate[a] = b
                self.mate[b] = a
            else:
                self.opt.discard(eid)
        return True

    def verify(self) -> None:
        """Assert matching consistency (meant for tests)."""
        seen: set[int] = set()
        for eid in self.opt:
            u, v = self.endpoints[eid]
            assert self.mate.get(u) == v and self.mate.get(v) == u
            assert not {u, v} & seen
            seen.update((u, v))
        assert len(self.mate) == 2 * len(self.opt)


# ----------------------------------------------------------------------
# brute force


def brute_force_max_matching(edges: Iterable[tuple[int, int]]) -> int:
    """Exact maximum matching size by exhaustive branching.

    Guarded to at most ``BRUTE_FORCE_EDGE_LIMIT`` edges. Splits into connected
    components and memoizes per component, which keeps repeated calls on
    evolving graphs cheap.
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    edge_set = frozenset(edge_list)
    if len(edge_set) > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"{len(edge_set)} edges exceed the brute-force limit of {BRUTE_FORCE_EDGE_LIMIT}"
        )
    total = 0
    for comp in _split_components(edge_set):
        total += _component_max(comp)
    return total


def _split_components(edges: frozenset[tuple[int, int]]) -> list[frozenset[tuple[int, int]]]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[tuple[int, int]]] = {}
    for e in edges:
        groups.setdefault(find(e[0]), set()).add(e)
    return [frozenset(g) for g in groups.values()]


@lru_cache(maxsize=200_000)
def _component_max(edges: frozenset[tuple[int, int]]) -> int:
    if not edges:
        return 0
    # branch on the lowest vertex that still has edges
    v = min(min(e) for e in edges)
    at_v = sorted(e for e in edges if v in e)
    # option 1: leave v unmatched
    best = _component_max(frozenset(e for e in edges if v not in e))
    # option 2: match v along each incident edge
    for e in at_v:
        other = e[0] if e[1] == v else e[1]
        rest = frozenset(f for f in edges if v not in f and other not in f)
        cand = 1 + _component_max(rest)
        if cand > best:
            best = cand
    return best
