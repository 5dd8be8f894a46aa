"""Incrementally maintained maximum matching plus a brute-force reference.

The oracle searches the rows of the graph it scores (vertex -> {neighbor:
edge id}) and keeps only its matching. Each update is reported after the
graph applied it, and the oracle repairs its matching with at most one
augmenting-path search:

* insert: a new edge can raise the maximum by at most one, and any new
  augmenting path must use it, so one search inside the touched component
  settles the update;
* delete of a matched edge: the two freed endpoints are the only candidate
  ends of a repair path, so searching from them settles the update;
* delete of an unmatched edge: removing an edge never creates augmenting
  paths, so nothing needs to run.

The graph refuses self-loops, duplicate pairs and unknown edges before the
oracle hears of them. Budgets are irrelevant here -- the oracle answers
"what could an offline matcher do with the current edge set".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .blossom import find_augmenting_path

BRUTE_FORCE_EDGE_LIMIT = 24


class TooLargeError(Exception):
    """Brute force was asked to chew on more edges than the guard allows."""

    code = "too-large"


class OracleState:
    """Maximum matching over a graph's rows, kept under edge insertions and deletions."""

    def __init__(self, rows: dict[int, dict[int, int]]) -> None:
        self.rows = rows  # the graph's vertex -> {neighbor: edge id}, read only
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex
        self.opt: set[int] = set()  # matched edge ids
        self.flipped: set[int] = set()  # edge ids the last update's repair path flipped

    @property
    def size(self) -> int:
        return len(self.opt)

    def insert(self, edge_id: int, u: int, v: int) -> bool:
        """Repair after edge ``edge_id`` joined the rows at u-v; True when the matching grew."""
        self.flipped = set()
        return self._augment_around((u, v))

    def delete(self, edge_id: int, u: int, v: int) -> None:
        """Repair after edge ``edge_id`` left the rows at u-v, if it was matched."""
        self.flipped = set()
        if edge_id in self.opt:
            self.opt.discard(edge_id)
            del self.mate[u]
            del self.mate[v]
            self._augment_around((u, v))

    # ------------------------------------------------------------------

    def _augment_around(self, seeds: tuple[int, int]) -> bool:
        """Apply the first augmenting path in the component of ``seeds``, if any.

        One DFS collects the component's rows, in the order it pops them
        (the order the search's blossom relabelling iterates), and its free
        vertices. A component with fewer than two free vertices has no
        augmenting path, so it is not searched.
        """
        rows, mate = self.rows, self.mate
        view: dict[int, dict[int, int]] = {}
        roots: list[int] = []
        stack = list(seeds)
        seen = set(stack)
        while stack:
            x = stack.pop()
            row = view[x] = rows[x]
            if x not in mate:
                roots.append(x)
            for nbr in row:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(roots) < 2:
            return False
        walk = find_augmenting_path(view, mate, roots)
        if walk is None:
            return False
        for i, (a, b) in enumerate(zip(walk, walk[1:])):
            eid = rows[a][b]
            self.flipped.add(eid)
            if i % 2 == 0:
                self.opt.add(eid)
                self.mate[a] = b
                self.mate[b] = a
            else:
                self.opt.discard(eid)
        return True

    def verify(self) -> None:
        """Assert that the matching is a matching of live edges (meant for tests)."""
        for v, w in self.mate.items():
            assert self.mate.get(w) == v, f"vertex {v} is matched to {w}, not back"
            eid = self.rows.get(v, {}).get(w)
            assert eid in self.opt, f"mates {v} and {w} are not joined by an edge in opt"
        assert len(self.mate) == 2 * len(self.opt), "opt holds edges no mates use"


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
