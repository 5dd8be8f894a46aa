"""Incrementally maintained maximum matching plus a brute-force reference.

The oracle searches the rows of the graph it scores (vertex -> {neighbor:
edge id}) and keeps only its matching, as a partner map. Each update is
reported after the graph applied it, and the oracle repairs its matching
with at most one augmenting-path search:

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
from .core import SelfLoopError

BRUTE_FORCE_EDGE_LIMIT = 24


class TooLargeError(Exception):
    """Brute force was asked to chew on more edges than the guard allows."""

    code = "too-large"


class OracleState:
    """Maximum matching over a graph's rows, kept under edge insertions and deletions."""

    def __init__(self, rows: dict[int, dict[int, int]]) -> None:
        self.rows = rows  # the graph's vertex -> {neighbor: edge id}, read only
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex
        self.flipped: set[int] = set()  # edge ids the last update's repair path flipped

    @property
    def size(self) -> int:
        return len(self.mate) // 2

    def insert(self, u: int, v: int) -> bool:
        """Repair after an edge joined the rows at u-v; True when the matching grew."""
        self.flipped = set()
        return self._augment_around((u, v))

    def delete(self, u: int, v: int) -> None:
        """Repair after the edge u-v left the rows, if it was matched."""
        self.flipped = set()
        if self.mate.get(u) == v:
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
        # the entering edges (even positions) cover every vertex of the walk,
        # so setting their partners overwrites every leaving edge's
        for i, (a, b) in enumerate(zip(walk, walk[1:])):
            self.flipped.add(rows[a][b])
            if i % 2 == 0:
                mate[a] = b
                mate[b] = a
        return True

    def verify(self) -> None:
        """Assert that the matching is a matching of live edges (meant for tests)."""
        for v, w in self.mate.items():
            assert self.mate.get(w) == v, f"vertex {v} is matched to {w}, not back"
            assert w in self.rows.get(v, ()), f"mates {v} and {w} are not joined by a live edge"


# ----------------------------------------------------------------------
# brute force


def brute_force_max_matching(edges: Iterable[tuple[int, int]]) -> int:
    """Exact maximum matching size by exhaustive branching over edge bitmasks.

    The input is normalised to a set of unordered pairs, so a reversed
    duplicate counts once; a self-loop raises ``SelfLoopError``. Guarded to
    at most ``BRUTE_FORCE_EDGE_LIMIT`` distinct pairs. Each connected
    component is solved by ``_component_max``, which memoizes within a call
    on the mask of live edges and across calls on the component's pairs, so
    repeated calls on evolving graphs stay cheap.
    """
    pairs: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pairs.add((u, v) if u < v else (v, u))
    if len(pairs) > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"{len(pairs)} edges exceed the brute-force limit of {BRUTE_FORCE_EDGE_LIMIT}"
        )
    at: dict[int, list[tuple[int, int]]] = {}
    for pair in pairs:
        for x in pair:
            at.setdefault(x, []).append(pair)
    total = 0
    seen: set[int] = set()
    for start in at:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        comp: set[tuple[int, int]] = set()
        while stack:
            for pair in at[stack.pop()]:
                comp.add(pair)
                for y in pair:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        total += _component_max(frozenset(comp))
    return total


@lru_cache(maxsize=200_000)
def _component_max(edges: frozenset[tuple[int, int]]) -> int:
    """Maximum matching size of one component; edge ``i`` of the sorted pairs is bit ``i``."""
    pairs = sorted(edges)
    incident: dict[int, int] = {}  # vertex -> mask of its edges
    for i, (u, v) in enumerate(pairs):
        incident[u] = incident.get(u, 0) | 1 << i
        incident[v] = incident.get(v, 0) | 1 << i
    # the edges that taking edge i rules out, edge i included
    clash = [incident[u] | incident[v] for u, v in pairs]
    memo = {0: 0}

    def best(live: int) -> int:
        got = memo.get(live)
        if got is None:
            low = live & -live
            # either drop the lowest live edge, or take it and clear what it clashes with
            got = max(best(live ^ low), 1 + best(live & ~clash[low.bit_length() - 1]))
            memo[live] = got
        return got

    return best((1 << len(pairs)) - 1)
