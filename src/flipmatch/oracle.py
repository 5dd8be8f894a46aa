"""Incrementally maintained maximum matching plus a brute-force reference.

The oracle searches the rows of the graph it scores (vertex -> {neighbor:
edge id}) and keeps only its matching, as a partner map. Each update is
reported after the graph applied it, and the oracle repairs its matching
with at most one augmenting-path search, started only from the vertices
that can end a new path. Before the update the matching is maximum, so it
has no augmenting path (Berge), and a free vertex on an augmenting path is
one of its two ends, since every inner vertex is matched.

* insert of u-v: the maximum rises by at most one, and any new augmenting
  path uses u-v (without it, the path would have augmented the old
  matching), so it visits u and v.
  - Both ends free: u-v itself is the path, so it is matched directly.
  - One end free: that end lies on the path and is free, so it is one of
    the path's ends. Searching from it alone settles the update.
  - Both ends matched: the path's ends can be any two free vertices of
    the component. One DFS collects them as the roots, and fewer than two
    means there is no path.
* delete of a matched edge u-v: it frees u and v. An augmenting path of
  the remaining matching that ends at neither uses only edges and matched
  pairs the old matching had, so it would have augmented the old matching.
  So u and v are the roots.
* delete of an unmatched edge: removing an edge never creates augmenting
  paths, so nothing needs to run.

Before any search or DFS, an insert that is not matched directly counts
the board's free vertices: every vertex is a key of the rows and every
matched one a key of ``mate``, so there are at most ``len(rows) -
len(mate)`` (isolated vertices count too, which only makes it an upper
bound). An augmenting path has two distinct free ends, so with fewer than
two there is none, and the update ends in O(1). A delete needs no count:
it frees two vertices.

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
        self.moved: set[int] = set()  # vertices whose partner the last update changed

    @property
    def size(self) -> int:
        return len(self.mate) // 2

    def insert(self, u: int, v: int) -> bool:
        """Repair after an edge joined the rows at u-v; True when the matching grew."""
        mate = self.mate
        if u not in mate and v not in mate:
            mate[u] = v
            mate[v] = u
            self.moved = {u, v}
            return True
        self.moved = set()
        if len(self.rows) - len(mate) < 2:
            return False  # an augmenting path needs two free ends
        if u not in mate:
            return self._augment((u,))
        if v not in mate:
            return self._augment((v,))
        roots = self._free_in_component(u)
        return len(roots) >= 2 and self._augment(roots)

    def delete(self, u: int, v: int) -> None:
        """Repair after the edge u-v left the rows, if it was matched."""
        self.moved = set()
        if self.mate.get(u) == v:
            del self.mate[u]
            del self.mate[v]
            self.moved = {u, v}
            self._augment((u, v))

    # ------------------------------------------------------------------

    def _free_in_component(self, seed: int) -> list[int]:
        """The free vertices of ``seed``'s component, found by one DFS."""
        rows, mate = self.rows, self.mate
        roots: list[int] = []
        stack = [seed]
        seen = {seed}
        while stack:
            x = stack.pop()
            if x not in mate:
                roots.append(x)
            for nbr in rows[x]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return roots

    def _augment(self, roots: Iterable[int]) -> bool:
        """Apply the first augmenting path the search finds from ``roots``, if any."""
        mate = self.mate
        walk = find_augmenting_path(self.rows, mate, roots)
        if walk is None:
            return False
        # the entering edges (even positions) cover every vertex of the walk,
        # so setting their partners overwrites every leaving edge's
        for a, b in zip(walk[::2], walk[1::2]):
            mate[a] = b
            mate[b] = a
        self.moved.update(walk)
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
