"""Incrementally maintained maximum matching plus a brute-force reference.

The oracle searches the rows of the graph it scores (vertex -> {neighbor:
edge state}), reading only their keys, and keeps only its matching, as a
partner map. Each update is reported after the graph applied it, and the
oracle repairs its matching with at most one augmenting-path search,
started only from the vertices that can end a new path. Before the update
the matching is maximum, so it has no augmenting path (Berge), and a free
vertex on an augmenting path is one of its two ends, since every inner
vertex is matched.

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

The oracle keeps ``free``, the exact set of vertices of the rows that
``mate`` lacks. A departure empties a row but keeps its key, so vertices
never leave the rows and an isolated vertex stays free. An insert adds its
free end, a direct match removes both ends, an augmentation removes the
walk's two ends and the delete of a matched edge adds u and v. Before any
search or DFS, an insert that is not matched directly reads ``len(free)``.
An augmenting path joins two distinct free vertices, so with fewer than
two there is none, and the update ends in O(1). A delete needs no count:
it frees two vertices.

With exactly two free vertices, every augmenting path joins them, and a
one-root blossom search finds a path whenever one ends at its root. So one
search settles the insert, and its walk is applied: L-Greedy and AMP steer
by any maximum matching. It starts from the free vertex that is not the
insert's end, whose tree is often far smaller (on a chain the end's spans
the component), or from the smaller one when both ends are matched. The
component DFS thus runs only with three or more free vertices, and no
update searches twice.

The graph refuses self-loops, duplicate pairs and unknown edges before the
oracle hears of them. Budgets are irrelevant here -- the oracle answers
"what could an offline matcher do with the current edge set".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Iterable, Mapping

from .blossom import find_augmenting_path
from .core import SelfLoopError

BRUTE_FORCE_EDGE_LIMIT = 24


class TooLargeError(Exception):
    """Brute force was asked to chew on more edges than the guard allows."""

    code = "too-large"


class OracleState:
    """Maximum matching over a graph's rows, kept under edge insertions and deletions."""

    def __init__(self, rows: Mapping[int, Collection[int]]) -> None:
        self.rows = rows  # the graph's vertex -> {neighbor: edge state}, read only
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex
        self.free: set[int] = set(rows)  # the vertices of ``rows`` that ``mate`` lacks
        self.moved: set[int] = set()  # vertices whose partner the last update changed

    @property
    def size(self) -> int:
        return len(self.mate) // 2

    def insert(self, u: int, v: int) -> bool:
        """Repair after an edge joined the rows at u-v; True when the matching grew."""
        mate, free = self.mate, self.free
        if u not in mate and v not in mate:
            mate[u] = v
            mate[v] = u
            free.discard(u)
            free.discard(v)
            self.moved = {u, v}
            return True
        self.moved = set()
        end = u if u not in mate else v if v not in mate else None  # the one free end
        if end is not None:
            free.add(end)
        if len(free) < 2:
            return False  # an augmenting path needs two free ends
        if len(free) == 2:
            # every augmenting path joins the two: one search from either settles it
            return self._augment((min(free - {end}),))
        if end is None:
            roots = self._free_in_component(u)
            return len(roots) >= 2 and self._augment(roots)
        return self._augment((end,))

    def delete(self, u: int, v: int) -> None:
        """Repair after the edge u-v left the rows, if it was matched."""
        self.moved = set()
        if self.mate.get(u) == v:
            del self.mate[u]
            del self.mate[v]
            self.free.update((u, v))
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
        self.free.difference_update((walk[0], walk[-1]))
        self.moved.update(walk)
        return True

    def verify(self) -> None:
        """Assert that the matching is a matching of live edges and ``free``
        the vertices it leaves free (meant for tests)."""
        for v, w in self.mate.items():
            assert self.mate.get(w) == v, f"vertex {v} is matched to {w}, not back"
            assert w in self.rows.get(v, ()), f"mates {v} and {w} are not joined by a live edge"
        unmatched = {v for v in self.rows if v not in self.mate}
        assert self.free == unmatched, f"free set {self.free}, unmatched vertices {unmatched}"


# ----------------------------------------------------------------------
# brute force


def brute_force_max_matching(edges: Iterable[tuple[int, int]]) -> int:
    """Exact maximum matching size: peel pendant edges, then branch on the rest.

    The input is normalised to neighbour sets, so a reversed duplicate
    counts once; a self-loop raises ``SelfLoopError``. Guarded to at most
    ``BRUTE_FORCE_EDGE_LIMIT`` distinct pairs.

    Every vertex of degree 1 is peeled first: the leaf x is matched to its
    only neighbour y, the count rises by one, and x and y leave the board.
    This is exact (Karp and Sipser's degree-1 rule): take a maximum matching
    M. If x is matched, its partner is y. If x is free and y is free, M + xy
    is larger, which is impossible. If x is free and y is matched, swapping
    y's matched edge for xy gives a maximum matching with xy. So some maximum
    matching holds xy, and nu(G) = 1 + nu(G - x - y). A neighbour of y that
    drops to degree 1 is queued in turn. What is left has no vertex of
    degree 1: it lies in the 2-core, and a forest is peeled away entirely.
    Each connected component of what remains is solved by ``_component_max``.
    """
    nbrs: dict[int, set[int]] = {}
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    count = sum(map(len, nbrs.values())) // 2
    if count > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"{count} edges exceed the brute-force limit of {BRUTE_FORCE_EDGE_LIMIT}"
        )
    total = 0
    leaves = [x for x, around in nbrs.items() if len(around) == 1]
    while leaves:
        x = leaves.pop()
        if len(nbrs.get(x, ())) != 1:
            continue  # gone with a partner, or isolated when its neighbour went
        (y,) = nbrs.pop(x)
        total += 1
        for z in nbrs.pop(y):
            if z != x:
                around = nbrs[z]
                around.discard(y)
                if len(around) == 1:
                    leaves.append(z)
    seen: set[int] = set()
    for start, around in nbrs.items():
        if start in seen or not around:
            continue
        seen.add(start)
        stack = [start]
        comp: set[tuple[int, int]] = set()
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                comp.add((x, y) if x < y else (y, x))
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        total += _component_max(frozenset(comp))
    return total


@lru_cache(maxsize=200_000)
def _component_max(edges: frozenset[tuple[int, int]]) -> int:
    """Maximum matching size of one component; edge ``i`` of the sorted pairs is bit ``i``.

    Each call branches on the lowest live edge: drop it, or take it and
    clear every edge that shares an endpoint. It memoizes within a call on
    the mask of live edges and across calls on the component's pairs.
    ``brute_force_max_matching`` hands it only the components left after
    peeling every degree-1 vertex, in which every vertex has degree 2 or
    more. The peel is exact because some maximum matching holds each
    pendant edge (proved there), so a forest never reaches this DP and the
    cache holds only the boards' kernels.
    """
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
