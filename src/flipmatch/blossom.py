"""Deterministic augmenting-path search with blossom contraction.

Works on plain adjacency data (vertex -> its neighbors; of a graph's rows
only the keys are read) plus a mate map, so the same routine serves both the
online matchers (which search a view without spent edges and walls) and the
optimum-tracking oracle (which ignores budgets).

Roots are tried in increasing vertex order, neighbors are scanned sorted and
a contraction relabels the tree's vertices in the order they joined it, so
the returned path is reproducible run to run and independent of the order
of ``adj``.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Mapping


def find_augmenting_path(
    adj: Mapping[int, Collection[int]],
    mate: Mapping[int, int],
    roots: Iterable[int],
) -> list[int] | None:
    """Return a vertex walk of an augmenting path, or None.

    ``adj`` lists the searchable edges; ``mate`` maps matched vertices to
    their partner (vertices absent from it are free). ``roots`` are the free
    vertices of ``adj`` the search starts from, tried in increasing order.
    The walk alternates unmatched/matched edges and both end vertices are
    free.

    Neighbors that have no row in ``adj`` lie outside the searched view and
    are skipped. A matched vertex with a row must list its matched edge, as
    the search walks from it to its partner.
    """
    for root in sorted(roots):
        path = _search(root, adj, mate)
        if path is not None:
            return path
    return None


def _search(
    root: int, adj: Mapping[int, Collection[int]], mate: Mapping[int, int]
) -> list[int] | None:
    """BFS a single alternating tree from ``root``, contracting odd cycles.

    ``base`` holds only the vertices a contraction moved; every other vertex
    is its own base, hence the ``base.get(v, v)`` reads. ``tree`` lists the
    tree's vertices in the order they joined it: the even ones in ``used``
    and the odd ones that got a ``parent``. Only they can lie in a blossom,
    so a contraction relabels them alone and never walks all of ``adj``.
    """
    base: dict[int, int] = {}
    parent: dict[int, int] = {}
    used = {root}
    tree = [root]
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = set()
        a = base.get(a, a)
        while True:
            seen.add(a)
            if a not in mate:
                break
            a = parent[mate[a]]
            a = base.get(a, a)
        b = base.get(b, b)
        while b not in seen:
            b = parent[mate[b]]
            b = base.get(b, b)
        return b

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while (bv := base.get(v, v)) != b:
            w = mate[v]
            blossom.add(bv)
            blossom.add(base.get(w, w))
            parent[v] = child
            child = w
            v = parent[w]

    while queue:
        v = queue.popleft()
        v_mate = mate.get(v)
        for to in sorted(adj[v]):
            if to not in adj:
                continue  # outside the searched view
            to_mate = mate.get(to)
            if base.get(v, v) == base.get(to, to) or v_mate == to:
                continue
            if to == root or (to_mate is not None and to_mate in parent):
                # found an odd cycle: contract it
                cur_base = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur_base, to, blossom)
                mark_path(to, cur_base, v, blossom)
                for u in tree:
                    if base.get(u, u) in blossom:
                        base[u] = cur_base
                        if u not in used:
                            used.add(u)
                            queue.append(u)
            elif to not in parent:
                parent[to] = v
                if to_mate is None:
                    return _extract(root, to, parent, mate)
                tree.append(to)
                if to_mate not in used:
                    used.add(to_mate)
                    tree.append(to_mate)
                    queue.append(to_mate)
    return None


def _extract(
    root: int, end: int, parent: Mapping[int, int], mate: Mapping[int, int]
) -> list[int]:
    walk = [end]
    v = end
    while v != root:
        p = parent[v]
        walk.append(p)
        if p == root:
            break
        w = mate[p]
        walk.append(w)
        v = w
    walk.reverse()
    return walk
