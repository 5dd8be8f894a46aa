"""Dynamic graph state for matching with per-edge flip budgets.

Every edge carries a flip counter (its *type*). A fresh edge starts at type 0
and is not in the matching. Each time an augmentation walks over the edge the
counter goes up by one and the edge toggles in or out of the matching, so an
edge is matched exactly when its type is odd. Once the counter reaches the
budget ``k`` the edge is frozen for good -- we call it *blocked*.

A path or cycle is its vertex walk, the list of vertices it visits in
order; a cycle's walk closes on its start. The module applies an augmenting
path's walk to the graph, decomposes the symmetric difference of two
matchings into the walks of its components, and tells augmenting walks apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, KeysView, Sequence

from .bounds import BadBudgetError, BadParamsError, require_int

# Departure models for event streams.
ARRIVAL = "arrival"
LIMITED = "limited"
FULL = "full"
MODELS = (ARRIVAL, LIMITED, FULL)

ARRIVE = "arrive"
DEPART = "depart"


class GraphError(Exception):
    """Base class for illegal graph/matching operations.

    ``code`` is a stable machine-readable identifier for the failure class.
    """

    code = "graph-error"


class SelfLoopError(GraphError):
    code = "self-loop"


class DuplicateEdgeError(GraphError):
    code = "duplicate-edge"


class UnknownEdgeError(GraphError):
    code = "unknown-edge"


class IllegalEventError(GraphError):
    """An edge tried to leave where the graph's departure model forbids it."""

    code = "illegal-event-for-model"


class BlockedPathError(GraphError):
    """An augmenting path touches an edge whose flip budget is exhausted."""

    code = "blocked-path"


class NotAugmentingError(GraphError):
    code = "not-augmenting"


@dataclass(frozen=True)
class Event:
    """One step of an online instance: an edge arrives or departs."""

    action: str  # ARRIVE or DEPART
    u: int
    v: int

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def __str__(self) -> str:
        sign = "+" if self.action == ARRIVE else "-"
        return f"{sign} {self.u} {self.v}"


def arrive(u: int, v: int) -> Event:
    return Event(ARRIVE, u, v)


def depart(u: int, v: int) -> Event:
    return Event(DEPART, u, v)


@dataclass
class EdgeState:
    """A live edge: identity, endpoints and flip counter."""

    id: int
    u: int
    v: int
    etype: int = 0

    @property
    def matched(self) -> bool:
        return self.etype % 2 == 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


class Graph:
    """Mutable graph with flip-budget matching state.

    Vertices are integers; they come into existence with their first incident
    edge and persist even after all incident edges are gone. At most one live
    edge per vertex pair; a pair that re-arrives after departing is a brand
    new edge starting at type 0. ``model`` is the departure model, which
    ``remove_edge`` enforces. Every mutation checks its request before it
    changes anything, so a refused one leaves the graph as it was.
    """

    def __init__(self, budget: int, model: str = FULL):
        require_int(budget, 1, "budget", BadBudgetError)
        if model not in MODELS:
            raise BadParamsError(f"unknown departure model {model!r}; pick one of {MODELS}")
        self.budget = budget
        self.model = model
        self.edges: dict[int, EdgeState] = {}
        self.total_flips = 0
        # vertex -> {neighbor: edge id}: the board's only edge index, which
        # the oracle searches too
        self.rows: dict[int, dict[int, int]] = {}
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex
        self._next_id = 0

    # ------------------------------------------------------------------
    # basic queries

    @property
    def vertices(self) -> KeysView[int]:
        """Every vertex that has had an edge (a read-only view)."""
        return self.rows.keys()

    def edge(self, edge_id: int) -> EdgeState:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"no live edge with id {edge_id}") from None

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self.rows[u][v]
        except KeyError:
            raise UnknownEdgeError(f"no live edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rows.get(u, ())

    def is_free(self, v: int) -> bool:
        return v not in self.mate

    def matching(self) -> set[int]:
        rows = self.rows
        return {rows[v][w] for v, w in self.mate.items()}

    def matching_size(self) -> int:
        return len(self.mate) // 2

    # ------------------------------------------------------------------
    # mutation

    def add_edge(self, u: int, v: int) -> int:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if self.has_edge(u, v):
            raise DuplicateEdgeError(f"edge between {u} and {v} is already live")
        eid = self._next_id
        self._next_id += 1
        self.edges[eid] = EdgeState(eid, min(u, v), max(u, v))
        for a, b in ((u, v), (v, u)):
            self.rows.setdefault(a, {})[b] = eid
        return eid

    def remove_edge(self, edge_id: int) -> EdgeState:
        e = self.edge(edge_id)
        if self.model == ARRIVAL:
            raise IllegalEventError("edges never depart under the arrival model")
        if self.model == LIMITED and e.matched:
            raise IllegalEventError(
                f"edge {edge_id} is matched and cannot depart under the limited model"
            )
        if e.matched:
            del self.mate[e.u]
            del self.mate[e.v]
        del self.edges[edge_id]
        del self.rows[e.u][e.v]
        del self.rows[e.v][e.u]
        return e

    # ------------------------------------------------------------------
    # applying augmenting paths

    def apply_augmenting_path(self, walk: Sequence[int]) -> None:
        """Flip every edge along the augmenting path ``walk`` (+1 matched edge).

        The walk is checked against the *current* state before any edge
        flips: it visits no vertex twice, joins live edges, has an odd number
        of them alternating unmatched/matched, ends on two free vertices, and
        crosses no edge whose flip budget is spent.
        """
        if len(set(walk)) != len(walk):
            raise GraphError("walk revisits a vertex")
        states = [self.edges[self.edge_id(a, b)] for a, b in zip(walk, walk[1:])]
        if len(states) % 2 == 0:
            raise NotAugmentingError("an augmenting path has an odd number of edges")
        for i, e in enumerate(states):
            if e.matched != (i % 2 == 1):
                raise NotAugmentingError(
                    f"edge {e.id} breaks the unmatched/matched alternation"
                )
        if not (self.is_free(walk[0]) and self.is_free(walk[-1])):
            raise NotAugmentingError("both endpoints of an augmenting path must be free")
        blocked = [e.id for e in states if e.etype >= self.budget]
        if blocked:
            raise BlockedPathError(f"edges {blocked} have exhausted their flip budget")
        # the entering edges (even positions) cover every vertex of the walk,
        # so setting their partners overwrites every leaving edge's
        for e in states:
            e.etype += 1
        for a, b in zip(walk[::2], walk[1::2]):
            self.mate[a] = b
            self.mate[b] = a
        self.total_flips += len(states)

    # ------------------------------------------------------------------
    # views and checks

    def component_view(
        self, seeds: Iterable[int]
    ) -> tuple[dict[int, dict[int, int]], list[int]]:
        """The searchable view of the component of ``seeds`` over unspent edges.

        Returns the adjacency, over edges whose flip budget is not spent, of
        the vertices reachable from ``seeds`` over those edges, and the free
        vertices among them. A vertex whose matched edge is spent keeps its
        partner in ``mate`` but not the edge, which makes it a wall for
        ``blossom.find_augmenting_path``.
        """
        budget, edges, rows, mate = self.budget, self.edges, self.rows, self.mate
        adj: dict[int, dict[int, int]] = {}
        roots: list[int] = []
        queue = deque(s for s in seeds if s in rows)
        seen = set(queue)
        while queue:
            v = queue.popleft()
            row = adj[v] = {}
            if v not in mate:
                roots.append(v)
            for nbr, eid in rows[v].items():
                if edges[eid].etype >= budget:
                    continue
                row[nbr] = eid
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return adj, roots

    def validate(self) -> None:
        """Assert internal invariants (meant for tests)."""
        for e in self.edges.values():
            assert 0 <= e.etype <= self.budget, f"edge {e.id} type out of range"
        mates: dict[int, int] = {}
        for e in self.edges.values():
            if e.matched:
                for v, w in ((e.u, e.v), (e.v, e.u)):
                    assert v not in mates, f"vertex {v} matched twice"
                    mates[v] = w
        assert mates == self.mate, "partner map out of sync"
        # the rows list exactly the live edges, each in both directions
        listed = {(a, b, eid) for a, row in self.rows.items() for b, eid in row.items()}
        live = {(e.u, e.v, e.id) for e in self.edges.values()}
        live |= {(v, u, eid) for u, v, eid in live}
        assert listed == live, "rows and live edges disagree"


# ----------------------------------------------------------------------
# module-level operations


def is_augmenting(g: Graph, walk: Sequence[int]) -> bool:
    """True when ``walk`` has an odd number of edges between two ends free in ``g``."""
    return (
        len(walk) >= 2
        and len(walk) % 2 == 0
        and walk[0] != walk[-1]
        and g.is_free(walk[0])
        and g.is_free(walk[-1])
    )


def symmetric_difference(
    g: Graph,
    alg: dict[int, int],
    opt: dict[int, int],
    *,
    blocked_at: int | None = None,
) -> list[list[int]]:
    """Decompose ALG ^ OPT into the walks of its paths and cycles.

    Both matchings are partner maps (vertex -> partner), like ``Graph.mate``
    and ``OracleState.mate``; a pair the other map does not share must be a
    live edge of ``g``. With ``blocked_at`` set, edges whose type has reached
    it are dropped first, which may split components into shorter stubs.

    The result is deterministic: paths are walked from their smaller end
    vertex in increasing order of it, then cycles from their smallest vertex.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for mine, other in ((alg, opt), (opt, alg)):
        for v, w in mine.items():
            if other.get(v) == w:
                continue
            eid = g.edge_id(v, w)
            if blocked_at is None or g.edges[eid].etype < blocked_at:
                adj.setdefault(v, []).append((w, eid))
    for v in adj:
        adj[v].sort()
        assert len(adj[v]) <= 2, "two matchings give max degree 2"

    done_edges: set[int] = set()
    walks: list[list[int]] = []

    def walk_from(start: int) -> list[int]:
        """Walk until a dead end or back to start."""
        walk = [start]
        cur = start
        while True:
            step = next(((n, e) for n, e in adj[cur] if e not in done_edges), None)
            if step is None:
                break
            cur, eid = step
            done_edges.add(eid)
            walk.append(cur)
            if cur == start:
                break
        return walk

    endpoints = sorted(v for v, rows in adj.items() if len(rows) == 1)
    for start in endpoints:
        if any(eid not in done_edges for _, eid in adj[start]):
            walks.append(walk_from(start))
    for start in sorted(adj):
        if any(eid not in done_edges for _, eid in adj[start]):
            walks.append(walk_from(start))
            assert walks[-1][0] == walks[-1][-1], "leftover component must be a cycle"
    return walks
