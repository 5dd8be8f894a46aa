"""Dynamic graph state for matching with per-edge flip budgets.

Every edge carries a flip counter (its *type*). A fresh edge starts at type 0
and is not in the matching. Each time an augmentation walks over the edge the
counter goes up by one and the edge toggles in or out of the matching, so an
edge is matched exactly when its type is odd. Once the counter reaches the
board's ``budget`` the edge is frozen for good -- we call it *spent*. The
budget is ``k``, or ``k - 1`` on a bookkeeping matcher's board at an odd k.

A path or cycle is its vertex walk, the list of vertices it visits in
order; a cycle's walk closes on its start. The module applies an augmenting
path's walk to the graph, tells augmenting walks apart, and walks ALG ^ OPT,
the symmetric difference of the graph's matching and another one.
"""

from __future__ import annotations

import math
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


class BadVertexError(GraphError):
    """A vertex id was not an ``int`` (a ``bool`` is refused too)."""

    code = "bad-vertex"


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

    def __post_init__(self) -> None:
        if self.action not in (ARRIVE, DEPART):
            raise BadParamsError(
                f"unknown event action {self.action!r}; pick {ARRIVE!r} or {DEPART!r}"
            )

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


def _require_vertices(u: object, v: object) -> None:
    """Refuse an id that is not an ``int``, or is a ``bool``, before comparing it.

    ``2.0`` and ``True`` would otherwise alias the keys ``2`` and ``1`` in a
    graph's ``rows`` and ``mate``.
    """
    for x in (u, v):
        require_int(x, -math.inf, "vertex id", BadVertexError)


@dataclass(eq=False)
class EdgeState:
    """A live edge, compared by identity: endpoints (smaller first) and flip counter."""

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
        # sorted pair -> state, in arrival order
        self.edges: dict[tuple[int, int], EdgeState] = {}
        self.total_flips = 0
        # vertex -> {neighbor: state}: the index every edge lookup reads, and
        # the rows the oracle searches
        self.rows: dict[int, dict[int, EdgeState]] = {}
        self.mate: dict[int, int] = {}  # vertex -> matched partner vertex

    # ------------------------------------------------------------------
    # basic queries

    @property
    def vertices(self) -> KeysView[int]:
        """Every vertex that has had an edge (a read-only view)."""
        return self.rows.keys()

    def edge(self, u: int, v: int) -> EdgeState:
        try:
            return self.rows[u][v]
        except KeyError:
            raise UnknownEdgeError(f"no live edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rows.get(u, ())

    def is_free(self, v: int) -> bool:
        return v not in self.mate

    def matching(self) -> set[tuple[int, int]]:
        return {(v, w) for v, w in self.mate.items() if v < w}

    def matching_size(self) -> int:
        return len(self.mate) // 2

    # ------------------------------------------------------------------
    # mutation

    def add_edge(self, u: int, v: int) -> EdgeState:
        _require_vertices(u, v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if self.has_edge(u, v):
            raise DuplicateEdgeError(f"edge between {u} and {v} is already live")
        pair = (u, v) if u < v else (v, u)
        e = self.edges[pair] = EdgeState(*pair)
        self.rows.setdefault(u, {})[v] = e
        self.rows.setdefault(v, {})[u] = e
        return e

    def remove_edge(self, u: int, v: int) -> EdgeState:
        _require_vertices(u, v)
        e = self.edge(u, v)
        if self.model == ARRIVAL:
            raise IllegalEventError("edges never depart under the arrival model")
        if self.model == LIMITED and e.matched:
            raise IllegalEventError(
                f"edge {e.endpoints} is matched and cannot depart under the limited model"
            )
        if e.matched:
            del self.mate[e.u]
            del self.mate[e.v]
        del self.edges[e.endpoints]
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
        states = [self.edge(a, b) for a, b in zip(walk, walk[1:])]
        if len(states) % 2 == 0:
            raise NotAugmentingError("an augmenting path has an odd number of edges")
        for i, e in enumerate(states):
            if e.matched != (i % 2 == 1):
                raise NotAugmentingError(
                    f"edge {e.endpoints} breaks the unmatched/matched alternation"
                )
        if not (self.is_free(walk[0]) and self.is_free(walk[-1])):
            raise NotAugmentingError("both endpoints of an augmenting path must be free")
        blocked = [e.endpoints for e in states if e.etype >= self.budget]
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
    ) -> tuple[dict[int, dict[int, EdgeState]], list[int]]:
        """The searchable view of the component of ``seeds`` in G*.

        G* is the graph of unspent edges without the walls, the vertices
        whose matched edge is spent: no augmenting path can visit a wall,
        since it would have to cross that edge. Returns the adjacency of
        the vertices reachable from ``seeds`` in G*, each row listing the
        vertex's unspent edges, and the free vertices among them. A wall
        gets no row and is not expanded, so a search skips it as a neighbor
        without a row.
        """
        budget, rows, mate = self.budget, self.rows, self.mate
        adj: dict[int, dict[int, EdgeState]] = {}
        roots: list[int] = []
        queue = deque(s for s in seeds if s in rows)
        seen = set(queue)
        while queue:
            v = queue.popleft()
            v_rows, partner = rows[v], mate.get(v)
            if partner is None:
                roots.append(v)
            elif v_rows[partner].etype >= budget:
                continue  # a wall
            row = adj[v] = {}
            for nbr, e in v_rows.items():
                if e.etype >= budget:
                    continue
                row[nbr] = e
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return adj, roots

    def validate(self) -> None:
        """Assert internal invariants (meant for tests)."""
        for e in self.edges.values():
            assert 0 <= e.etype <= self.budget, f"edge {e.endpoints} type out of range"
        mates: dict[int, int] = {}
        for e in self.edges.values():
            if e.matched:
                for v, w in ((e.u, e.v), (e.v, e.u)):
                    assert v not in mates, f"vertex {v} matched twice"
                    mates[v] = w
        assert mates == self.mate, "partner map out of sync"
        # the rows list exactly the live edges, each in both directions
        listed = {(a, b, e) for a, row in self.rows.items() for b, e in row.items()}
        live = {(*pair, e) for pair, e in self.edges.items()}
        live |= {(v, u, e) for u, v, e in live}
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
    g: Graph, opt: dict[int, int], seeds: Iterable[int], *, cap: int | None = None
) -> list[list[int]]:
    """The walks of the augmenting components of ALG ^ OPT through ``seeds``.

    ALG is ``g.mate`` and OPT the partner map ``opt``. A vertex is in the
    difference when its two partners differ, and a walk that reached it over
    an edge of one matching leaves it over the other's. A component is kept
    when it is an augmenting path of at most ``cap`` edges (any length when
    ``cap`` is None) with no spent edge, one of type >= ``g.budget``. Edges
    are read with ``g.edge``, so an OPT pair that is no live edge raises
    ``UnknownEdgeError``. Each vertex is judged once: a walk gives up when
    its component fails a test or reaches a judged vertex, one that an
    earlier walk settled, or its own seed around a cycle.

    Dropping a component with a spent edge loses nothing that cutting it at
    that edge would give, since a stub cut off at a spent edge is never
    augmenting. Its cut end touched the dropped edge: if that was ALG's, the
    end is matched in ALG; if OPT's, the end keeps its ALG edge in the stub,
    or the stub is a single vertex. The returned components share no vertex,
    so the order in which they are applied does not matter.
    """
    alg, budget = g.mate, g.budget
    judged: set[int] = set()

    def walk_from(v: int) -> list[int] | None:
        """The walk of ``v``'s component, or None once it fails a test."""
        halves: list[list[int]] = [[], []]  # vertices walked out of v on each side
        length = 0
        for side, cur in enumerate((alg.get(v), opt.get(v))):
            prev = v
            while cur is not None:
                if cur in judged:
                    return None
                judged.add(cur)
                halves[side].append(cur)
                length += 1
                if g.edge(prev, cur).etype >= budget or cap is not None and length > cap:
                    return None
                prev, cur = cur, (opt if alg.get(cur) == prev else alg).get(cur)
        return halves[0][::-1] + [v] + halves[1]

    walks: list[list[int]] = []
    for v in seeds:
        if v not in judged and alg.get(v) != opt.get(v):
            judged.add(v)
            walk = walk_from(v)
            if walk is not None and is_augmenting(g, walk):
                walks.append(walk)
    return walks
