"""Dynamic graph state for matching with per-edge flip budgets.

Every edge carries a flip counter (its *type*). A fresh edge starts at type 0
and is not in the matching. Each time an augmentation walks over the edge the
counter goes up by one and the edge toggles in or out of the matching, so an
edge is matched exactly when its type is odd. Once the counter reaches the
budget ``k`` the edge is frozen for good -- we call it *blocked*.

The module also knows how to decompose the symmetric difference of two
matchings into alternating components (paths and cycles) and how to apply an
augmenting path back onto the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, KeysView, Sequence

from .bounds import BadBudgetError

# Departure models for event streams.
ARRIVAL = "arrival"
LIMITED = "limited"
FULL = "full"
MODELS = (ARRIVAL, LIMITED, FULL)

# Component kinds.
AUGMENTING_PATH = "augmenting-path"
EVEN_PATH = "even-path"
CYCLE = "cycle"

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


class UnknownVertexError(GraphError):
    code = "unknown-vertex"


class LimitedDepartureViolation(GraphError):
    """A matched edge tried to leave under the limited departure model."""

    code = "limited-departure-violation"


class BlockedPathError(GraphError):
    """An augmenting path touches an edge whose flip budget is exhausted."""

    code = "blocked-path"


class NotAugmentingError(GraphError):
    code = "not-augmenting"


class NotAMatchingError(GraphError):
    code = "not-a-matching"


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
    """A live edge: identity, endpoints, flip counter, matched flag."""

    id: int
    u: int
    v: int
    etype: int = 0
    matched: bool = False

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise UnknownVertexError(f"vertex {vertex} is not an endpoint of edge {self.id}")


@dataclass
class AlternatingComponent:
    """A path or cycle whose edges alternate between two matchings.

    ``edges`` is the ordered edge-id walk, ``type_string`` the canonical type
    sequence and ``surplus`` the number of currently-unmatched minus
    currently-matched edges on it (``+1`` for an augmenting path).
    """

    kind: str
    edges: tuple[int, ...]
    type_string: tuple[int, ...]
    surplus: int = 0

    def __len__(self) -> int:
        return len(self.edges)


class Graph:
    """Mutable graph with flip-budget matching state.

    Vertices are integers; they come into existence with their first incident
    edge and persist even after all incident edges are gone. At most one live
    edge per vertex pair; a pair that re-arrives after departing is a brand
    new edge starting at type 0.
    """

    def __init__(self, budget: int):
        if not isinstance(budget, int) or budget < 1:
            raise BadBudgetError(f"budget must be an integer >= 1, got {budget!r}")
        self.budget = budget
        self.edges: dict[int, EdgeState] = {}
        self.total_flips = 0
        self._adj: dict[int, dict[int, int]] = {}  # vertex -> {neighbor: edge id}
        self._pair: dict[tuple[int, int], int] = {}  # live (u, v) with u < v -> edge id
        self._mate: dict[int, int] = {}  # vertex -> matched edge id
        self._next_id = 0

    # ------------------------------------------------------------------
    # basic queries

    @property
    def vertices(self) -> KeysView[int]:
        """Every vertex that has had an edge (a read-only view)."""
        return self._adj.keys()

    def edge(self, edge_id: int) -> EdgeState:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"no live edge with id {edge_id}") from None

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._pair[key]
        except KeyError:
            raise UnknownEdgeError(f"no live edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._pair

    def neighbors(self, v: int) -> dict[int, int]:
        """Live neighbors of ``v`` mapped to the connecting edge id."""
        return self._adj.get(v, {})

    def is_free(self, v: int) -> bool:
        return v not in self._mate

    def matching(self) -> set[int]:
        return {e.id for e in self.edges.values() if e.matched}

    def matching_size(self) -> int:
        return len(self._mate) // 2

    # ------------------------------------------------------------------
    # mutation

    def add_edge(self, u: int, v: int) -> int:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self._pair:
            raise DuplicateEdgeError(f"edge between {u} and {v} is already live")
        eid = self._next_id
        self._next_id += 1
        self.edges[eid] = EdgeState(eid, key[0], key[1])
        self._pair[key] = eid
        for a, b in ((u, v), (v, u)):
            self._adj.setdefault(a, {})[b] = eid
        return eid

    def remove_edge(self, edge_id: int, model: str = FULL) -> EdgeState:
        e = self.edge(edge_id)
        if model == ARRIVAL:
            raise GraphError("edges never depart under the arrival model")
        if model == LIMITED and e.matched:
            raise LimitedDepartureViolation(
                f"edge {edge_id} is matched and cannot depart under the limited model"
            )
        if e.matched:
            del self._mate[e.u]
            del self._mate[e.v]
        del self.edges[edge_id]
        del self._pair[(e.u, e.v)]
        del self._adj[e.u][e.v]
        del self._adj[e.v][e.u]
        return e

    def _flip_all(self, states: Sequence[EdgeState]) -> None:
        """Toggle a set of edges atomically (leaving edges first, then entering)."""
        for e in states:
            e.etype += 1
            self.total_flips += 1
            e.matched = not e.matched
        for e in states:
            if not e.matched:
                for v in e.endpoints:
                    if self._mate.get(v) == e.id:
                        del self._mate[v]
        for e in states:
            if e.matched:
                self._mate[e.u] = e.id
                self._mate[e.v] = e.id

    # ------------------------------------------------------------------
    # component construction

    def _walk(self, edge_ids: Sequence[int]) -> tuple[list[int], bool]:
        """Vertex walk realizing ``edge_ids`` in order; returns (walk, is_cycle)."""
        if not edge_ids:
            raise GraphError("empty component")
        states = [self.edge(eid) for eid in edge_ids]
        if len(states) == 1:
            return [states[0].u, states[0].v], False
        # orient the first edge so that it chains into the second
        first, second = states[0], states[1]
        shared = set(first.endpoints) & set(second.endpoints)
        if not shared:
            raise GraphError("edges do not form a contiguous walk")
        start = first.other(next(iter(shared)))
        walk = [start]
        cur = start
        for st in states:
            nxt = st.other(cur)
            walk.append(nxt)
            cur = nxt
        is_cycle = walk[0] == walk[-1] and len(edge_ids) >= 3
        seen = walk[:-1] if is_cycle else walk
        if len(set(seen)) != len(seen):
            raise GraphError("walk revisits a vertex")
        return walk, is_cycle

    def component_from_edges(self, edge_ids: Sequence[int]) -> AlternatingComponent:
        """Build a component from an ordered edge walk, classified against the
        graph's current matching."""
        walk, is_cycle = self._walk(edge_ids)
        states = [self.edge(eid) for eid in edge_ids]
        surplus = sum(1 for e in states if not e.matched) - sum(1 for e in states if e.matched)
        if is_cycle:
            kind = CYCLE
        else:
            odd = len(states) % 2 == 1
            free_ends = self.is_free(walk[0]) and self.is_free(walk[-1])
            kind = AUGMENTING_PATH if odd and free_ends else EVEN_PATH
        return _oriented_component(self, kind, edge_ids, surplus)

    def component_from_vertices(self, walk: Sequence[int]) -> AlternatingComponent:
        edge_ids = [self.edge_id(a, b) for a, b in zip(walk, walk[1:])]
        return self.component_from_edges(edge_ids)

    # ------------------------------------------------------------------
    # applying augmenting paths

    def apply_augmenting_path(
        self, component: AlternatingComponent | Sequence[int]
    ) -> AlternatingComponent:
        """Flip every edge along an augmenting path (+1 matched edge).

        Accepts either a component or an ordered edge-id walk. Validates the
        path against the *current* state: edges alternate unmatched/matched,
        both end vertices are free, and no edge is blocked.
        """
        if not isinstance(component, AlternatingComponent):
            component = self.component_from_edges(list(component))
        states = [self.edge(eid) for eid in component.edges]
        walk, is_cycle = self._walk(component.edges)
        if is_cycle or len(states) % 2 == 0:
            raise NotAugmentingError("an augmenting path has an odd number of edges")
        for i, e in enumerate(states):
            want = i % 2 == 1
            if e.matched != want:
                raise NotAugmentingError(
                    f"edge {e.id} breaks the unmatched/matched alternation"
                )
        if not (self.is_free(walk[0]) and self.is_free(walk[-1])):
            raise NotAugmentingError("both endpoints of an augmenting path must be free")
        blocked = [e.id for e in states if e.etype >= self.budget]
        if blocked:
            raise BlockedPathError(f"edges {blocked} have exhausted their flip budget")
        self._flip_all(states)
        return component

    # ------------------------------------------------------------------
    # views and checks

    def component_view(
        self, seeds: Iterable[int]
    ) -> tuple[set[int], dict[int, dict[int, int]], dict[int, int]]:
        """The searchable view of the component of ``seeds`` over unspent edges.

        Returns the vertices reachable from ``seeds`` over edges whose flip
        budget is not spent, their adjacency over those edges, and the partner
        of every matched vertex among them. A vertex whose matched edge is
        spent keeps its partner but not the edge, which makes it a wall for
        ``blossom.find_augmenting_path``.
        """
        budget, edges, rows, matched = self.budget, self.edges, self._adj, self._mate
        seen: set[int] = set()
        adj: dict[int, dict[int, int]] = {}
        mate: dict[int, int] = {}
        queue = deque(s for s in seeds if s in rows)
        seen.update(queue)
        while queue:
            v = queue.popleft()
            row = adj[v] = {}
            matched_edge = matched.get(v)
            for nbr, eid in rows[v].items():
                if eid == matched_edge:
                    mate[v] = nbr
                if edges[eid].etype >= budget:
                    continue
                row[nbr] = eid
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return seen, adj, mate

    def validate(self) -> None:
        """Assert internal invariants (meant for tests)."""
        for e in self.edges.values():
            assert 0 <= e.etype <= self.budget, f"edge {e.id} type out of range"
            assert e.matched == (e.etype % 2 == 1), f"edge {e.id} parity broken"
        mates: dict[int, int] = {}
        for e in self.edges.values():
            if e.matched:
                for v in e.endpoints:
                    assert v not in mates, f"vertex {v} matched twice"
                    mates[v] = e.id
        assert mates == self._mate, "matched-vertex index out of sync"


# ----------------------------------------------------------------------
# module-level operations


def canonical_type_string(types: Sequence[int], *, cycle: bool = False) -> tuple[int, ...]:
    """Canonical form of a type sequence.

    Paths compare the sequence with its reversal and keep the smaller one.
    Cycles take the lexicographic minimum over all rotations of both
    directions, so any two walks around the same cycle agree.
    """
    seq = tuple(types)
    if not cycle:
        return min(seq, tuple(reversed(seq)))
    best = None
    for direction in (seq, tuple(reversed(seq))):
        for shift in range(len(direction)):
            rotated = direction[shift:] + direction[:shift]
            if best is None or rotated < best:
                best = rotated
    return best if best is not None else ()


def _check_matching(g: Graph, edge_ids: set[int], label: str) -> None:
    covered: set[int] = set()
    for eid in edge_ids:
        e = g.edge(eid)
        for v in e.endpoints:
            if v in covered:
                raise NotAMatchingError(f"{label} covers vertex {v} twice")
            covered.add(v)


def symmetric_difference(
    g: Graph,
    alg: set[int],
    opt: set[int],
    *,
    blocked_at: int | None = None,
) -> list[AlternatingComponent]:
    """Decompose ``alg ^ opt`` into alternating paths and cycles.

    Both arguments are edge-id sets and must each form a matching. Components
    are classified against ``alg``: an augmenting path has odd length and both
    end vertices uncovered by ``alg``. With ``blocked_at`` set, edges whose
    type has reached it are dropped first, which may split components into
    shorter stubs.

    The result is deterministic: paths are walked from their smaller end
    vertex, components are sorted by (smallest vertex, type string).
    """
    _check_matching(g, alg, "alg")
    _check_matching(g, opt, "opt")
    sym = alg ^ opt
    if blocked_at is not None:
        sym = {eid for eid in sym if g.edge(eid).etype < blocked_at}

    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in sym:
        e = g.edge(eid)
        adj.setdefault(e.u, []).append((e.v, eid))
        adj.setdefault(e.v, []).append((e.u, eid))
    for v in adj:
        adj[v].sort()
        assert len(adj[v]) <= 2, "two matchings give max degree 2"

    alg_covered: set[int] = set()
    for eid in alg:
        alg_covered.update(g.edge(eid).endpoints)

    done_edges: set[int] = set()
    walks: list[tuple[str, list[int]]] = []  # (kind, edge ids)

    def walk_from(start: int) -> tuple[list[int], list[int]]:
        """Walk until a dead end or back to start; returns (vertices, edges)."""
        verts = [start]
        eids: list[int] = []
        cur = start
        while True:
            step = None
            for nbr, eid in adj[cur]:
                if eid not in done_edges:
                    step = (nbr, eid)
                    break
            if step is None:
                break
            nbr, eid = step
            done_edges.add(eid)
            eids.append(eid)
            verts.append(nbr)
            cur = nbr
            if cur == start:
                break
        return verts, eids

    endpoints = sorted(v for v, rows in adj.items() if len(rows) == 1)
    for start in endpoints:
        if all(eid in done_edges for _, eid in adj[start]):
            continue
        verts, eids = walk_from(start)
        odd = len(eids) % 2 == 1
        free_ends = verts[0] not in alg_covered and verts[-1] not in alg_covered
        kind = AUGMENTING_PATH if odd and free_ends else EVEN_PATH
        walks.append((kind, eids))
    for start in sorted(adj):
        if all(eid in done_edges for _, eid in adj[start]):
            continue
        verts, eids = walk_from(start)
        assert verts[0] == verts[-1], "leftover component must be a cycle"
        walks.append((CYCLE, eids))

    components = [
        _oriented_component(g, kind, eids, sum(1 if eid in opt else -1 for eid in eids))
        for kind, eids in walks
    ]
    components.sort(key=lambda c: (min(g.edge(e).u for e in c.edges), c.type_string))
    return components


def _oriented_component(
    g: Graph, kind: str, eids: Sequence[int], surplus: int
) -> AlternatingComponent:
    """A component whose paths are walked from the end with the smaller type string."""
    types = tuple(g.edge(eid).etype for eid in eids)
    ordered = tuple(eids)
    if kind != CYCLE and types[::-1] < types:
        ordered = ordered[::-1]
    canonical = canonical_type_string(types, cycle=kind == CYCLE)
    return AlternatingComponent(kind, ordered, canonical, surplus)
