"""Online matchers that spend at most ``k`` flips per edge.

Three strategies share one interface (``on_arrival`` / ``on_departure`` /
``matching`` / ``guarantee``):

* ``GreedyMatcher`` applies any available augmenting path that avoids spent
  edges. Guarantee: 3/2 for even budgets, 2 for odd.
* ``LGreedyMatcher`` tracks an optimum matching on the side and only applies
  augmenting components of the symmetric difference up to length 2L+1.
* ``AmpMatcher`` waits until the optimum grows by a factor ``r`` and then
  syncs its whole matching to the optimum, skipping spent edges.

Odd budgets: the two bookkeeping matchers reserve the last flip and run on an
even effective budget of ``k - 1``; plain greedy uses all ``k`` flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from . import bounds
from .blossom import find_augmenting_path
from .core import (
    AUGMENTING_PATH,
    FULL,
    AlternatingComponent,
    Event,
    Graph,
    symmetric_difference,
)
from .oracle import OracleState


class OnlineMatcher(Protocol):
    """What the harness expects from a matcher."""

    name: str
    graph: Graph
    model: str  # the departure model of the streams it is fed
    phase: int | None  # the phase a phased matcher is in, else None

    def on_arrival(self, event: Event) -> None: ...

    def on_departure(self, event: Event) -> None: ...

    def matching(self) -> set[int]: ...

    def params(self) -> dict: ...

    def guarantee(self) -> float | None:
        """Proven worst-case opt/alg ratio while matched edges stay, or None."""
        ...


class NegativeEndpointWeightError(ValueError):
    """The ledger was asked to hand an endpoint a negative weight."""

    code = "negative-endpoint-weight"


class OddBudgetError(ValueError):
    """The doubling matcher's bookkeeping needs an even budget."""

    code = "odd-budget"


def effective_budget(k: int) -> int:
    """Even budget the bookkeeping matchers actually spend: k, or k-1 if odd."""
    if k % 2 == 0:
        return k
    if k == 1:
        raise bounds.BadBudgetError("bookkeeping matchers need a budget of at least 2")
    return k - 1


# ----------------------------------------------------------------------
# greedy


class GreedyMatcher:
    """Apply augmenting paths greedily whenever one is available."""

    name = "greedy"
    phase = None

    def __init__(self, k: int, model: str = FULL):
        self.graph = Graph(k)
        self.model = model
        self.augmentations = 0

    def params(self) -> dict:
        return {"k": self.graph.budget}

    def guarantee(self) -> float:
        return bounds.greedy_bound(self.graph.budget)

    def matching(self) -> set[int]:
        return self.graph.matching()

    def on_arrival(self, event: Event) -> None:
        u, v = event.endpoints
        self.graph.add_edge(u, v)
        self._exhaust((u, v))

    def on_departure(self, event: Event) -> None:
        g = self.graph
        e = g.remove_edge(g.edge_id(*event.endpoints), self.model)
        if e.matched:
            # only a departure that tore out a matched edge can open new paths
            self._exhaust(e.endpoints)

    def _exhaust(self, seeds: tuple[int, int]) -> None:
        g = self.graph
        allowed = lambda eid: g.edges[eid].etype < g.budget
        while True:
            vertices, adj = g.component_view(seeds, allowed)
            mate = {}
            for v in vertices:
                eid = g.matched_edge_at(v)
                if eid is not None:
                    mate[v] = g.edges[eid].other(v)
            walk = find_augmenting_path(adj, mate)
            if walk is None:
                return
            g.apply_augmenting_path(g.component_from_vertices(walk))
            self.augmentations += 1


# ----------------------------------------------------------------------
# bounded-length greedy over the symmetric difference


class WeightLedger:
    """Per-vertex weights that certify the bounded-length matcher's ratio.

    Applying a path of length 2l+1 hands each of the 2l interior vertices an
    extra ``alpha`` and each endpoint ``1/2 - l*alpha``, so the path total is
    exactly 1 and the ledger sum always equals the matching size.  An
    uncapped matcher (``L=None``) has nothing to amortise: alpha is 0 and
    endpoints simply split each path's unit weight.
    """

    def __init__(self, k: int, L: int | None):
        self.k = k
        self.L = L
        self.alpha = 0.0 if L is None else 1 / (2 * k * (L + 2) - 4)
        self.weights: dict[int, float] = {}

    def total(self) -> float:
        return sum(self.weights.values())

    def distribute(self, g: Graph, component: AlternatingComponent) -> None:
        ell = len(component.edges) // 2
        endpoint_share = 0.5 - ell * self.alpha
        if endpoint_share < 0:
            raise NegativeEndpointWeightError(
                f"path of half-length {ell} would hand endpoints {endpoint_share}"
            )
        walk, _ = g._walk(component.edges)
        for v in walk[1:-1]:
            self.weights[v] = self.weights.get(v, 0.0) + self.alpha
        for v in (walk[0], walk[-1]):
            self.weights[v] = self.weights.get(v, 0.0) + endpoint_share


def lgreedy_step(
    g: Graph, oracle: OracleState, L: int | None, banned_at: int | None = None
) -> AlternatingComponent | None:
    """Apply one short augmenting component of the symmetric difference.

    Candidates are augmenting-path components of ``matching ^ optimum`` of
    length at most 2L+1 (any length when L is None) that carry no spent
    edge. Spent edges are *not* excluded from the decomposition itself -- a
    long or blocked component stays whole and simply disqualifies itself.
    """
    threshold = g.budget if banned_at is None else banned_at
    components = symmetric_difference(g, g.matching(), oracle.opt)
    candidates = [
        c
        for c in components
        if c.kind == AUGMENTING_PATH
        and (L is None or len(c.edges) <= 2 * L + 1)
        and all(g.edge(eid).etype < threshold for eid in c.edges)
    ]
    if not candidates:
        return None
    candidates.sort(key=lambda c: (len(c.edges), c.type_string, min(c.edges)))
    chosen = candidates[0]
    g.apply_augmenting_path(chosen)
    return chosen


class LGreedyMatcher:
    """Greedy restricted to short augmenting components of ALG ^ OPT.

    The default cap is the one the ratio formula optimises; budget 4 gets no
    cap at all (its best ratio is plain greedy's 3/2, so capping only hurts)
    and budgets below 4 fall back to single-edge steps.
    """

    name = "lgreedy"
    phase = None

    def __init__(self, k: int, L: int | None = None, model: str = FULL):
        self.graph = Graph(k)
        self.model = model
        self.k_eff = effective_budget(k)
        if L is None and self.k_eff >= 6:
            L = bounds.lgreedy_default_L(self.k_eff)
        elif L is None and self.k_eff < 4:
            L = 1
        self.L = L
        self.oracle = OracleState()
        self.ledger = WeightLedger(self.k_eff, self.L)

    def params(self) -> dict:
        return {"k": self.graph.budget, "L": self.L, "k_eff": self.k_eff}

    def guarantee(self) -> float | None:
        return None if self.k_eff < 4 else bounds.lgreedy_bound(self.k_eff, self.L)

    def matching(self) -> set[int]:
        return self.graph.matching()

    def on_arrival(self, event: Event) -> None:
        u, v = event.endpoints
        eid = self.graph.add_edge(u, v)
        self.oracle.insert(eid, u, v)
        self._exhaust()

    def on_departure(self, event: Event) -> None:
        g = self.graph
        eid = g.edge_id(*event.endpoints)
        g.remove_edge(eid, self.model)
        self.oracle.delete(eid)
        self._exhaust()

    def _exhaust(self) -> None:
        while True:
            applied = lgreedy_step(self.graph, self.oracle, self.L, self.k_eff)
            if applied is None:
                return
            self.ledger.distribute(self.graph, applied)


# ----------------------------------------------------------------------
# phase-doubling matcher


@dataclass
class PhaseRecord:
    """Snapshot taken when a phase opens (right after the sync)."""

    phase: int
    ell: int
    opt_size: int
    alg_size: int
    spent_vertices: int


@dataclass
class AmpState:
    """Bookkeeping of the doubling matcher: growth factor, phase, level."""

    k: int
    r: float
    phase: int = 0
    ell: int | None = None
    oracle: OracleState = field(default_factory=OracleState)
    history: list[PhaseRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.k % 2 != 0:
            raise OddBudgetError(f"doubling matcher needs an even budget, got {self.k}")
        if self.r <= 1:
            raise ValueError(f"growth factor must exceed 1, got {self.r}")


def floor_log(value: int, r: float) -> int:
    """Largest integer level with r**level <= value, robust to float noise."""
    if value <= 0:
        raise ValueError("level is only defined for positive sizes")
    est = math.floor(math.log(value) / math.log(r) + 1e-9)
    while r ** (est + 1) <= value * (1 + 1e-12):
        est += 1
    while est > 0 and r**est > value * (1 + 1e-12):
        est -= 1
    return est


def _spent_vertex_count(g: Graph, threshold: int) -> int:
    spent: set[int] = set()
    for e in g.edges.values():
        if e.etype >= threshold:
            spent.update(e.endpoints)
    return len(spent)


class AmpMatcher:
    """Resync to the optimum whenever it grows by the factor ``r``."""

    name = "amp"

    def __init__(self, k: int, r: float | None = None, model: str = FULL):
        self.graph = Graph(k)
        self.model = model
        k_eff = effective_budget(k)
        if r is None:
            r = bounds.amp_default_r(k_eff) if k_eff >= 4 else 2.0
        self.state = AmpState(k_eff, r)

    @property
    def r(self) -> float:
        return self.state.r

    @property
    def phase(self) -> int:
        return self.state.phase

    @property
    def history(self) -> list[PhaseRecord]:
        return self.state.history

    def params(self) -> dict:
        return {"k": self.graph.budget, "r": self.state.r, "k_eff": self.state.k}

    def guarantee(self) -> float | None:
        k_eff = self.state.k
        return None if k_eff < 4 else bounds.amp_bound(k_eff, self.state.r)

    def matching(self) -> set[int]:
        return self.graph.matching()

    def on_arrival(self, event: Event) -> None:
        u, v = event.endpoints
        eid = self.graph.add_edge(u, v)
        self.state.oracle.insert(eid, u, v)
        self._maybe_open_phase()

    def on_departure(self, event: Event) -> None:
        g = self.graph
        eid = g.edge_id(*event.endpoints)
        g.remove_edge(eid, self.model)
        self.state.oracle.delete(eid)
        self._maybe_open_phase()

    def _maybe_open_phase(self) -> None:
        state, g = self.state, self.graph
        opt = state.oracle.size
        if opt == 0:
            return
        ell = floor_log(opt, state.r)
        if state.ell is not None and ell <= state.ell:
            return
        state.phase += 1
        state.ell = ell
        self._sync()
        state.history.append(
            PhaseRecord(
                phase=state.phase,
                ell=ell,
                opt_size=opt,
                alg_size=g.matching_size(),
                spent_vertices=_spent_vertex_count(g, state.k),
            )
        )

    def _sync(self) -> None:
        """Grow the matching to the optimum's size, leaving spent edges alone.

        Only augmenting components are applied: even paths and cycles of the
        difference would merely move the matching onto other edges at the same
        size, spending flips for nothing.
        """
        g, state = self.graph, self.state
        components = symmetric_difference(g, g.matching(), state.oracle.opt, blocked_at=state.k)
        augmenting = [c for c in components if c.kind == AUGMENTING_PATH]
        for component in sorted(augmenting, key=lambda c: min(c.edges)):
            g.apply_augmenting_path(component)


MATCHERS = {
    "greedy": GreedyMatcher,
    "lgreedy": LGreedyMatcher,
    "amp": AmpMatcher,
}


def make_matcher(algo: str, k: int, model: str = FULL, **kwargs) -> OnlineMatcher:
    try:
        cls = MATCHERS[algo]
    except KeyError:
        raise ValueError(f"unknown matcher {algo!r}; pick one of {sorted(MATCHERS)}") from None
    return cls(k, model=model, **kwargs)
