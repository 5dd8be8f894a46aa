"""Online matchers that spend at most ``k`` flips per edge.

Three strategies share one base class, ``OnlineMatcher``, which owns the
board (the graph and its offline optimum) and is the only code that applies
an event; each strategy reacts to an applied event in ``_react``:

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

from . import bounds
from .blossom import find_augmenting_path
from .core import FULL, EdgeState, Event, Graph, is_augmenting, symmetric_difference
from .oracle import OracleState


class OnlineMatcher:
    """One board per run: the matcher's graph and the optimum over its rows.

    ``on_arrival`` and ``on_departure`` apply an event to the graph, report
    it to the oracle, which searches the graph's own rows, then hand it to
    ``_react``. The graph, which holds the departure model, is the only
    check on an event: an event it refuses reaches neither the oracle nor
    ``_react``. The harness scores the matcher against ``oracle`` instead of
    keeping a copy.
    """

    name: str
    phase: int | None = None  # the phase a phased matcher is in, else None

    def __init__(self, k: int, model: str = FULL):
        self.graph = Graph(k, model)
        self.oracle = OracleState(self.graph.rows)

    def on_arrival(self, event: Event) -> None:
        u, v = event.endpoints
        self.graph.add_edge(u, v)
        self.oracle.insert(u, v)
        self._react((u, v), None)

    def on_departure(self, event: Event) -> None:
        g = self.graph
        departed = g.remove_edge(g.edge_id(*event.endpoints))
        self.oracle.delete(departed.u, departed.v)
        self._react(event.endpoints, departed)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        """Respond to the edge at ``ends`` arriving, or leaving as ``departed``."""
        raise NotImplementedError

    def guarantee(self) -> float | None:
        """Proven worst-case opt/alg ratio while matched edges stay, or None."""
        raise NotImplementedError


class NegativeEndpointWeightError(ValueError):
    """The ledger was asked to hand an endpoint a negative weight."""

    code = "negative-endpoint-weight"


def effective_budget(k: int) -> int:
    """Even budget the bookkeeping matchers actually spend: k, or k-1 if odd."""
    bounds.require_int(k, 2, "a bookkeeping matcher's budget", bounds.BadBudgetError)
    return k - k % 2


# ----------------------------------------------------------------------
# greedy


class GreedyMatcher(OnlineMatcher):
    """Apply augmenting paths greedily whenever one is available."""

    name = "greedy"

    def __init__(self, k: int, model: str = FULL):
        super().__init__(k, model)
        self.augmentations = 0

    def guarantee(self) -> float:
        return bounds.greedy_bound(self.graph.budget)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        # only a departure that tore out a matched edge can open new paths
        if departed is None or departed.matched:
            spent = departed is not None and departed.etype >= self.graph.budget
            self._exhaust(ends, 2 if spent else 1)

    def _exhaust(self, seeds: tuple[int, int], paths: int) -> None:
        """Apply up to ``paths`` augmenting paths found from ``seeds``, one at a time.

        Let G* be the unspent edges without the walls (vertices whose matched
        edge is spent) and M* the matched edges in G*. M* stays maximum in G*
        after every event. An arrival adds one edge and the departure of an
        unspent matched edge removes one matched edge, so either leaves
        ν(G*) <= |M*| + 1, and one augmentation reaches it. The edges that path
        spends keep M* maximum: a spent unmatched edge leaves G*, which cannot
        raise ν, and a spent matched edge walls its two ends, which lowers ν
        and |M*| by one each. A departing spent matched edge turns two walls
        back into vertices of G*, which can raise ν by two, hence ``paths`` of
        2 there. A further search could only confirm that no path is left.

        A path has two distinct free ends, and the board has at most
        ``len(g.rows) - len(g.mate)`` free vertices (every vertex is a key of
        the rows; walls stay in ``mate``), so with fewer than two no view is
        built.
        """
        g = self.graph
        for _ in range(paths):
            if len(g.rows) - len(g.mate) < 2:
                return  # too few free vertices on the whole board
            adj, roots = g.component_view(seeds)
            if len(roots) < 2:
                return  # an augmenting path needs two free ends
            walk = find_augmenting_path(adj, g.mate, roots)
            if walk is None:
                return
            g.apply_augmenting_path(walk)
            self.augmentations += 1


# ----------------------------------------------------------------------
# bounded-length greedy over the symmetric difference


class WeightLedger:
    """Per-vertex weights that certify the bounded-length matcher's ratio.

    Applying a path of length 2l+1 hands each of the 2l interior vertices an
    extra ``alpha`` and each endpoint ``1/2 - l*alpha``, so the path total is
    exactly 1. In the arrival and limited models, where no matched edge
    departs, the ledger sum therefore equals the matching size. In the full
    model a departing matched edge keeps its endpoints' weights, so the sum
    can exceed it. An uncapped matcher (``L=None``) has nothing to amortise:
    alpha is 0 and endpoints simply split each path's unit weight.
    """

    def __init__(self, k: int, L: int | None):
        self.alpha = 0.0 if L is None else 1 / (2 * k * (L + 2) - 4)
        self.weights: dict[int, float] = {}

    def total(self) -> float:
        return sum(self.weights.values())

    def distribute(self, walk: list[int]) -> None:
        """Hand out the unit weight of the augmenting path ``walk``."""
        ell = (len(walk) - 1) // 2
        endpoint_share = 0.5 - ell * self.alpha
        if endpoint_share < 0:
            raise NegativeEndpointWeightError(
                f"path of half-length {ell} would hand endpoints {endpoint_share}"
            )
        for v in walk[1:-1]:
            self.weights[v] = self.weights.get(v, 0.0) + self.alpha
        for v in (walk[0], walk[-1]):
            self.weights[v] = self.weights.get(v, 0.0) + endpoint_share


class LGreedyMatcher(OnlineMatcher):
    """Greedy restricted to short augmenting components of ALG ^ OPT.

    The default cap is the one the ratio formula optimises; budget 4 gets no
    cap at all (its best ratio is plain greedy's 3/2, so capping only hurts)
    and budgets below 4 fall back to single-edge steps.

    ALG ^ OPT is not stored: it is read from the two partner maps,
    ``graph.mate`` and ``oracle.mate``. A vertex is in it exactly when its
    two partners differ, and a walk that reached a vertex over an edge of
    one matching leaves it over the other's. An event changes the two maps
    only at the event edge's ends and at the vertices the oracle's repair
    moved, and ``_exhaust`` applies every candidate it is handed, so no
    candidate outlives an event: each event walks only the components
    through those vertices.
    """

    name = "lgreedy"

    def __init__(self, k: int, L: int | None = None, model: str = FULL):
        if L is not None:
            bounds.require_int(L, 0, "length cap L")
        super().__init__(k, model)
        self.k_eff = effective_budget(k)
        if L is None and self.k_eff >= 6:
            L = bounds.lgreedy_default_L(self.k_eff)
        elif L is None and self.k_eff < 4:
            L = 1
        self.L = L
        self.ledger = WeightLedger(self.k_eff, self.L)

    def guarantee(self) -> float | None:
        return None if self.k_eff < 4 else bounds.lgreedy_bound(self.k_eff, self.L)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        """Apply the candidates the event opened.

        The event's ends are walked even when the optimum did not move: a
        departing matched edge outside the optimum frees both its endpoints,
        which can turn the two pieces of its old component into short
        augmenting paths.
        """
        alg, opt = self.graph.mate, self.oracle.mate
        judged: set[int] = set()
        found = [
            self._candidate_at(v, judged)
            for v in self.oracle.moved.union(ends)
            if alg.get(v) != opt.get(v)
        ]
        self._exhaust([c for c in found if c is not None])

    def _candidate_at(self, v: int, judged: set[int]) -> list[int] | None:
        """The walk of the component of ALG ^ OPT through ``v`` if it is a candidate.

        Candidates are augmenting paths of length at most 2L+1 (any length
        when L is None) without a spent edge. The walk gives up as soon as
        the component fails one of these, or reaches a vertex in ``judged``:
        one whose component an earlier walk already settled, or ``v`` again
        when the component is a cycle. Every vertex it visits joins
        ``judged``.
        """
        g, alg, opt = self.graph, self.graph.mate, self.oracle.mate
        if v in judged:
            return None
        judged.add(v)
        cap = None if self.L is None else 2 * self.L + 1
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
                if g.edges[g.rows[prev][cur]].etype >= self.k_eff:
                    return None  # spent
                if cap is not None and length > cap:
                    return None
                prev, cur = cur, (opt if alg.get(cur) == prev else alg).get(cur)
        walk = halves[0][::-1] + [v] + halves[1]
        return walk if is_augmenting(g, walk) else None

    def _exhaust(self, candidates: list[list[int]]) -> None:
        """Apply every candidate walk, in the order found.

        Candidates are distinct components of D = ALG ^ OPT, so they share no
        vertex. Applying one leaves exactly D minus its edges and touches no
        other candidate's edges, types or end coverage, so the order cannot
        change the board or the ledger.
        """
        for walk in candidates:
            self.graph.apply_augmenting_path(walk)
            self.ledger.distribute(walk)


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
    """Bookkeeping of the doubling matcher: even budget, growth factor, phases.

    The phase count is ``len(history)`` and the current level is the last
    record's ``ell``.
    """

    k: int
    r: float
    oracle: OracleState | None = None  # the matcher's board optimum
    history: list[PhaseRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 < self.r < math.inf:  # refuses nan too
            raise bounds.BadParamsError(f"growth factor must be finite and exceed 1, got {self.r}")


def floor_log(value: int, r: float) -> int:
    """Largest integer level with r**level <= value, robust to float noise."""
    if value <= 0:
        raise bounds.BadParamsError(f"level is only defined for positive sizes, got {value}")
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


class AmpMatcher(OnlineMatcher):
    """Resync to the optimum whenever it grows by the factor ``r``."""

    name = "amp"

    def __init__(self, k: int, r: float | None = None, model: str = FULL):
        super().__init__(k, model)
        k_eff = effective_budget(k)
        if r is None:
            r = bounds.amp_default_r(k_eff) if k_eff >= 4 else 2.0
        self.state = AmpState(k_eff, r, oracle=self.oracle)

    @property
    def r(self) -> float:
        return self.state.r

    @property
    def phase(self) -> int:
        return len(self.state.history)

    @property
    def history(self) -> list[PhaseRecord]:
        return self.state.history

    def guarantee(self) -> float | None:
        k_eff = self.state.k
        return None if k_eff < 4 else bounds.amp_bound(k_eff, self.state.r)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        """Open a phase and sync once the optimum has grown by the factor ``r``."""
        state, g = self.state, self.graph
        opt = self.oracle.size
        if opt == 0:
            return
        ell = floor_log(opt, state.r)
        if state.history and ell <= state.history[-1].ell:
            return
        self._sync()
        state.history.append(
            PhaseRecord(
                phase=len(state.history) + 1,
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
        walks = symmetric_difference(g, g.mate, self.oracle.mate, blocked_at=state.k)
        for walk in walks:
            if is_augmenting(g, walk):
                g.apply_augmenting_path(walk)


MATCHERS = {
    "greedy": GreedyMatcher,
    "lgreedy": LGreedyMatcher,
    "amp": AmpMatcher,
}


def make_matcher(algo: str, k: int, model: str = FULL, **kwargs) -> OnlineMatcher:
    try:
        cls = MATCHERS[algo]
    except KeyError:
        raise bounds.BadParamsError(
            f"unknown matcher {algo!r}; pick one of {sorted(MATCHERS)}"
        ) from None
    return cls(k, model=model, **kwargs)
