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

Odd budgets: the two bookkeeping matchers reserve the last flip, so their board
is built at the even budget ``k - 1`` and refuses a walk over an edge of type
``k - 1``; plain greedy's board holds all ``k`` flips.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from . import bounds
from .blossom import find_augmenting_path
from .core import FULL, EdgeState, Event, Graph, symmetric_difference
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
        arrived = self.graph.add_edge(event.u, event.v)
        self.oracle.insert(arrived.u, arrived.v)
        self._react(arrived.endpoints, None)

    def on_departure(self, event: Event) -> None:
        departed = self.graph.remove_edge(event.u, event.v)
        self.oracle.delete(departed.u, departed.v)
        self._react(departed.endpoints, departed)

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
    """Even budget a bookkeeping matcher builds its board at: k, or k-1 if odd."""
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
        """Apply the augmenting paths the event opened (see ``_exhaust``).

        An arrival uv between two free vertices is matched without a view or
        a search, as it is the only augmenting path of G* + uv. The new edge
        has type 0 and a free vertex is never a wall, so uv lies in G*. Any
        augmenting path uses uv, since M* was maximum in G* before it, and
        the free u and v must then be the path's two ends, so the path is uv
        itself. The search would fail from every root but u and v and return
        ``[u, v]`` from the smaller one, which is ``ends``.
        """
        mate = self.graph.mate
        if departed is None and ends[0] not in mate and ends[1] not in mate:
            self.graph.apply_augmenting_path(ends)
            self.augmentations += 1
        elif departed is None or departed.matched:
            # only a departure that tore out a matched edge can open new paths
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

    ALG ^ OPT is not stored: ``core.symmetric_difference`` walks it from
    ``graph.mate`` and ``oracle.mate``. An event changes the two maps only at
    the event edge's ends and at the vertices the oracle's repair moved, and
    ``_exhaust`` applies every candidate, so no candidate outlives an event:
    each event walks only the components through those vertices.
    """

    name = "lgreedy"

    def __init__(self, k: int, L: int | None = None, model: str = FULL):
        if L is not None:
            bounds.require_int(L, 0, "length cap L")
        k = effective_budget(k)
        super().__init__(k, model)
        if L is None and k >= 6:
            L = bounds.lgreedy_default_L(k)
        elif L is None and k < 4:
            L = 1
        self.L = L
        self.ledger = WeightLedger(k, L)

    def guarantee(self) -> float | None:
        k = self.graph.budget
        return None if k < 4 else bounds.lgreedy_bound(k, self.L)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        """Apply the candidates the event opened.

        The event's ends are walked even when the optimum did not move: a
        departing matched edge outside the optimum frees both its endpoints,
        which can turn the two pieces of its old component into short
        augmenting paths.
        """
        cap = None if self.L is None else 2 * self.L + 1
        seeds = self.oracle.moved.union(ends)
        self._exhaust(symmetric_difference(self.graph, self.oracle.mate, seeds, cap=cap))

    def _exhaust(self, candidates: list[list[int]]) -> None:
        """Apply every candidate walk, in the order found.

        Candidates share no vertex (see ``core.symmetric_difference``), so
        the order cannot change the board or the ledger.
        """
        for walk in candidates:
            self.graph.apply_augmenting_path(walk)
            self.ledger.distribute(walk)


# ----------------------------------------------------------------------
# phase-doubling matcher


@dataclass
class PhaseRecord:
    """Snapshot taken when a phase opens (right after the sync); phase p's
    record is ``history[p - 1]``."""

    ell: int
    opt_size: int
    alg_size: int
    spent_vertices: int


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


def _spent_vertex_count(g: Graph) -> int:
    return len({v for e in g.edges.values() if e.etype >= g.budget for v in e.endpoints})


class AmpMatcher(OnlineMatcher):
    """Resync to the optimum whenever it grows by the factor ``r``.

    ``history`` holds one ``PhaseRecord`` per opened phase, so the phase is
    its length and the current level is the last record's ``ell``.
    """

    name = "amp"

    def __init__(self, k: int, r: float | None = None, model: str = FULL):
        k = effective_budget(k)
        super().__init__(k, model)
        if r is None:
            r = bounds.amp_default_r(k) if k >= 4 else 2.0
        bounds.require_growth(r)
        self.r = r
        self.history: list[PhaseRecord] = []

    @property
    def phase(self) -> int:
        return len(self.history)

    @property
    def state(self) -> AmpMatcher:
        """The matcher itself: ``benchmarks/worker.py`` reads
        ``matcher.state.oracle``. The alias goes with the next change to the
        benchmark (ROADMAP items 3 and 16)."""
        return self

    def guarantee(self) -> float | None:
        k = self.graph.budget
        return None if k < 4 else bounds.amp_bound(k, self.r)

    def _react(self, ends: tuple[int, int], departed: EdgeState | None) -> None:
        """Open a phase and sync once the optimum has grown by the factor ``r``."""
        opt = self.oracle.size
        if opt == 0:
            return
        ell = floor_log(opt, self.r)
        if self.history and ell <= self.history[-1].ell:
            return
        self._sync()
        g = self.graph
        self.history.append(
            PhaseRecord(
                ell=ell,
                opt_size=opt,
                alg_size=g.matching_size(),
                spent_vertices=_spent_vertex_count(g),
            )
        )

    def _sync(self) -> None:
        """Grow the matching to the optimum's size, leaving spent edges alone.

        Only augmenting components are applied: even paths and cycles of the
        difference would merely move the matching onto other edges at the same
        size, spending flips for nothing.
        """
        g, opt = self.graph, self.oracle.mate
        # every vertex either map covers; the walk skips those whose partners agree
        for walk in symmetric_difference(g, opt, g.mate.keys() | opt.keys()):
            g.apply_augmenting_path(walk)


def amp_phase_violations(matcher: AmpMatcher) -> list[str]:
    """Check the doubling matcher's per-phase floor and spent-vertex cap.

    Each opened phase p from p = k+1 on, with k the board's budget, must
    satisfy alg_size > r^level(p) - r^(level(p-k+1)+1) and must carry at most
    2*opt(p-k+1) vertices whose budget is exhausted. Returns one message per
    violated record; an empty list means the trace is clean.
    """
    k, r, history = matcher.graph.budget, matcher.r, matcher.history
    problems = []
    for p in range(k + 1, len(history) + 1):
        record, past = history[p - 1], history[p - k]  # phases p and p-k+1
        floor = r**record.ell - r ** (past.ell + 1)
        if record.alg_size <= floor - 1e-9:
            problems.append(
                f"phase {p}: matching size {record.alg_size} "
                f"at or below the floor {floor:.6f}"
            )
        if record.spent_vertices > 2 * past.opt_size:
            problems.append(
                f"phase {p}: {record.spent_vertices} spent vertices "
                f"exceed twice the old optimum {past.opt_size}"
            )
    return problems


MATCHERS = {cls.name: cls for cls in (GreedyMatcher, LGreedyMatcher, AmpMatcher)}


def make_matcher(algo: str, k: int, model: str = FULL, **kwargs) -> OnlineMatcher:
    try:
        cls = MATCHERS[algo]
    except KeyError:
        raise bounds.BadParamsError(
            f"unknown matcher {algo!r}; pick one of {sorted(MATCHERS)}"
        ) from None
    if kwargs:  # reading the signature costs more than building a matcher
        unknown = sorted(kwargs.keys() - inspect.signature(cls).parameters.keys())
        if unknown:
            raise bounds.BadParamsError(f"matcher {algo!r} takes no option {', '.join(unknown)}")
    return cls(k, model=model, **kwargs)
