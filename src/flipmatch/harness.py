"""Replay streams, run matcher-vs-opponent duels, and emit the bound table.

Everything here is measurement plumbing: it feeds events to a matcher, reads
the offline optimum from the matcher's board (checking it by brute force on
small boards), records per-step sizes and ratios, and counts how often a
matcher strays above its guarantee (which must be never).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import bounds
from .adversaries import MOVE_CAP, ScriptedAdversary
from .algos import OnlineMatcher
from .core import (
    ARRIVAL,
    ARRIVE,
    FULL,
    MODELS,
    Event,
    Graph,
    arrive,
    depart,
)
from .oracle import BRUTE_FORCE_EDGE_LIMIT, brute_force_max_matching


class BadStreamError(ValueError):
    """A stream file line did not parse."""

    code = "bad-stream"


class OracleDriftError(RuntimeError):
    """The incremental optimum disagreed with exhaustive search."""

    code = "oracle-drift"


def ratio_of(alg_size: int, opt_size: int) -> float:
    """opt/alg with the two degenerate corners pinned down.

    An empty prefix (both zero) counts as ratio 1 so it can never trip an
    assertion; a starved matcher against a nonempty optimum is infinitely bad.
    """
    if alg_size == 0:
        return 1.0 if opt_size == 0 else math.inf
    return opt_size / alg_size


# ----------------------------------------------------------------------
# reports


@dataclass
class StepRecord:
    """Sizes and ratio right after one step (an event, or one opponent move)."""

    step: int
    event: str
    alg_size: int
    opt_size: int
    ratio: float
    total_flips: int
    phase: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    """Everything a replay or duel measured."""

    records: list[StepRecord] = field(default_factory=list)
    bound: float | None = None
    bound_violations: int = 0
    stop_reason: str | None = None
    witnessed: float | None = None

    @property
    def final_ratio(self) -> float:
        return self.records[-1].ratio if self.records else 1.0

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.records), default=1.0)

    @property
    def final_sizes(self) -> tuple[int, int]:
        if not self.records:
            return (0, 0)
        last = self.records[-1]
        return (last.alg_size, last.opt_size)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "summary": {
                "final_ratio": self.final_ratio,
                "max_ratio": self.max_ratio,
                "bound": self.bound,
                "bound_violations": self.bound_violations,
                "stop_reason": self.stop_reason,
                "witnessed": self.witnessed,
            },
        }


def _run(matcher: OnlineMatcher, batches: Iterable[Sequence[Event]]) -> RunReport:
    """Feed each batch of events to a matcher, then score it: one record per batch.

    The only loop that applies events. The optimum is checked by brute force
    on small boards and against the matching's size on every board.
    """
    g = matcher.graph
    # under unrestricted removals every matcher can be starved, so no
    # guarantee applies
    report = RunReport(bound=None if g.model == FULL else matcher.guarantee())
    for batch in batches:
        for ev in batch:
            if ev.action == ARRIVE:
                matcher.on_arrival(ev)
            else:
                matcher.on_departure(ev)
        alg, opt = g.matching_size(), matcher.oracle.size
        if len(g.edges) <= BRUTE_FORCE_EDGE_LIMIT:
            exact = brute_force_max_matching(g.edges)
            if exact != opt:
                raise OracleDriftError(f"incremental optimum {opt}, exhaustive {exact}")
        if opt < alg:
            raise OracleDriftError(f"optimum {opt} fell below the matching size {alg}")
        ratio = ratio_of(alg, opt)
        report.records.append(
            StepRecord(
                step=len(report.records) + 1,
                event="; ".join(map(str, batch)),
                alg_size=alg,
                opt_size=opt,
                ratio=ratio,
                total_flips=g.total_flips,
                phase=matcher.phase,
            )
        )
        if report.bound is not None and ratio > report.bound + 1e-9:
            report.bound_violations += 1
    return report


def replay(stream: Iterable[Event], matcher: OnlineMatcher) -> RunReport:
    """Feed a fixed event stream to a matcher, one record per event.

    The matcher's graph refuses an illegal event before anything changes:
    a duplicate arrival raises DuplicateEdgeError, a self-loop
    SelfLoopError, the departure of an edge not on the board
    UnknownEdgeError, and a departure the graph's model forbids
    IllegalEventError (any departure under the arrival model, and the
    departure of a matched edge under the limited model).
    """
    return _run(matcher, ((ev,) for ev in stream))


def duel(
    adversary: ScriptedAdversary, matcher: OnlineMatcher, max_moves: int = 10_000
) -> RunReport:
    """Let an adaptive opponent drive the matcher; one record per move.

    Runs until the opponent stops on its own or ``max_moves`` is reached.
    Hitting the cap is reported as the stop reason, never raised, also when
    the opponent's script would have ended on exactly that move: the
    opponent is not resumed after its last allowed move, so it never reads
    the matcher's reply to it (the string game's configuration never runs
    ahead of the board). The report's witnessed ratio is opt/alg at the
    final position.
    """
    bounds.require_int(max_moves, 1, "move cap")
    report = _run(matcher, islice(adversary.play(matcher), max_moves))
    report.stop_reason = MOVE_CAP if len(report.records) == max_moves else adversary.outcome
    if report.records:
        report.witnessed = report.final_ratio
    return report


# ----------------------------------------------------------------------
# bound table


TABLE_HEADER = "k,LB(arr.),LB(arr./dep.),L-Greedy,AMP-improved,AMP-original"


def emit_bound_table(k_range: Iterable[int]) -> str:
    """CSV of the known lower and upper bounds, one row per even budget.

    Fixed six-decimal formatting keeps the output byte-identical across runs.
    """
    ks = sorted(set(k_range))
    for k in ks:
        bounds.require_int(k, 4, "table row budget", bounds.BadBudgetError, even=True)
    lines = [TABLE_HEADER]
    for k in ks:
        cells = (
            bounds.det_lower_bound(k),
            bounds.dep_lower_bound(k),
            bounds.lgreedy_bound(k),
            bounds.amp_bound_improved(k),
            bounds.amp_bound_original(k),
        )
        lines.append(f"{k}," + ",".join(f"{cell:.6f}" for cell in cells))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# stream files


@dataclass(frozen=True)
class StreamFile:
    """A parsed instance file: budget, departure model, and the events."""

    k: int
    model: str
    events: tuple[Event, ...]


def parse_stream(text: str) -> StreamFile:
    """Read the line-based instance format.

    Two header lines (`k <int>` and `model <arrival|limited|full>`, each
    once, either order) precede the events; `+ u v` is an arrival, `- u v` a
    departure, and lines starting with `#` or blank lines are skipped.
    """
    k: int | None = None
    model: str | None = None
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("k", "model") and len(parts) == 2:
            if events:
                raise BadStreamError(f"line {lineno}: header after events")
            if (k if parts[0] == "k" else model) is not None:
                raise BadStreamError(f"line {lineno}: repeated `{parts[0]}` header")
            if parts[0] == "model":
                if parts[1] not in MODELS:
                    raise BadStreamError(f"line {lineno}: unknown model {parts[1]!r}")
                model = parts[1]
                continue
            k = _written_int(parts[1])
            if k is None:
                raise BadStreamError(f"line {lineno}: bad budget {parts[1]!r}")
            if k < 1:
                raise BadStreamError(f"line {lineno}: budget must be at least 1, got {k}")
            continue
        if parts[0] in ("+", "-") and len(parts) == 3:
            u, v = _written_int(parts[1]), _written_int(parts[2])
            if u is None or v is None:
                raise BadStreamError(f"line {lineno}: bad endpoints {line!r}")
            if u <= 0 or v <= 0:
                raise BadStreamError(f"line {lineno}: vertex ids must be positive")
            if u == v:
                raise BadStreamError(f"line {lineno}: self-loop at vertex {u}")
            events.append(arrive(u, v) if parts[0] == "+" else depart(u, v))
            continue
        raise BadStreamError(f"line {lineno}: cannot parse {line!r}")
    if k is None or model is None:
        raise BadStreamError("missing `k` or `model` header")
    return StreamFile(k=k, model=model, events=tuple(events))


def _written_int(token: str) -> int | None:
    """``token``'s integer if it reads exactly as ``str`` writes that integer,
    else None: ``int`` alone also takes ``+4``, ``01``, ``1_0`` and non-ASCII
    digits, which would name the same vertex two ways."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def write_stream(k: int, model: str, events: Iterable[Event]) -> str:
    """Inverse of parse_stream; ends with a newline.

    The text is parsed back before it is returned, so ``parse_stream`` alone
    holds the format's rules: input it would refuse or read differently
    raises ``BadStreamError``.
    """
    events = tuple(events)
    text = "\n".join([f"k {k}", f"model {model}", *map(str, events)]) + "\n"
    if parse_stream(text) != StreamFile(k=k, model=model, events=events):
        raise BadStreamError(f"k={k!r}, model={model!r} and the events do not read back")
    return text


# ----------------------------------------------------------------------
# randomized churn for the regression suite


DEPART_CHANCE = 0.35  # share of churn events that try a departure first


def _random_events(
    rng: random.Random, g: Graph, n_events: int, max_vertices: int, max_edges: int
) -> Iterator[Event]:
    """Draw up to ``n_events`` events, each against the board ``g`` as it is.

    The live edges are capped at ``max_edges`` and at the number of vertex
    pairs, so below the cap a free pair always exists and an arrival is
    redrawn until it finds one. Departures respect the board's model: under
    the limited model only unmatched edges can leave. The draws end early
    only when the board is at its cap and no edge may leave.
    """
    bounds.require_int(n_events, 0, "n_events")
    bounds.require_int(max_vertices, 2, "max_vertices")
    bounds.require_int(max_edges, 1, "max_edges")
    cap = min(max_edges, max_vertices * (max_vertices - 1) // 2)
    model = g.model
    for _ in range(n_events):
        # g.edges is in arrival order, which rng.choice relies on
        removable = [pair for pair, e in g.edges.items() if model == FULL or not e.matched]
        can_depart = model != ARRIVAL and removable
        if can_depart and (rng.random() < DEPART_CHANCE or len(g.edges) >= cap):
            yield depart(*rng.choice(removable))
            continue
        if len(g.edges) >= cap:
            return
        while True:
            u, v = rng.sample(range(1, max_vertices + 1), 2)
            if not g.has_edge(u, v):
                break
        yield arrive(*((u, v) if u < v else (v, u)))


def random_arrival_stream(
    rng: random.Random,
    n_events: int,
    max_vertices: int = 20,
    max_edges: int = 24,
) -> list[Event]:
    """Random arrival-only stream staying inside the brute-force envelope."""
    g = Graph(1, ARRIVAL)
    events = []
    for ev in _random_events(rng, g, n_events, max_vertices, max_edges):
        g.add_edge(ev.u, ev.v)
        events.append(ev)
    return events


def random_churn(
    rng: random.Random,
    matcher: OnlineMatcher,
    n_events: int,
    max_vertices: int = 20,
    max_edges: int = 24,
) -> RunReport:
    """Drive a matcher with random arrivals and legal random departures.

    Each event is drawn from the board the previous one left, so under the
    limited model only edges the matcher has left unmatched can leave.
    """
    return replay(_random_events(rng, matcher.graph, n_events, max_vertices, max_edges), matcher)
