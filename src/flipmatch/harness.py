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
from typing import Iterable

from . import bounds
from .adversaries import MOVE_CAP, ScriptedAdversary
from .algos import AmpMatcher, OnlineMatcher
from .core import (
    ARRIVAL,
    ARRIVE,
    FULL,
    MODELS,
    Event,
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


class _Recorder:
    """Feeds events to a matcher and scores it against its board's optimum."""

    def __init__(self, matcher: OnlineMatcher):
        self.matcher = matcher
        # under unrestricted removals every matcher can be starved, so no
        # guarantee applies
        full = matcher.graph.model == FULL
        self.report = RunReport(bound=None if full else matcher.guarantee())

    def feed(self, ev: Event) -> None:
        if ev.action == ARRIVE:
            self.matcher.on_arrival(ev)
        else:
            self.matcher.on_departure(ev)

    def snapshot(self, label: str) -> StepRecord:
        g = self.matcher.graph
        alg = g.matching_size()
        opt = self.matcher.oracle.size
        if len(g.edges) <= BRUTE_FORCE_EDGE_LIMIT:
            exact = brute_force_max_matching(e.endpoints for e in g.edges.values())
            if exact != opt:
                raise OracleDriftError(f"incremental optimum {opt}, exhaustive {exact}")
        if opt < alg:
            raise OracleDriftError(f"optimum {opt} fell below the matching size {alg}")
        ratio = ratio_of(alg, opt)
        record = StepRecord(
            step=len(self.report.records) + 1,
            event=label,
            alg_size=alg,
            opt_size=opt,
            ratio=ratio,
            total_flips=g.total_flips,
            phase=self.matcher.phase,
        )
        self.report.records.append(record)
        bound = self.report.bound
        if bound is not None and ratio > bound + 1e-9:
            self.report.bound_violations += 1
        return record


def replay(stream: Iterable[Event], matcher: OnlineMatcher) -> RunReport:
    """Feed a fixed event stream to a matcher, one record per event.

    The matcher's graph refuses an illegal event before anything changes:
    a duplicate arrival raises DuplicateEdgeError, a self-loop
    SelfLoopError, the departure of an edge not on the board
    UnknownEdgeError, and a departure the graph's model forbids
    IllegalEventError (any departure under the arrival model, and the
    departure of a matched edge under the limited model).
    """
    rec = _Recorder(matcher)
    for ev in stream:
        rec.feed(ev)
        rec.snapshot(str(ev))
    return rec.report


def duel(
    adversary: ScriptedAdversary, matcher: OnlineMatcher, max_moves: int = 10_000
) -> RunReport:
    """Let an adaptive opponent drive the matcher; one record per move.

    Runs until the opponent stops on its own or ``max_moves`` is reached.
    Hitting the cap is reported as the stop reason, never raised. The report's
    witnessed ratio is opt/alg at the final position.
    """
    bounds.require_int(max_moves, 1, "move cap")
    rec = _Recorder(matcher)
    moves = 0
    capped = False
    for batch in adversary.play(matcher):
        for ev in batch:
            rec.feed(ev)
        rec.snapshot("; ".join(str(ev) for ev in batch))
        moves += 1
        if moves >= max_moves:
            capped = True
            break
    report = rec.report
    report.stop_reason = MOVE_CAP if capped else adversary.outcome
    if report.records:
        report.witnessed = report.final_ratio
    return report


# ----------------------------------------------------------------------
# doubling-matcher trace checks


def amp_phase_violations(matcher: AmpMatcher) -> list[str]:
    """Check the doubling matcher's per-phase floor and spent-vertex cap.

    Each opened phase p late enough to have a phase p-k+1 behind it must
    satisfy alg_size > r^level(p) - r^(level(p-k+1)+1) and must carry at most
    2*opt(p-k+1) vertices whose budget is exhausted. Returns one message per
    violated record; an empty list means the trace is clean.
    """
    k, r = matcher.state.k, matcher.r
    by_phase = {record.phase: record for record in matcher.history}
    problems = []
    for record in matcher.history:
        past = by_phase.get(record.phase - k + 1)
        if record.phase < k + 1 or past is None:
            continue
        floor = r**record.ell - r ** (past.ell + 1)
        if record.alg_size <= floor - 1e-9:
            problems.append(
                f"phase {record.phase}: matching size {record.alg_size} "
                f"at or below the floor {floor:.6f}"
            )
        if record.spent_vertices > 2 * past.opt_size:
            problems.append(
                f"phase {record.phase}: {record.spent_vertices} spent vertices "
                f"exceed twice the old optimum {past.opt_size}"
            )
    return problems


# ----------------------------------------------------------------------
# bound table


TABLE_HEADER = "k,LB(arr.),LB(arr./dep.),L-Greedy,AMP-improved,AMP-original"


def emit_bound_table(k_range: Iterable[int]) -> str:
    """CSV of the known lower and upper bounds, one row per even budget.

    Fixed six-decimal formatting keeps the output byte-identical across runs.
    """
    ks = sorted(set(k_range))
    for k in ks:
        bounds.require_int(k, 4, "table row budget", even=True)
    lines = [TABLE_HEADER]
    for k in ks:
        (row,) = bounds.bound_rows(k, k)
        cells = (row.det_lb, row.dep_lb, row.lgreedy, row.amp_improved, row.amp_original)
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

    Two header lines (`k <int>` and `model <arrival|limited|full>`, either
    order) precede the events; `+ u v` is an arrival, `- u v` a departure,
    and lines starting with `#` or blank lines are skipped.
    """
    k: int | None = None
    model: str | None = None
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "k" and len(parts) == 2:
            if events:
                raise BadStreamError(f"line {lineno}: header after events")
            try:
                k = int(parts[1])
            except ValueError:
                raise BadStreamError(f"line {lineno}: bad budget {parts[1]!r}") from None
            if k < 1:
                raise BadStreamError(f"line {lineno}: budget must be at least 1, got {k}")
            continue
        if parts[0] == "model" and len(parts) == 2:
            if events:
                raise BadStreamError(f"line {lineno}: header after events")
            if parts[1] not in MODELS:
                raise BadStreamError(f"line {lineno}: unknown model {parts[1]!r}")
            model = parts[1]
            continue
        if parts[0] in ("+", "-") and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise BadStreamError(f"line {lineno}: bad endpoints {line!r}") from None
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


def random_arrival_stream(
    rng: random.Random,
    n_events: int,
    max_vertices: int = 20,
    max_edges: int = 24,
) -> list[Event]:
    """Random arrival-only stream staying inside the brute-force envelope."""
    bounds.require_int(n_events, 0, "n_events")
    bounds.require_int(max_vertices, 2, "max_vertices")
    # no more edges than the vertices have pairs, or the loop would never end
    max_edges = min(max_edges, max_vertices * (max_vertices - 1) // 2)
    present: set[tuple[int, int]] = set()
    events: list[Event] = []
    while len(events) < n_events and len(present) < max_edges:
        u, v = rng.sample(range(1, max_vertices + 1), 2)
        pair = (u, v) if u < v else (v, u)
        if pair in present:
            continue
        present.add(pair)
        events.append(arrive(*pair))
    return events


DEPART_CHANCE = 0.35  # share of churn events that try a departure first


def random_churn(
    rng: random.Random,
    matcher: OnlineMatcher,
    n_events: int,
    max_vertices: int = 20,
    max_edges: int = 24,
) -> RunReport:
    """Drive a matcher with random arrivals and legal random departures.

    Departures respect the matcher's model: under the limited model only
    edges the matcher has left unmatched can leave, so the stream is built
    move by move against the matcher's live state.
    """
    bounds.require_int(n_events, 0, "n_events")
    bounds.require_int(max_vertices, 2, "max_vertices")
    model = matcher.graph.model
    rec = _Recorder(matcher)
    for _ in range(n_events):
        g = matcher.graph
        # g.edges is in id order (no edge is re-inserted), which rng.choice relies on
        removable = [e.endpoints for e in g.edges.values() if model == FULL or not e.matched]
        can_depart = model != ARRIVAL and bool(removable)
        wants_departure = can_depart and rng.random() < DEPART_CHANCE
        if not wants_departure and len(g.edges) >= max_edges:
            if not can_depart:
                break
            wants_departure = True
        if wants_departure:
            ev = depart(*rng.choice(removable))
        else:
            pair = None
            for _attempt in range(64):
                u, v = rng.sample(range(1, max_vertices + 1), 2)
                if not g.has_edge(u, v):
                    pair = (u, v) if u < v else (v, u)
                    break
            if pair is None:
                break
            ev = arrive(*pair)
        rec.feed(ev)
        rec.snapshot(str(ev))
    return rec.report
