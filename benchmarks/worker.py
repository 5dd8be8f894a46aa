"""One benchmark pass, in a fresh interpreter.

Started by ``run.py`` as ``python3 benchmarks/worker.py <json spec>``. It
imports flipmatch from the checkout's ``src/``, builds every input, matcher
and adversary of the workload, then feeds them through the public entry
points (``replay``, ``duel``, ``random_churn``) one unit at a time, checks
each unit's output, and prints one JSON object with the pass's timings.

A fresh interpreter per pass keeps the brute-force memo of
``flipmatch.oracle`` cold, as it is for every ``flipmatch`` command.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Unit:
    """One replay, one duel or one seeded churn run, with its output check."""

    label: str
    entry: Callable  # the public flipmatch function that runs the unit
    args: tuple
    check: Callable  # RunReport -> list of problems, empty when the output is right


def import_flipmatch():
    sys.path.insert(0, str(SRC))
    import flipmatch

    if SRC not in Path(flipmatch.__file__).resolve().parents:
        raise ImportError(f"flipmatch was imported from {flipmatch.__file__}, not {SRC}")
    return flipmatch


# ----------------------------------------------------------------------
# workloads


def chain_units(fm, seed: int, k: int, n: int, build) -> list[Unit]:
    """The greedy starvation chain, its vertices relabelled by ``seed``.

    A relabelling changes the order in which greedy meets the vertices but
    not the terminal sizes, which the stream forces for any labels.
    """
    stream = build(fm.greedy_lb_stream, k, n)
    labels = sorted({v for ev in stream for v in ev.endpoints})
    shuffled = list(labels)
    random.Random(seed).shuffle(shuffled)
    rename = dict(zip(labels, shuffled))
    stream = [fm.arrive(rename[ev.u], rename[ev.v]) for ev in stream]
    matcher = fm.GreedyMatcher(k, fm.ARRIVAL)
    want = (2 * n + k, 3 * n + k)

    def check(report) -> list[str]:
        problems = []
        if report.final_sizes != want:
            problems.append(f"final sizes {report.final_sizes}, want {want}")
        if report.bound_violations:
            problems.append(f"{report.bound_violations} bound violations")
        return problems

    return [Unit(f"chain k={k} n={n}", fm.replay, (stream, matcher), check)]


def string_duel_units(fm, seed: int, k: int, build) -> list[Unit]:
    """The k-budget string game against each matcher.

    The seed is not used: the adversary is deterministic, and its moves
    depend only on the matcher's replies. The duel order is fixed too,
    because the duels share the pass's brute-force memo and heap, and the
    order moves peak memory.
    """
    floor = fm.dep_lower_bound(k)
    units = []
    for name in ("greedy", "lgreedy", "amp"):
        adversary = build(fm.string_game_adversary, k)
        matcher = fm.make_matcher(name, k, fm.LIMITED)

        def check(report, adversary=adversary, matcher=matcher) -> list[str]:
            problems = []
            if report.stop_reason not in (fm.SCRIPT_COMPLETE, fm.MATCHER_STALLED):
                problems.append(f"stopped by {report.stop_reason}")
            if report.witnessed is None or report.witnessed < floor - 1e-9:
                problems.append(f"witnessed {report.witnessed} below the floor {floor}")
            if not fm.config_matches_graph(adversary.cfg, matcher.graph):
                problems.append("the board no longer realises the string configuration")
            if report.bound_violations:
                problems.append(f"{report.bound_violations} bound violations")
            return problems

        units.append(Unit(f"string k={k} {name}", fm.duel, (adversary, matcher), check))
    return units


def churn_units(fm, seed: int, k: int, seeds: int, events: int, build) -> list[Unit]:
    """Seeded random churn in the limited model, seeds ``seed*seeds`` onwards."""
    units = []
    for s in range(seed * seeds, (seed + 1) * seeds):
        for name in ("greedy", "lgreedy", "amp"):
            matcher = fm.make_matcher(name, k, fm.LIMITED)

            def check(report, matcher=matcher) -> list[str]:
                problems = []
                if report.bound_violations:
                    problems.append(f"{report.bound_violations} bound violations")
                if isinstance(matcher, fm.AmpMatcher):
                    problems.extend(fm.amp_phase_violations(matcher))
                    matcher.state.oracle.verify()
                if isinstance(matcher, fm.LGreedyMatcher):
                    matcher.oracle.verify()
                matcher.graph.validate()
                return problems

            args = (random.Random(s), matcher, events)
            units.append(Unit(f"churn seed={s} {name}", fm.random_churn, args, check))
    return units


WORKLOADS = {
    "chain": chain_units,
    "string_duel": string_duel_units,
    "churn": churn_units,
}


# ----------------------------------------------------------------------
# one pass


def events_in(report) -> int:
    """Arrivals plus departures: a duel record's label joins its batch with '; '."""
    return sum(len([p for p in r.event.split("; ") if p]) for r in report.records)


def run_pass(spec: dict) -> dict:
    fm = import_flipmatch()
    from flipmatch import harness

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def build(fn, *args):
        return tracer.wrap("adversaries.build", fn)(*args) if tracer else fn(*args)

    units = WORKLOADS[spec["workload"]](fm, spec["seed"], build=build, **spec["size"])

    # a step ends when its RunReport record is made
    stamps: list[float] = []

    class TimedStepRecord(harness.StepRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stamps.append(perf_counter())

    harness.StepRecord = TimedStepRecord

    steps: list[float] = []
    events = flips = failed = 0
    failures: list[str] = []
    digests: dict[str, str] = {}
    setup_s = time.monotonic() - spec["spawned"]
    wall_s = 0.0
    for unit in units:
        entry = tracer.wrap("harness", unit.entry) if tracer else unit.entry
        start = perf_counter()
        del stamps[:]
        try:
            report = entry(*unit.args)
        except Exception as exc:  # a unit that raises is a failed unit
            wall_s += perf_counter() - start
            failed += 1
            failures.append(f"{unit.label}: raised {type(exc).__name__}: {exc}")
            continue
        wall_s += perf_counter() - start
        steps.extend(b - a for a, b in zip([start] + stamps, stamps))
        events += events_in(report)
        if report.records:
            flips += report.records[-1].total_flips
        try:
            problems = unit.check(report)
        except AssertionError as exc:
            problems = [f"invariant broke: {exc}"]
        failed += bool(problems)
        failures.extend(f"{unit.label}: {p}" for p in problems)
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        digests[unit.label] = hashlib.sha256(blob).hexdigest()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "events": events,
        "steps_s": steps,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": len(units),
        "failed": failed,
        "failures": failures,
        "flips": flips,
        "digest": hashlib.sha256(
            "".join(digests[k] for k in sorted(digests)).encode()
        ).hexdigest(),
    }
    if tracer:
        cache = fm.oracle._component_max.cache_info()
        counts = dict(tracer.counts)
        counts.update(
            {
                "harness.records": len(steps),
                "algos.flips": flips,
                "stringgame.moves": sum(
                    u.args[0].moves for u in units if u.entry is fm.duel
                ),
                "oracle.brute_force_cache_hits": cache.hits,
                "oracle.brute_force_cache_misses": cache.misses,
                "oracle.brute_force_cache_entries": cache.currsize,
            }
        )
        result["self_s"] = dict(tracer.self_s)
        result["root_s"] = tracer.root_s
        result["counts"] = counts
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
