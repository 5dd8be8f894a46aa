"""The flipmatch benchmark.

    python3 benchmarks/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. It measures one workload for about
``--seconds`` seconds as a series of passes, each in a fresh interpreter
started one at a time (``worker.py``), checks every unit's output, and
prints the metrics as the last line of standard output, one JSON object.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the passes alternate between traced and untraced, and the metrics are the
per-layer ones of the traced passes plus the tracing overhead.

Workloads, and why each is here:

* ``chain`` -- ``greedy_lb_stream(6, 300)`` replayed against greedy with the
  referee's cross-check on. Every event walks one growing component, so
  the oracle's insert and search and greedy's component view dominate.
* ``string_duel`` -- the k=8 string game against greedy, L-Greedy and AMP
  in the limited model. L-Greedy's whole-graph symmetric difference
  dominates; the adversary's bookkeeping sits on the blocking path.
* ``churn`` -- 200 seeds x 3 matchers x 40 random events at k=8 in the
  limited model. Boards stay within 24 edges, so brute force dominates
  and whole-component walks are cheap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES = {
    "chain": {"k": 6, "n": 300},
    "string_duel": {"k": 8},
    "churn": {"k": 8, "seeds": 200, "events": 40},
}
TOY_SIZES = {
    "chain": {"k": 6, "n": 10},
    "string_duel": {"k": 6},
    "churn": {"k": 8, "seeds": 3, "events": 40},
}

DEADLINE_S = 170  # a run must end within 180 s

MATCHERS = ("greedy", "lgreedy", "amp")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed output check)."""


# ----------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, size: dict, trace: bool, timeout: float) -> dict:
    spec = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "spawned": time.monotonic(),
    }
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"a {workload} pass exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=SIZES) -> dict:
    """Run passes while the next one is expected to end within ``seconds``.

    There is at least one pass, and one of each kind when tracing.
    """
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - started
        have_all = plain and (traced or not trace)
        if have_all and elapsed + statistics.median(durations) > seconds:
            break
        want_trace = trace and len(traced) <= len(plain)
        result = run_pass(
            workload, seed, sizes[workload], want_trace, DEADLINE_S - elapsed
        )
        (traced if want_trace else plain).append(result)
        durations.append(time.monotonic() - started - elapsed)
    return {"plain": plain, "traced": traced}


# ----------------------------------------------------------------------
# metrics


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[dict]) -> dict:
    """Throughput over all passes; step percentiles, set-up and memory as
    medians over passes, which damps a pass slowed by a busy machine."""

    def median_of(value) -> float:
        return statistics.median(value(p) for p in passes)

    return {
        "events_per_s": (
            sum(p["events"] for p in passes) / sum(p["wall_s"] for p in passes),
            "1/s",
        ),
        "step_p50_ms": (median_of(lambda p: 1e3 * nearest_rank(p["steps_s"], 0.50)), "ms"),
        "step_p99_ms": (median_of(lambda p: 1e3 * nearest_rank(p["steps_s"], 0.99)), "ms"),
        "setup_s": (median_of(lambda p: p["setup_s"]), "s"),
        "peak_rss_mb": (median_of(lambda p: p["rss_mb"]), "MB"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    s, c = p["self_s"], p["counts"]
    t = lambda layer: s.get(layer, 0.0)  # noqa: E731
    n = lambda key: c.get(key, 0)  # noqa: E731
    out = {
        "harness.self_s": (t("harness"), "s"),
        "harness.records": (n("harness.records"), "count"),
    }
    for m in MATCHERS:
        out[f"algos.{m}.self_s"] = (t(f"algos.{m}"), "s")
        out[f"algos.{m}.calls"] = (n(f"algos.{m}.calls"), "count")
    out["algos.augmentations"] = (n("algos.augmentations"), "count")
    out["algos.flips"] = (n("algos.flips"), "count")
    for who in ("matcher", "oracle"):
        searches = n(f"blossom.{who}_searches")
        out[f"blossom.{who}_search_s"] = (t(f"blossom.{who}_search"), "s")
        out[f"blossom.{who}_searches"] = (searches, "count")
        out[f"blossom.{who}_found_ratio"] = (
            _share(n(f"blossom.{who}_found"), searches),
            "ratio",
        )
        out[f"blossom.{who}_view_vertices"] = (
            _share(n(f"blossom.{who}_view_vertices"), searches),
            "vertices/search",
        )
    out["blossom.oracle_roots_offered"] = (
        _share(n("blossom.oracle_roots_offered"), n("blossom.oracle_searches")),
        "roots/search",
    )
    hits, misses = n("oracle.brute_force_cache_hits"), n("oracle.brute_force_cache_misses")
    out.update(
        {
            "oracle.referee_s": (t("oracle.referee"), "s"),
            "oracle.matcher_s": (t("oracle.matcher"), "s"),
            "oracle.inserts": (n("oracle.inserts"), "count"),
            "oracle.deletes": (n("oracle.deletes"), "count"),
            "oracle.grew_ratio": (_share(n("oracle.grew"), n("oracle.inserts")), "ratio"),
            "oracle.brute_force_s": (t("oracle.brute_force"), "s"),
            "oracle.brute_force_calls": (n("oracle.brute_force_calls"), "count"),
            "oracle.brute_force_cache_hits": (hits, "count"),
            "oracle.brute_force_cache_misses": (misses, "count"),
            "oracle.brute_force_cache_hit_ratio": (_share(hits, hits + misses), "ratio"),
            "oracle.brute_force_cache_entries": (
                n("oracle.brute_force_cache_entries"),
                "count",
            ),
            "core.component_view_s": (t("core.component_view"), "s"),
            "core.component_views": (n("core.component_views"), "count"),
            "core.component_view_vertices": (
                _share(n("core.component_view_vertices"), n("core.component_views")),
                "vertices/view",
            ),
            "core.symmetric_difference_s": (t("core.symmetric_difference"), "s"),
            "core.symmetric_differences": (n("core.symmetric_differences"), "count"),
            "core.sd_components": (n("core.sd_components"), "count"),
            "core.apply_path_s": (t("core.apply_path"), "s"),
            "stringgame.play_s": (t("stringgame.play"), "s"),
            "stringgame.compile_s": (t("stringgame.compile"), "s"),
            "stringgame.moves": (n("stringgame.moves"), "count"),
            "adversaries.build_s": (t("adversaries.build"), "s"),
        }
    )
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    per_pass = [layers(p) for p in traced]
    out = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead"] = (traced_wall / plain_wall - 1, "share")
    return out


# ----------------------------------------------------------------------
# run environment


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flipmatch").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


# ----------------------------------------------------------------------


def report(workload: str, seed: int, seconds: float, trace: bool, sizes=SIZES) -> dict:
    """Measure one workload; returns the result line plus what is printed above it."""
    env = environment()
    runs = measure(workload, seed, seconds, trace, sizes)
    passes = runs["plain"] + runs["traced"]
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        failures.append("passes over the same inputs made different decisions")
        failed += 1
    attempted = sum(p["units"] for p in passes)
    metrics = per_layer(runs["plain"], runs["traced"]) if trace else end_to_end(passes)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    notes = {
        "env": env,
        "passes": [
            {k: p[k] for k in ("wall_s", "setup_s", "events", "rss_mb", "units")}
            | {"traced": "self_s" in p, "steps": len(p["steps_s"])}
            for p in passes
        ],
        "decisions": {"sha256": sorted(digests), "total_flips": passes[0]["flips"]},
        "failed_share": failed / attempted,
        "failures": failures[:20],
    }
    return {"result": result, "notes": notes, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need a non-negative seed and a positive duration")
    if not (ROOT / "src" / "flipmatch" / "__init__.py").is_file():
        print(f"no flipmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for key, value in out["notes"].items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
