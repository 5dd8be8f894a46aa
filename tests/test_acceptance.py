"""Acceptance gates: every guarantee the package promises, at its tolerance.

One test per guarantee; each prints a single [PASS]/[FAIL] verdict line and
the suite exits nonzero exactly when some guarantee assertion fails.
"""

import math
import random
import time
from fractions import Fraction

from flipmatch.adversaries import (
    EXPECTATION_MISS,
    MOVE_CAP,
    SCRIPT_COMPLETE,
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from flipmatch.algos import AmpMatcher, GreedyMatcher, LGreedyMatcher, amp_phase_violations
from flipmatch.bounds import (
    amp_bound_improved,
    dep_lower_bound,
    det_lower_bound,
    greedy_bound,
    lgreedy_bound,
    lgreedy_default_L,
    lgreedy_lower_bound,
)
from flipmatch.core import ARRIVAL, ARRIVE, FULL, LIMITED, Graph, arrive, depart
from flipmatch.harness import (
    duel,
    emit_bound_table,
    random_arrival_stream,
    random_churn,
    replay,
)
from flipmatch.oracle import OracleState, brute_force_max_matching
from flipmatch.stringgame import (
    MATCHER_STALLED,
    StringGameAdversary,
    config_matches_graph,
    invariant_balance,
    invariant_threshold,
)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# the handed-down reference series for the first-published doubling guarantee
FIRST_PUBLISHED_DOUBLING = {
    4: 2.64526,
    6: 2.03971,
    8: 1.7763,
    10: 1.62664,
    12: 1.52919,
    14: 1.46023,
    16: 1.40862,
    18: 1.3684,
    20: 1.33609,
    22: 1.3095,
}


def test_bound_table_reproduction():
    t0 = time.perf_counter()
    csv = emit_bound_table(range(4, 23, 2))
    elapsed = time.perf_counter() - t0
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert len(rows) == 10
    worst_formula = 0.0
    worst_series = 0.0
    for cells in rows:
        k = int(cells[0])
        got = [float(x) for x in cells[1:]]
        expected = [
            det_lower_bound(k),
            dep_lower_bound(k),
            lgreedy_bound(k),
            amp_bound_improved(k),
        ]
        for have, want in zip(got[:4], expected):
            worst_formula = max(worst_formula, abs(have - want))
            assert abs(have - want) <= 5e-7, (k, have, want)
        series_err = abs(got[4] - FIRST_PUBLISHED_DOUBLING[k])
        worst_series = max(worst_series, series_err)
        assert series_err <= 1e-4, (k, got[4])
    verdict(
        elapsed < 1.0,
        "bound table",
        f"10 rows, formula |err| <= {worst_formula:.2e}, "
        f"reference series |err| <= {worst_series:.2e}, {elapsed:.3f}s",
    )


def test_greedy_floor_on_starvation_chains():
    # the stream forces the terminal sizes, so each ratio is exact:
    # (3n+k)/(2n+k) = 3/2 - k/(2(2n+k)) for even k, (4n+4)/(2n+3) = 2 - 2/(2n+3) at k=3
    misses = []

    def check(k: int, n: int, opt_size: int, gap: Fraction) -> float:
        t0 = time.perf_counter()
        report = replay(greedy_lb_stream(k, n), GreedyMatcher(k, ARRIVAL))
        elapsed = time.perf_counter() - t0
        alg, opt = report.final_sizes
        if (alg, opt) != (2 * n + k, opt_size):
            misses.append(f"k={k} n={n} sizes {report.final_sizes}")
        elif Fraction(opt, alg) != Fraction(greedy_bound(k)) - gap:
            misses.append(f"k={k} n={n} ratio {Fraction(opt, alg)}")
        if report.bound_violations:
            misses.append(f"k={k} n={n} {report.bound_violations} bound violations")
        return elapsed

    timed = {50: 0.0, 200: 0.0}
    gaps = {}
    for k in (2, 4, 6):
        for n in (2, 50, 200):
            gaps[k] = Fraction(k, 2 * (2 * n + k))
            elapsed = check(k, n, 3 * n + k, gaps[k])
            if n in timed:
                timed[n] += elapsed
    gaps[3] = Fraction(2, 2 * 200 + 3)
    check(3, 200, 4 * 200 + 3 + 1, gaps[3])
    # exact maintenance is quadratic in the depth here (about 16x for 4x the
    # depth); a ratio taken on the same host at the same moment does not
    # depend on the host's speed, and a cubic blow-up (about 64x) fails it
    growth = timed[200] / timed[50]
    if growth >= 32:
        misses.append(f"depth 200/50 time ratio {growth:.1f} >= 32")
    verdict(
        not misses,
        "greedy starvation floor",
        "; ".join(misses or ["sizes and ratios exact for all ten runs, no bound violations"])
        + "; at depth 200 opt/alg = "
        + ", ".join(
            f"k={k}: {greedy_bound(k)} - {gap} ({float(gap):.2e})" for k, gap in gaps.items()
        )
        + f"; depth 200/50 time {timed[200]:.2f}s/{timed[50]:.2f}s = {growth:.1f}x (limit 32)",
    )


def test_length_capped_floor_on_swing_chains():
    t0 = time.perf_counter()
    report = replay(lgreedy_lb_stream(8, 6), LGreedyMatcher(8, L=6, model=ARRIVAL))
    alg, opt = report.final_sizes
    assert alg == 11 and opt >= 12, report.final_sizes
    assert Fraction(opt, alg) == Fraction(12, 11)
    assert report.final_ratio == lgreedy_lower_bound(8, 6)
    scaled = replay(
        lgreedy_lb_stream(8, 6, copies=10), LGreedyMatcher(8, L=6, model=ARRIVAL)
    )
    assert scaled.final_sizes == (10 * alg, 10 * opt), scaled.final_sizes
    elapsed = time.perf_counter() - t0
    verdict(
        elapsed < 5.0,
        "length-capped starvation floor",
        f"one copy ends ({alg}, {opt}) at ratio {report.final_ratio:.6f} "
        f"= forced bound exactly; ten copies end {scaled.final_sizes}; {elapsed:.2f}s",
    )


def test_blocked_path_duels_witness_the_arrival_floor():
    matchers = {
        "greedy": lambda k: GreedyMatcher(k, ARRIVAL),
        "lgreedy": lambda k: LGreedyMatcher(k, model=ARRIVAL),
        "amp": lambda k: AmpMatcher(k, model=ARRIVAL),
    }
    depth = 50
    cells = []
    min_margin = math.inf
    for k in (3, 4, 5, 6, 8):
        target = det_lower_bound(k)
        for name, make in matchers.items():
            report = duel(DetLowerBoundAdversary(k, depth=depth), make(k), max_moves=10_000)
            assert report.stop_reason != MOVE_CAP, (k, name)
            alg, opt = report.final_sizes
            if k == 3 and report.stop_reason == SCRIPT_COMPLETE:
                # a fully cooperating matcher lands on the exact closed form
                assert Fraction(opt, alg) == Fraction(3 * depth + 2, 2 * depth + 2)
            else:
                assert report.witnessed >= target - 1e-9, (k, name, report.witnessed)
                min_margin = min(min_margin, report.witnessed - target)
            cells.append(f"k{k}/{name}")
    verdict(
        True,
        "blocked-path duels",
        f"{len(cells)} duels ended within the move cap; every witnessed ratio "
        f"met its floor (worst slack {min_margin:.2e}); budget-3 cooperative "
        f"runs hit (3n+2)/(2n+2) exactly at depth {depth}",
    )


def test_string_game_duels_force_the_departure_floor():
    matchers = {
        "greedy": lambda k: GreedyMatcher(k, LIMITED),
        "lgreedy": lambda k: LGreedyMatcher(k, model=LIMITED),
        "amp": lambda k: AmpMatcher(k, model=LIMITED),
    }
    summary = []
    for k in (4, 6, 8):
        floor = dep_lower_bound(k)
        for name, make in matchers.items():
            matcher = make(k)
            adv = StringGameAdversary(k, epsilon=0.05)
            t0 = time.perf_counter()
            for batch in adv.play(matcher):
                for ev in batch:
                    if ev.action == ARRIVE:
                        matcher.on_arrival(ev)
                    else:
                        matcher.on_departure(ev)
                assert config_matches_graph(adv.cfg, matcher.graph), (k, name, adv.moves)
                assert invariant_balance(adv.cfg), (k, name, adv.moves)
                if adv.cfg.phase >= 2:
                    assert invariant_threshold(adv.cfg), (k, name, adv.moves)
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, (k, name, elapsed)
            assert adv.outcome in (SCRIPT_COMPLETE, MATCHER_STALLED), (k, name, adv.outcome)
            assert adv.outcome != EXPECTATION_MISS
            assert adv.witnessed is not None and adv.witnessed >= floor - 1e-9, (
                k,
                name,
                adv.witnessed,
            )
            summary.append(
                f"k{k}/{name}:{adv.witnessed:.4f}>={floor:.4f} ({elapsed:.1f}s)"
            )
    verdict(
        True,
        "string-game duels",
        "all nine duels terminated with per-move mirroring and invariants; "
        + "; ".join(summary),
    )


def test_unrestricted_departures_starve_any_budget():
    finals = {}
    for k in (1, 2, 3, 4):
        report = duel(FullDepartureAdversary(k), GreedyMatcher(k, FULL))
        assert report.stop_reason == SCRIPT_COMPLETE
        expected = (1, 2) if k % 2 else (0, 1)
        assert report.final_sizes == expected, (k, report.final_sizes)
        finals[k] = report.final_sizes
    verdict(
        True,
        "unrestricted-departure starvation",
        "terminals " + ", ".join(f"k={k}: {v}" for k, v in finals.items()),
    )


N_RANDOM_STREAMS = 500


def test_randomized_guarantee_regression():
    matchers = {
        "greedy": GreedyMatcher,
        "lgreedy": lambda k, model: LGreedyMatcher(k, model=model),
        "amp": lambda k, model: AmpMatcher(k, model=model),
    }
    t0 = time.perf_counter()
    runs = violations = trace_problems = checked_phases = 0
    for k in (4, 6, 8):
        for name, make in matchers.items():
            for i in range(N_RANDOM_STREAMS):
                stream = random_arrival_stream(random.Random(10_000 + i), 24)
                matcher = make(k, ARRIVAL)
                report = replay(stream, matcher)
                violations += report.bound_violations
                runs += 1
                if isinstance(matcher, AmpMatcher):
                    trace_problems += len(amp_phase_violations(matcher))
                    checked_phases += len(matcher.history)
            for i in range(N_RANDOM_STREAMS):
                matcher = make(k, LIMITED)
                report = random_churn(random.Random(20_000 + i), matcher, 30)
                violations += report.bound_violations
                runs += 1
                if isinstance(matcher, AmpMatcher):
                    trace_problems += len(amp_phase_violations(matcher))
                    checked_phases += len(matcher.history)
    elapsed = time.perf_counter() - t0
    verdict(
        violations == 0 and trace_problems == 0,
        "randomized guarantee regression",
        f"{runs} runs (brute-forced optimum each step): {violations} ratio "
        f"violations; doubling-matcher traces clean over {checked_phases} "
        f"opened phases ({trace_problems} problems); {elapsed:.1f}s",
    )


def test_incremental_oracle_matches_brute_force():
    t0 = time.perf_counter()
    steps = 0
    for seed in range(1000):
        rng = random.Random(40_000 + seed)
        g = Graph(1)
        state = OracleState(g.rows)
        live: set[tuple[int, int]] = set()
        for _ in range(40):
            delete = live and (len(live) >= 24 or rng.random() < 0.35)
            if delete:
                pair = rng.choice(sorted(live))
                live.remove(pair)
                g.remove_edge(*pair)
                state.delete(*pair)
            else:
                u, v = rng.sample(range(1, 11), 2)
                pair = (u, v) if u < v else (v, u)
                if pair in live:
                    continue
                g.add_edge(*pair)
                live.add(pair)
                state.insert(*pair)
            assert state.size == brute_force_max_matching(live), (seed, sorted(live))
            steps += 1
    elapsed = time.perf_counter() - t0
    verdict(
        True,
        "incremental-oracle equivalence",
        f"1000 insert/delete sequences, {steps} per-step comparisons against "
        f"exhaustive search, zero disagreements; {elapsed:.1f}s",
    )


def _check_ledger(matcher: LGreedyMatcher) -> None:
    g = matcher.graph
    ledger = matcher.ledger
    assert abs(ledger.total() - g.matching_size()) <= 1e-9 * max(1, g.matching_size())
    cap = matcher.L or 0
    matched_floor = 0.5 - cap * ledger.alpha
    spent_floor = matched_floor + (g.budget - 1) * ledger.alpha
    spent_ends = {v for e in g.edges.values() if e.etype >= g.budget for v in e.endpoints}
    for pair in g.matching():
        for v in pair:
            assert ledger.weights.get(v, 0.0) >= matched_floor - 1e-12, v
    for v in spent_ends:
        assert ledger.weights.get(v, 0.0) >= spent_floor - 1e-12, v


def test_weight_ledger_certificates():
    t0 = time.perf_counter()
    checks = 0
    spent_seen = 0
    for k in (4, 6, 8):
        caps = {None, lgreedy_default_L(k), max(3, lgreedy_default_L(k))}
        for cap in caps:
            for i in range(0, N_RANDOM_STREAMS, 5):
                matcher = LGreedyMatcher(k, L=cap, model=ARRIVAL)
                for ev in random_arrival_stream(random.Random(10_000 + i), 24):
                    matcher.on_arrival(ev)
                    _check_ledger(matcher)
                    checks += 1
        for i in range(0, N_RANDOM_STREAMS, 5):
            matcher = LGreedyMatcher(k, model=LIMITED)
            rng = random.Random(20_000 + i)
            for _ in range(30):
                g = matcher.graph
                removable = [pair for pair, e in g.edges.items() if not e.matched]
                if removable and (len(g.edges) >= 24 or rng.random() < 0.35):
                    matcher.on_departure(depart(*rng.choice(removable)))
                elif len(g.edges) < 24:
                    u, v = rng.sample(range(1, 21), 2)
                    if g.has_edge(u, v):
                        continue
                    matcher.on_arrival(arrive(u, v))
                _check_ledger(matcher)
                checks += 1
    # the swing chain drives seed edges all the way to spent, so the
    # highest-type floor is exercised non-vacuously
    matcher = LGreedyMatcher(8, L=6, model=ARRIVAL)
    for ev in lgreedy_lb_stream(8, 6, copies=3):
        matcher.on_arrival(ev)
        _check_ledger(matcher)
        checks += 1
    spent_seen = sum(1 for e in matcher.graph.edges.values() if e.etype >= 8)
    elapsed = time.perf_counter() - t0
    verdict(
        spent_seen > 0,
        "weight-ledger certificates",
        f"{checks} per-event audits: totals equal the matching size and every "
        f"matched/spent endpoint met its floor ({spent_seen} spent edges in "
        f"the swing-chain run); {elapsed:.1f}s",
    )
