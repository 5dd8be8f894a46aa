"""Replay, duels, the bound table, and the stream file format."""

import math
import random

import pytest

from flipmatch.adversaries import (
    EXPECTATION_MISS,
    MOVE_CAP,
    SCRIPT_COMPLETE,
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
)
from flipmatch.algos import (
    AmpMatcher,
    GreedyMatcher,
    LGreedyMatcher,
    PhaseRecord,
    make_matcher,
)
from flipmatch.bounds import BadParamsError, lgreedy_bound
from flipmatch.core import (
    ARRIVAL,
    ARRIVE,
    DEPART,
    FULL,
    LIMITED,
    MODELS,
    DuplicateEdgeError,
    Event,
    GraphError,
    IllegalEventError,
    SelfLoopError,
    UnknownEdgeError,
    arrive,
    depart,
)
from flipmatch.harness import (
    BadStreamError,
    OracleDriftError,
    RunReport,
    StreamFile,
    TABLE_HEADER,
    amp_phase_violations,
    duel,
    emit_bound_table,
    parse_stream,
    random_arrival_stream,
    random_churn,
    ratio_of,
    replay,
    write_stream,
)
from flipmatch.oracle import OracleState
from flipmatch.stringgame import string_game_adversary

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def test_01_ratio_corners():
    assert ratio_of(0, 0) == 1.0
    assert ratio_of(0, 2) == math.inf
    assert ratio_of(2, 3) == pytest.approx(1.5)


def test_02_replay_starvation_chain():
    report = replay(greedy_lb_stream(4, 2), GreedyMatcher(4, ARRIVAL))
    assert report.final_sizes == (8, 10)
    assert report.bound == pytest.approx(1.5)
    assert report.bound_violations == 0
    assert [r.step for r in report.records] == list(range(1, len(report.records) + 1))
    for r in report.records:
        assert r.opt_size >= r.alg_size
        assert r.ratio == pytest.approx(ratio_of(r.alg_size, r.opt_size))
        assert r.phase is None
    assert report.max_ratio >= report.final_ratio


def test_03_empty_stream():
    report = replay([], GreedyMatcher(4, ARRIVAL))
    assert report.records == []
    assert report.final_ratio == 1.0
    assert report.max_ratio == 1.0
    assert report.final_sizes == (0, 0)


def test_04_replay_tracks_the_doubler_phase():
    stream = random_arrival_stream(random.Random(3), 20)
    report = replay(stream, AmpMatcher(6, model=ARRIVAL))
    assert any(r.phase is not None and r.phase >= 1 for r in report.records)
    assert report.bound_violations == 0


def test_05_model_legality():
    with pytest.raises(IllegalEventError) as err:
        replay([arrive(1, 2), depart(1, 2)], GreedyMatcher(4, ARRIVAL))
    assert err.value.code == "illegal-event-for-model"
    # greedy matches 1-2 on arrival, so the limited model must protect it
    with pytest.raises(IllegalEventError):
        replay([arrive(1, 2), depart(1, 2)], GreedyMatcher(4, LIMITED))
    with pytest.raises(UnknownEdgeError):
        replay([depart(1, 2)], GreedyMatcher(4, FULL))
    with pytest.raises(DuplicateEdgeError):
        replay([arrive(1, 2), arrive(2, 1)], GreedyMatcher(4, FULL))


def board_state(matcher) -> tuple:
    """Everything an event may change on a matcher's board."""
    g, o = matcher.graph, matcher.oracle
    edges = {eid: e.etype for eid, e in g.edges.items()}
    return edges, dict(g.mate), g.total_flips, g._next_id, dict(o.mate)


@pytest.mark.parametrize("model", [ARRIVAL, LIMITED])
@pytest.mark.parametrize("algo", ["greedy", "lgreedy", "amp"])
def test_25_refused_events_leave_the_board_untouched(algo, model):
    # the graph is the only check on an event: it must refuse before it,
    # the oracle or the matcher changes anything
    m = make_matcher(algo, 4, model=model)
    replay([arrive(1, 2), arrive(2, 3), arrive(3, 4), arrive(4, 5)], m)
    g = m.graph
    matched = next(e for e in g.edges.values() if e.matched)
    unmatched = next(e for e in g.edges.values() if not e.matched)
    illegal = IllegalEventError, "illegal-event-for-model"
    refused = [
        (arrive(2, 1), DuplicateEdgeError, "duplicate-edge"),
        (arrive(6, 6), SelfLoopError, "self-loop"),
        (depart(1, 5), UnknownEdgeError, "unknown-edge"),
        (depart(matched.u, matched.v), *illegal),
    ]
    if model == ARRIVAL:
        refused.append((depart(unmatched.u, unmatched.v), *illegal))

    def direct(ev):
        (m.on_arrival if ev.action == ARRIVE else m.on_departure)(ev)

    for ev, error, code in refused:
        for apply in (direct, lambda ev: replay([ev], m)):
            before = board_state(m)
            with pytest.raises(error) as err:
                apply(ev)
            assert type(err.value) is error and err.value.code == code, ev
            assert board_state(m) == before, ev
            g.validate()
            m.oracle.verify()


def test_06_guarantees_by_matcher_and_model():
    def bound(matcher):
        return replay([], matcher).bound

    for model in (ARRIVAL, LIMITED, FULL):
        # unrestricted departures starve every matcher: no guarantee applies
        def want(value):
            return None if model == FULL else pytest.approx(value)

        assert bound(GreedyMatcher(4, model)) == want(1.5)
        assert bound(GreedyMatcher(3, model)) == want(2.0)
        assert bound(LGreedyMatcher(8, L=6, model=model)) == want(lgreedy_bound(8, 6))
        assert bound(LGreedyMatcher(2, model=model)) is None
        assert bound(AmpMatcher(6, r=1.5, model=model)) == want(1.5**6 / (1.5**5 - 1.5))
        assert bound(AmpMatcher(2, model=model)) is None


def test_07_duel_chain_of_pendants_exact_ratio():
    report = duel(DetLowerBoundAdversary(3, depth=50), GreedyMatcher(3, ARRIVAL))
    assert report.stop_reason == SCRIPT_COMPLETE
    assert report.witnessed == pytest.approx((3 * 50 + 2) / (2 * 50 + 2))
    assert report.final_sizes == (102, 152)


def test_08_duel_records_an_early_miss():
    report = duel(DetLowerBoundAdversary(4), AmpMatcher(4, model=ARRIVAL))
    assert report.stop_reason == EXPECTATION_MISS
    assert report.witnessed >= 4 / 3 - 1e-9
    assert report.bound_violations == 0


def test_09_duel_move_cap_is_reported_not_raised():
    report = duel(
        string_game_adversary(4), GreedyMatcher(4, LIMITED), max_moves=3
    )
    assert report.stop_reason == MOVE_CAP
    assert len(report.records) == 3
    with pytest.raises(BadParamsError) as err:
        duel(string_game_adversary(4), GreedyMatcher(4, LIMITED), max_moves=0)
    assert err.value.code == "bad-params"


def test_10_duel_full_departures_starve_the_matcher():
    report = duel(FullDepartureAdversary(2), GreedyMatcher(2, FULL))
    assert report.stop_reason == SCRIPT_COMPLETE
    assert report.final_sizes == (0, 1)
    assert report.witnessed == math.inf
    report = duel(FullDepartureAdversary(3), GreedyMatcher(3, FULL))
    assert report.final_sizes == (1, 2)
    assert report.witnessed == pytest.approx(2.0)


def test_11_duel_string_game_end_to_end():
    report = duel(string_game_adversary(4), GreedyMatcher(4, LIMITED))
    assert report.stop_reason == SCRIPT_COMPLETE
    assert report.witnessed >= 10 / 7 - 1e-9
    assert report.bound_violations == 0
    assert report.max_ratio <= 1.5 + 1e-9


def test_12_bound_table_values():
    csv = emit_bound_table(range(4, 23, 2))
    lines = csv.splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "4"
    assert [float(x) for x in first[1:]] == pytest.approx(
        [4 / 3, 10 / 7, 1.5, 2.598076, 2.645257], abs=5e-7
    )
    last = lines[-1].split(",")
    assert last[0] == "22"
    # from 22 on the doubling matcher's guarantee beats the length-capped one
    assert float(last[4]) < float(last[3])
    assert csv == emit_bound_table([22, 4, 6, 8, 10, 12, 14, 16, 18, 20])


def test_13_bound_table_rejects_bad_budgets():
    for bad in (3, 2, [4, 5], [True]):
        with pytest.raises(BadParamsError):
            emit_bound_table(bad if isinstance(bad, list) else [bad])


def test_14_stream_files_round_trip():
    events = greedy_lb_stream(4, 1)
    text = write_stream(4, "limited", events)
    parsed = parse_stream(text)
    assert (parsed.k, parsed.model) == (4, "limited")
    assert parsed.events == tuple(events)
    assert write_stream(parsed.k, parsed.model, parsed.events) == text
    commented = "# fixture\n\nmodel full\nk 6\n+ 1 2\n- 1 2\n"
    parsed = parse_stream(commented)
    assert (parsed.k, parsed.model) == (6, "full")
    assert parsed.events == (arrive(1, 2), depart(1, 2))


def test_15_stream_parse_errors():
    cases = [
        "+ 1 2\n",  # no header at all
        "k 4\n+ 1 2\n",  # missing model
        "k 4\nmodel sometimes\n",  # unknown model
        "k 4\nmodel full\n+ 1\n",  # malformed event
        "k 4\nmodel full\n+ 0 2\n",  # ids must be positive
        "k 4\nmodel full\n+ 1 2\nk 6\n",  # header after events
        "k x\nmodel full\n",  # unparseable budget
        "k 0\nmodel full\n",  # no flips at all
        "k -3\nmodel full\n",  # negative budget
        "k 4\nmodel full\n* 1 2\n",  # unknown line
        "k 4\nmodel full\n+ 3 3\n",  # self-loop
    ]
    for text in cases:
        with pytest.raises(BadStreamError):
            parse_stream(text)
    assert BadStreamError("x").code == "bad-stream"
    # a budget below 1 names its line instead of failing later in the matcher
    with pytest.raises(BadStreamError, match="line 2: budget must be at least 1, got -3"):
        parse_stream("# no flips\nk -3\nmodel full\n+ 1 2\n")
    with pytest.raises(BadStreamError, match="line 4: self-loop at vertex 3"):
        parse_stream("k 4\nmodel full\n+ 1 3\n- 3 3\n")


@pytest.mark.parametrize("max_vertices", [1, 0, -3])
def test_26_random_generators_refuse_fewer_than_two_vertices(max_vertices):
    # rng.sample used to fail with a bare ValueError
    with pytest.raises(BadParamsError) as err:
        random_arrival_stream(random.Random(1), 5, max_vertices=max_vertices)
    assert err.value.code == "bad-params"
    matcher = GreedyMatcher(4, LIMITED)
    with pytest.raises(BadParamsError) as err:
        random_churn(random.Random(1), matcher, 5, max_vertices=max_vertices)
    assert err.value.code == "bad-params"
    assert not matcher.graph.edges


def test_27_random_arrival_stream_stops_when_every_pair_is_present():
    # two vertices have one pair; the loop used to resample it forever
    assert random_arrival_stream(random.Random(1), 5, max_vertices=2) == [arrive(1, 2)]
    stream = random_arrival_stream(random.Random(1), 40, max_vertices=4)
    assert len({ev.endpoints for ev in stream}) == len(stream) == 6


@pytest.mark.parametrize("k", [0, -1, True])
def test_28_write_stream_refuses_a_budget_the_parser_would(k):
    with pytest.raises(BadStreamError) as err:
        write_stream(k, "full", [arrive(1, 2)])
    assert err.value.code == "bad-stream"


def test_16_random_arrival_streams_stay_bruteforceable():
    rng = random.Random(11)
    stream = random_arrival_stream(rng, 40)
    assert len(stream) <= 24
    assert len({ev.endpoints for ev in stream}) == len(stream)
    assert all(ev.action == "arrive" for ev in stream)
    again = random_arrival_stream(random.Random(11), 40)
    assert again == stream


def test_17_random_churn_respects_the_limited_model():
    # would raise IllegalEventError if it ever deleted a matched edge
    report = random_churn(random.Random(5), GreedyMatcher(4, LIMITED), 80)
    assert report.bound_violations == 0
    assert any(r.event.startswith("-") for r in report.records)
    report = random_churn(random.Random(5), GreedyMatcher(4, ARRIVAL), 80)
    assert all(r.event.startswith("+") for r in report.records)


def test_18_doubler_trace_checks():
    matcher = AmpMatcher(4, model=ARRIVAL)
    replay(random_arrival_stream(random.Random(2), 24), matcher)
    assert amp_phase_violations(matcher) == []
    # breaking a late record by hand must be caught
    matcher.state.history.extend(
        PhaseRecord(phase=p, ell=p, opt_size=2**p, alg_size=2**p, spent_vertices=0)
        for p in range(len(matcher.history) + 1, 12)
    )
    matcher.state.history.append(
        PhaseRecord(phase=12, ell=12, opt_size=4096, alg_size=1, spent_vertices=9999)
    )
    problems = amp_phase_violations(matcher)
    assert len(problems) == 2
    assert any("floor" in p for p in problems)
    assert any("spent" in p for p in problems)


def test_19_report_to_dict_shape():
    report = duel(DetLowerBoundAdversary(4), GreedyMatcher(4, ARRIVAL))
    payload = report.to_dict()
    assert set(payload) == {"records", "summary"}
    assert payload["summary"]["stop_reason"] == report.stop_reason
    assert payload["summary"]["witnessed"] == pytest.approx(report.witnessed)
    assert payload["records"][0]["step"] == 1
    assert set(payload["records"][0]) == {
        "step",
        "event",
        "alg_size",
        "opt_size",
        "ratio",
        "total_flips",
        "phase",
    }


def test_20_reports_start_empty():
    report = RunReport()
    assert report.final_ratio == 1.0 and report.max_ratio == 1.0
    assert report.bound is None and report.stop_reason is None


class _Drifter(GreedyMatcher):
    """Greedy that corrupts its own optimum once its board holds ``at`` edges."""

    def __init__(self, at, corrupt):
        super().__init__(4, ARRIVAL)
        self.at, self.corrupt = at, corrupt

    def _react(self, ends, departed):
        super()._react(ends, departed)
        if len(self.graph.edges) == self.at:
            self.corrupt(self.oracle.mate)


@pytest.mark.parametrize(
    "at,corrupt,message",
    [
        # one phantom mate pair keeps opt above alg: only brute force can see it
        (3, lambda mate: mate.update({-1: -2, -2: -1}), "incremental optimum 4, exhaustive 3"),
        # past the brute-force limit, an optimum below the matching still trips
        (25, lambda mate: mate.clear(), "optimum 0 fell below the matching size 25"),
    ],
)
def test_22_referee_catches_a_drifting_optimum(at, corrupt, message):
    stream = [arrive(2 * i + 1, 2 * i + 2) for i in range(30)]  # disjoint edges
    matcher = _Drifter(at, corrupt)
    with pytest.raises(OracleDriftError, match=message) as err:
        replay(stream, matcher)
    assert err.value.code == "oracle-drift"
    assert len(matcher.graph.edges) == at


@pytest.mark.parametrize("algo", ["greedy", "lgreedy", "amp"])
def test_23_one_oracle_per_run(algo, monkeypatch):
    calls = {"insert": [], "delete": []}
    for name, log in calls.items():
        method = getattr(OracleState, name)

        def counted(self, *args, method=method, log=log):
            log.append(self)
            return method(self, *args)

        monkeypatch.setattr(OracleState, name, counted)
    arrivals = greedy_lb_stream(4, 3)
    stream = arrivals + [depart(*ev.endpoints) for ev in arrivals[::3]]
    matcher = make_matcher(algo, 4, model=FULL)
    replay(stream, matcher)
    assert len(calls["insert"]) == len(arrivals)
    assert len(calls["delete"]) == len(stream) - len(arrivals)
    assert all(o is matcher.oracle for log in calls.values() for o in log)
    # one edge index per board: the oracle searches the graph's own rows
    assert matcher.oracle.rows is matcher.graph.rows
    if algo == "amp":
        assert matcher.state.oracle is matcher.oracle


if HAVE_HYPOTHESIS:

    @given(seed=st.integers(0, 10_000), k=st.sampled_from([4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_21_greedy_never_beats_its_bound_on_random_streams(seed, k):
        stream = random_arrival_stream(random.Random(seed), 24)
        report = replay(stream, GreedyMatcher(k, ARRIVAL))
        assert report.bound_violations == 0
        assert all(r.opt_size >= r.alg_size for r in report.records)

    # a grammar for stream files: a header in either order, then mostly legal
    # events, with self-loops, zero ids, refused events, late headers,
    # comments and junk mixed in
    _headers = st.tuples(
        st.sampled_from([2, 4, 6, 8] * 5 + [0, 1, 3]).map(lambda k: f"k {k}"),
        st.sampled_from(MODELS * 6 + ("sometimes",)).map(lambda m: f"model {m}"),
    ).flatmap(st.permutations)
    _items = st.lists(
        st.tuples(
            st.sampled_from(
                ["pair"] * 80 + ["quiet"] * 4 + ["flip", "loop", "zero", "header", "junk"]
            ),
            st.integers(1, 6),
            st.integers(1, 6),
            st.text(alphabet="+-# kmodel0123x", max_size=8),
        ),
        max_size=24,
    )

    def _render(head, items):
        """Stream text: the header lines, then one line per item.

        A ``pair`` item arrives when its edge is off the board and departs
        when it is on; a ``flip`` item does the opposite, which the harness
        must refuse.
        """
        lines, on = list(head), set()
        for kind, u, v, junk in items:
            if kind in ("pair", "flip"):
                v = v if v != u else u % 6 + 1
                edge = frozenset((u, v))
                arrives = (edge in on) == (kind == "flip")
                if kind == "pair":
                    on ^= {edge}
                lines.append(f"{'+' if arrives else '-'} {u} {v}")
                continue
            lines.append({
                "quiet": "" if u % 2 else "# a comment",
                "loop": f"+ {u} {u}",
                "zero": f"- 0 {v}",
                "header": f"k {u}",
                "junk": junk,
            }[kind])
        return "\n".join(lines)

    def _checked(events, matcher):
        """Yield the events, checking the board after the harness applied each."""
        for ev in events:
            yield ev
            matcher.graph.validate()
            matcher.oracle.verify()

    @given(
        text=st.builds(_render, _headers, _items),
        algo=st.sampled_from(["greedy", "lgreedy", "amp"]),
    )
    @settings(max_examples=1000, deadline=None)
    def test_24_any_stream_text_replays_or_fails_typed(text, algo):
        try:
            stream = parse_stream(text)
            matcher = make_matcher(algo, stream.k, model=stream.model)
            replay(_checked(stream.events, matcher), matcher)
        except (GraphError, ValueError) as exc:
            assert getattr(exc, "code", None), repr(exc)
        else:
            matcher.graph.validate()
            matcher.oracle.verify()

    _vertex = st.one_of(st.integers(-1, 5), st.booleans())

    @given(
        k=st.one_of(st.integers(-1, 9), st.booleans(), st.just("4")),
        model=st.sampled_from(MODELS + ("sometimes", "full x")),
        events=st.lists(
            st.builds(Event, st.sampled_from([ARRIVE, DEPART, "stay"]), _vertex, _vertex),
            max_size=6,
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_29_write_stream_refuses_or_round_trips(k, model, events):
        def whole(x):
            return isinstance(x, int) and not isinstance(x, bool)

        legal = (
            whole(k)
            and k >= 1
            and model in MODELS
            and all(
                ev.action in (ARRIVE, DEPART)
                and whole(ev.u)
                and whole(ev.v)
                and ev.u > 0
                and ev.v > 0
                and ev.u != ev.v
                for ev in events
            )
        )
        try:
            text = write_stream(k, model, events)
        except BadStreamError as exc:
            assert exc.code == "bad-stream"
            assert not legal
        else:
            assert legal
            assert parse_stream(text) == StreamFile(k=k, model=model, events=tuple(events))
