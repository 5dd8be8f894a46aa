"""The churn adversary that plays on path strings."""

import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from flipmatch.adversaries import EXPECTATION_MISS, MOVE_CAP, SCRIPT_COMPLETE
from flipmatch.algos import AmpMatcher, GreedyMatcher, LGreedyMatcher
from flipmatch.bounds import BadBudgetError, BadParamsError, dep_lower_bound
from flipmatch.core import ARRIVE, DEPART, LIMITED, Graph
from flipmatch.harness import duel
from flipmatch.stringgame import (
    BadStringError,
    EpsilonTooLargeError,
    IllegalTransitionError,
    MATCHER_STALLED,
    OddKError,
    PathString,
    StringConfig,
    StringGameAdversary,
    UsedAdversaryError,
    _increment,
    augment_response,
    classify_string,
    compile_strings_to_events,
    config_matches_graph,
    config_sizes,
    invariant_balance,
    invariant_threshold,
    validate_strings,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def replay(events, matcher):
    for ev in events:
        if ev.action == ARRIVE:
            matcher.on_arrival(ev)
        else:
            matcher.on_departure(ev)
    return matcher


def drive(adv, matcher):
    for batch in adv.play(matcher):
        replay(batch, matcher)
    return adv.outcome


def fresh_from(start):
    counter = itertools.count(start)
    return lambda: next(counter)


def families(strings):
    return Counter(s.canonical() for s in strings)


def cfg_of(k, specs, phase=1):
    return StringConfig.from_digits(k, 0.05, specs, phase)


def w_digits(j):
    return tuple(range(j + 1)) + (j - 1,) + tuple(range(j, -1, -1))


def ramp4(k):
    return tuple(range(k + 1)) + (3, 2, 1, 0)


def playbook(k):
    """Label of every playbook string for budget ``k``, keyed by the lesser
    of its two readings: the written-out reference ``classify_string`` is
    checked against. The forms are listed in order of precedence (seed, y,
    x, a, w, v) and read back to front, so the first family listed wins a
    string two families share."""
    # ramp m climbs 0, 1, ..., k-4+m, then falls m-1, ..., 0
    ramps = [tuple(range(k - 3 + m)) + tuple(range(m - 1, -1, -1)) for m in range(1, 5)]
    forms = [((0,), ("seed", 0)), ((0, 1, 0), ("y", 0)), ((0, 1, 2, 1, 0), ("y", 0))]
    forms.append(((0, 1, 0, 1, 0), ("x", 0)))
    forms += [((0, j - 1, 0), ("a", j)) for j in range(4, k + 1, 2)]
    forms += [((0, 1, j, 1, 0), ("a", j)) for j in range(4, k + 1, 2)]
    forms += [(w_digits(j), ("w", j)) for j in range(2, k - 1)]
    forms += [(min(f, f[::-1]), ("v", m)) for m, f in enumerate(ramps, start=1)]
    return dict(reversed(forms))


# ----------------------------------------------------------------------
# configurations and sizes


def test_01_config_sizes_count_odd_and_even_entries():
    assert config_sizes(cfg_of(4, ["010"])) == (1, 2)
    assert config_sizes(cfg_of(4, ["01410"])) == (2, 3)
    assert config_sizes(cfg_of(4, ["010", "01410"])) == (3, 5)


def test_03_config_validation():
    bad_parity = [PathString((0, 2, 0), (0, 1, 2, 3))]
    with pytest.raises(BadStringError):
        validate_strings(bad_parity, 4)
    too_high = [PathString((0, 5, 0), (0, 1, 2, 3))]
    with pytest.raises(BadStringError):
        validate_strings(too_high, 4)
    reused = [PathString((0,), (0, 1)), PathString((0,), (1, 2))]
    with pytest.raises(BadStringError):
        validate_strings(reused, 4)
    validate_strings(cfg_of(4, ["010", "01410"]).strings, 4)


@pytest.mark.parametrize(
    "digits,k,expected",
    [
        ((0,), 4, ("seed", 0)),
        ((0, 1, 0), 4, ("y", 0)),
        ((0, 1, 2, 1, 0), 4, ("y", 0)),
        ((0, 1, 0, 1, 0), 4, ("x", 0)),
        ((0, 1, 2, 1, 2, 1, 0), 4, ("w", 2)),
        ((0, 3, 0), 4, ("a", 4)),
        ((0, 1, 4, 1, 0), 4, ("a", 4)),
        ((0, 1, 2, 3, 2, 1, 0), 4, ("v", 3)),
        (ramp4(4), 4, ("v", 4)),
        ((0, 1, 2, 3, 2, 3, 2, 1, 0), 6, ("w", 3)),
        ((0, 5, 0), 6, ("a", 6)),
        ((0, 1, 2, 3, 4, 5, 0), 8, ("v", 1)),
        ((0, 5, 4, 3, 2, 1, 0), 8, ("v", 1)),
        ((0, 1, 2, 3, 4, 5, 6, 1, 0), 8, ("v", 2)),
        ((0, 7, 0), 8, ("a", 8)),
        ((0, 1, 8, 1, 0), 8, ("a", 8)),
        (ramp4(8), 8, ("v", 4)),
    ],
)
def test_04_classify_families(digits, k, expected):
    assert classify_string(digits, k) == expected


def test_05_classify_rejects_strays():
    with pytest.raises(IllegalTransitionError) as err:
        classify_string((0, 1, 2, 3, 0), 4)
    assert err.value.code == "illegal-transition"
    with pytest.raises(IllegalTransitionError):
        classify_string((0, 1, 2, 3, 2, 3, 0), 8)


# ----------------------------------------------------------------------
# the playbook


def test_06_seed_and_y_responses():
    fresh = fresh_from(100)
    out = augment_response(PathString((0,), (0, 1)), 4, 1, fresh)
    assert families(out) == {(0, 1, 0): 1}
    out = augment_response(PathString((0, 1, 0), (0, 1, 2, 3)), 4, 1, fresh)
    assert families(out) == {(0, 1, 2, 1, 0): 1}
    out = augment_response(
        PathString((0, 1, 2, 1, 0), tuple(range(6))), 4, 1, fresh
    )
    assert families(out) == {(0, 1, 0, 1, 0): 1, (0, 3, 0): 1}


def test_07_reservoir_pair_climbs():
    fresh = fresh_from(100)
    out = augment_response(PathString((0, 3, 0), (0, 1, 2, 3)), 4, 1, fresh)
    assert families(out) == {(0, 1, 4, 1, 0): 1}
    # with budget to spare the long form splits and feeds the next rung
    out = augment_response(
        PathString((0, 1, 4, 1, 0), tuple(range(6))), 6, 1, fresh
    )
    assert families(out) == {(0, 1, 0, 1, 0): 1, (0, 5, 0): 1}
    out = augment_response(PathString((0, 5, 0), (0, 1, 2, 3)), 6, 2, fresh)
    assert families(out) == {(0, 1, 6, 1, 0): 1}


def test_08_x_rule_depends_on_phase():
    fresh = fresh_from(100)
    x = PathString((0, 1, 0, 1, 0), tuple(range(6)))
    assert families(augment_response(x, 4, 1, fresh)) == {
        (0, 1, 0): 1,
        (0, 1, 2, 1, 0): 1,
    }
    assert families(augment_response(x, 4, 2, fresh)) == {
        (0, 1, 2, 1, 2, 1, 0): 1
    }
    assert families(augment_response(x, 4, 3, fresh)) == {
        (0, 1, 2, 1, 2, 1, 0): 1
    }


def test_09_double_peak_split_k4():
    w2 = PathString(w_digits(2), tuple(range(8)))
    # phase two recycles the ends into a fresh x; phase three lets them drop
    out = augment_response(w2, 4, 2, fresh_from(100))
    assert families(out) == {(0, 1, 0, 1, 0): 1, (0, 3, 0): 2}
    out = augment_response(w2, 4, 3, fresh_from(200))
    assert families(out) == {(0, 1, 0): 2, (0, 3, 0): 2}


def test_10_y_feeds_the_ramp_in_phase_three():
    fresh = fresh_from(100)
    y = PathString((0, 1, 2, 1, 0), tuple(range(6)))
    assert families(augment_response(y, 4, 3, fresh)) == {(0, 1, 2, 3, 2, 1, 0): 1}
    v3 = PathString((0, 1, 2, 3, 2, 1, 0), tuple(range(8)))
    assert families(augment_response(v3, 4, 3, fresh)) == {ramp4(4): 1}


def test_11_w_ladder_k8():
    fresh = fresh_from(100)
    base = 0
    s = PathString(w_digits(2), tuple(range(8)))
    for j in (3, 4, 5, 6):
        (s,) = augment_response(s, 8, 2, fresh)
        assert classify_string(s.digits, 8) == ("w", j)
    out = augment_response(s, 8, 2, fresh)
    assert families(out) == {(0, 1, 2, 3, 4, 5, 0): 2, (0, 7, 0): 2}


def test_12_ramps_climb_one_rung_per_flip():
    fresh = fresh_from(100)
    s = PathString((0, 1, 2, 3, 4, 5, 0), tuple(range(8)))
    for m in (2, 3, 4):
        (s,) = augment_response(s, 8, 2, fresh)
        assert classify_string(s.digits, 8) == ("v", m)
    assert s.blocked(8)


def test_13_spent_strings_have_no_response():
    with pytest.raises(IllegalTransitionError):
        augment_response(
            PathString((0, 1, 4, 1, 0), tuple(range(6))), 4, 3, fresh_from(0)
        )


# ----------------------------------------------------------------------
# compiling configurations into event batches


def test_14_compile_split_is_one_departure():
    prev = [PathString((1, 2, 3, 2, 1), tuple(range(6)))]
    new = [PathString((1, 2, 3), (0, 1, 2, 3)), PathString((1,), (4, 5))]
    events = compile_strings_to_events(new, prev, 4)
    assert [(ev.action, ev.endpoints) for ev in events] == [(DEPART, (3, 4))]


def test_15_compile_merge_and_padding():
    prev = [PathString((1,), (0, 1)), PathString((1,), (2, 3))]
    new = [PathString((1, 0, 1), (0, 1, 2, 3))]
    events = compile_strings_to_events(new, prev, 4)
    assert [(ev.action, ev.endpoints) for ev in events] == [(ARRIVE, (1, 2))]

    prev = new
    new = [PathString((0, 1, 0, 1, 0), (9, 0, 1, 2, 3, 8))]
    events = compile_strings_to_events(new, prev, 4)
    assert [(ev.action, ev.endpoints) for ev in events] == [
        (ARRIVE, (0, 9)),
        (ARRIVE, (3, 8)),
    ]


def test_16_compile_rejects_illegal_moves():
    base = [PathString((1, 2, 1), (0, 1, 2, 3))]
    # tearing out a matched edge
    torn = [PathString((1, 2), (0, 1, 2)), PathString((), (3,))]
    with pytest.raises((IllegalTransitionError, BadStringError)):
        compile_strings_to_events(torn, base, 4)
    dropped_end = [PathString((2, 1), (1, 2, 3))]
    with pytest.raises(IllegalTransitionError) as err:
        compile_strings_to_events(dropped_end, base, 4)
    assert err.value.code == "illegal-transition"
    # silently retyping an edge
    retyped = [PathString((1, 2, 3), (0, 1, 2, 3))]
    with pytest.raises(IllegalTransitionError):
        compile_strings_to_events(retyped, base, 4)
    # an arrival that would need a nonzero type
    grown = [PathString((1, 2, 1, 2), (0, 1, 2, 3, 4))]
    with pytest.raises(IllegalTransitionError):
        compile_strings_to_events(grown, base, 4)


def test_17_compile_batch_shape_for_a_split_response():
    old = PathString((0, 1, 2, 1, 0), tuple(range(6)))
    lifted = PathString((1, 2, 3, 2, 1), old.verts)
    replacement = augment_response(old, 4, 1, fresh_from(100))
    events = compile_strings_to_events(replacement, [lifted], 4)
    kinds = Counter(ev.action for ev in events)
    assert kinds == {DEPART: 2, ARRIVE: 5}
    # departures first, then the merge, then the four pads
    assert [ev.action for ev in events[:2]] == [DEPART, DEPART]
    merge = events[2]
    assert merge.endpoints == (1, 4)
    for pad in events[3:]:
        assert sum(1 for v in pad.endpoints if v >= 100) == 1


# ----------------------------------------------------------------------
# the adversary itself


def test_18_argument_validation():
    with pytest.raises(OddKError) as err:
        StringGameAdversary(5)
    assert err.value.code == "odd-k"
    with pytest.raises(BadBudgetError):
        StringGameAdversary(2)
    with pytest.raises(BadBudgetError):
        StringGameAdversary("4")
    with pytest.raises(BadParamsError):
        StringGameAdversary(4, epsilon=0.0)
    with pytest.raises(BadParamsError):
        StringGameAdversary(4, epsilon=-0.1)
    # a nan slack never leaves phase one, and a bool is not a slack
    for epsilon in (math.nan, True, False):
        with pytest.raises(BadParamsError) as err:
            StringGameAdversary(6, epsilon=epsilon)
        assert err.value.code == "bad-params"
    with pytest.raises(EpsilonTooLargeError) as err:
        StringGameAdversary(4, epsilon=4 / 3)
    assert err.value.code == "epsilon-too-large"
    with pytest.raises(EpsilonTooLargeError):
        StringGameAdversary(6, epsilon=math.inf)
    with pytest.raises(EpsilonTooLargeError):
        StringGameAdversary(6, epsilon=2.4)
    StringGameAdversary(6, epsilon=2.39)  # just inside


def test_19_adversary_reports_name_and_target():
    adv = StringGameAdversary(6)
    assert isinstance(adv, StringGameAdversary)
    assert adv.name == "string-game-k6"
    assert adv.cfg.epsilon == 0.05
    assert adv.target == pytest.approx(dep_lower_bound(6))
    assert adv.target == pytest.approx(24 / 19)
    assert adv.outcome is None and adv.moves == 0


def test_20_k4_greedy_runs_to_spent_terminal():
    adv = StringGameAdversary(4)
    matcher = GreedyMatcher(4, LIMITED)
    assert drive(adv, matcher) == SCRIPT_COMPLETE
    assert adv.cfg.phase == 3
    terminal = families(adv.cfg.strings)
    assert set(terminal) <= {(0, 1, 4, 1, 0), ramp4(4)}
    assert adv.witnessed >= 10 / 7 - 1e-9
    assert adv.terminal == config_sizes(adv.cfg)
    assert config_matches_graph(adv.cfg, matcher.graph)
    matcher.graph.validate()


def test_21_k4_uncapped_lgreedy_matches_greedy_run():
    adv = StringGameAdversary(4)
    matcher = LGreedyMatcher(4, model=LIMITED)
    assert drive(adv, matcher) == SCRIPT_COMPLETE
    assert set(families(adv.cfg.strings)) <= {(0, 1, 4, 1, 0), ramp4(4)}
    assert adv.witnessed >= 10 / 7 - 1e-9


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("algo", ["greedy", "lgreedy", "amp"])
def test_22_duels_keep_invariants_and_bisimulation(k, algo):
    makers = {
        "greedy": lambda: GreedyMatcher(k, LIMITED),
        "lgreedy": lambda: LGreedyMatcher(k, model=LIMITED),
        "amp": lambda: AmpMatcher(k, model=LIMITED),
    }
    adv = StringGameAdversary(k)
    matcher = makers[algo]()
    for batch in adv.play(matcher):
        replay(batch, matcher)
        assert config_matches_graph(adv.cfg, matcher.graph)
        # the invariants read the maintained labels and sums, so pin them to a recount
        found = [classify_string(s.digits, k) for s in adv.cfg.strings]
        assert [adv.cfg.labels[s] for s in adv.cfg.strings] == found
        assert adv.cfg.totals == Counter(fam for fam, _ in found)
        pairs = [j for fam, j in found if fam == "a"]
        assert adv.cfg.pair_weight == sum(j * j - 4 * j + 7 for j in pairs)
        assert adv.cfg.pair_slack == sum(j - 3 for j in pairs)
        if adv.cfg.phase >= 2:
            assert invariant_threshold(adv.cfg)
            assert invariant_balance(adv.cfg)
    assert adv.outcome in (SCRIPT_COMPLETE, MATCHER_STALLED)
    assert adv.moves < 10_000
    assert adv.witnessed >= dep_lower_bound(k) - 1e-9
    if adv.outcome == SCRIPT_COMPLETE:
        assert all(s.blocked(k) for s in adv.cfg.strings)
        assert set(families(adv.cfg.strings)) <= {(0, 1, k, 1, 0), ramp4(k)}
    else:
        assert any(not s.blocked(k) for s in adv.cfg.strings)


@pytest.mark.parametrize("k", [4, 6])
def test_23_phase_one_balance_is_tight(k):
    # until phase one ends, the live strings track the reservoir exactly
    adv = StringGameAdversary(k)
    matcher = GreedyMatcher(k, LIMITED)
    for batch in adv.play(matcher):
        replay(batch, matcher)
        if adv.cfg.phase > 1 or adv.moves == 0:
            continue
        counts = Counter(adv.cfg.labels.values())
        live = (
            2 * sum(n for (fam, _), n in counts.items() if fam in ("x", "w"))
            + sum(n for (fam, _), n in counts.items() if fam == "y")
            + (k - 4) * sum(n for (fam, _), n in counts.items() if fam == "v")
        )
        reservoir = sum((j - 3) * n for (fam, j), n in counts.items() if fam == "a")
        assert live == reservoir + 1


def test_24_idle_matcher_is_stalled_and_scored():
    class Idler:
        def __init__(self):
            self.graph = Graph(4)

        def on_arrival(self, event):
            self.graph.add_edge(*event.endpoints)

        def on_departure(self, event):  # pragma: no cover - never reached
            self.graph.remove_edge(*event.endpoints)

    adv = StringGameAdversary(4)
    assert drive(adv, Idler()) == MATCHER_STALLED
    assert adv.terminal == (0, 1)
    assert adv.witnessed is None


def test_25_board_corruption_is_an_expectation_miss():
    class Saboteur(GreedyMatcher):
        def __init__(self):
            super().__init__(4, LIMITED)
            self.seen = 0

        def on_arrival(self, event):
            super().on_arrival(event)
            self.seen += 1
            if self.seen == 3:
                g = self.graph
                victim = next(pair for pair, e in g.edges.items() if not e.matched)
                g.remove_edge(*victim)

    adv = StringGameAdversary(4)
    assert drive(adv, Saboteur()) == EXPECTATION_MISS


def test_26_amp_duel_stalls_above_target():
    adv = StringGameAdversary(4)
    matcher = AmpMatcher(4, model=LIMITED)
    assert drive(adv, matcher) == MATCHER_STALLED
    # the matcher holds back between growth bursts, so live strings remain
    assert any(not s.blocked(4) for s in adv.cfg.strings)
    assert adv.witnessed > dep_lower_bound(4)


if HAVE_HYPOTHESIS:

    @given(epsilon=st.floats(0.05, 1.3))
    @settings(max_examples=8, deadline=None)
    def test_27_any_slack_forces_the_same_terminal(epsilon):
        adv = StringGameAdversary(4, epsilon=epsilon)
        matcher = GreedyMatcher(4, LIMITED)
        assert drive(adv, matcher) == SCRIPT_COMPLETE
        assert set(families(adv.cfg.strings)) <= {(0, 1, 4, 1, 0), ramp4(4)}
        assert adv.witnessed >= 10 / 7 - 1e-9


def test_28_config_matches_graph_rejects_unrealised_boards():
    def board(edges, *walks):
        g = Graph(4)
        for u, v in edges:
            g.add_edge(u, v)
        for walk in walks:
            g.apply_augmenting_path(walk)
        return g

    y = cfg_of(4, ["010"])  # the walk 0-1-2-3
    path = [(0, 1), (1, 2), (2, 3)]
    assert config_matches_graph(y, board(path, [1, 2]))
    assert config_matches_graph(y, board(path, [1, 2], [0, 1, 2, 3]))
    # a detour through 9 lifts 0-1 and 1-2 but not the later 2-3: types 1,2,0
    partial = board([(0, 1), (1, 2), (2, 9)], [1, 2], [0, 1, 2, 9])
    partial.remove_edge(2, 9)
    partial.add_edge(2, 3)
    assert not config_matches_graph(y, partial)
    # the seed 0-1 lifted twice by detours through 8 and 9
    twice = board([(8, 0), (0, 1), (1, 9)], [0, 1], [8, 0, 1, 9])
    twice.remove_edge(0, 8)
    twice.remove_edge(1, 9)
    assert not config_matches_graph(cfg_of(4, ["0"]), twice)
    # same edge count, but 2-3 is missing
    assert not config_matches_graph(y, board([(0, 1), (1, 2), (5, 6)], [1, 2]))
    # every string realised, plus one live edge no string covers
    assert not config_matches_graph(y, board(path + [(5, 6)], [1, 2]))


def test_29_a_used_adversary_refuses_a_second_game():
    adv = StringGameAdversary(4)
    assert drive(adv, GreedyMatcher(4, LIMITED)) == SCRIPT_COMPLETE
    moves, strings = adv.moves, list(adv.cfg.strings)
    second = adv.play(GreedyMatcher(4, LIMITED))
    with pytest.raises(UsedAdversaryError) as err:
        next(second)
    assert err.value.code == "used-adversary"
    assert adv.moves == moves and adv.cfg.strings == strings
    assert adv.outcome == SCRIPT_COMPLETE


@pytest.mark.parametrize("k", [10, 12])
def test_30_text_round_trips_every_family(k):
    for digits, label in playbook(k).items():
        for reading in (digits, digits[::-1]):
            text = PathString(reading, range(len(reading) + 1)).text()
            cfg = StringConfig.from_digits(k, 0.05, [text])
            assert cfg.strings[0].digits == reading
            assert Counter(cfg.labels.values()) == {label: 1}
    assert PathString((0, 1, 10, 1, 0), range(6)).text() == "0-1-10-1-0"


@pytest.mark.parametrize("k", [4, 6, 8])
def test_31_playbook_table_agrees_with_the_rules(k):
    table = playbook(k)
    for length in range(1, 6):
        for digits in itertools.product(range(k + 1), repeat=length):
            try:
                label = classify_string(digits, k)
            except IllegalTransitionError:
                label = None
            assert label == table.get(min(digits, digits[::-1])), digits
    for digits, label in table.items():
        assert classify_string(digits, k) == label == classify_string(digits[::-1], k)
    for stray in [(), (1,), (0, 2, 0), (0, k + 1, 0), ramp4(k + 2)]:
        with pytest.raises(IllegalTransitionError):
            classify_string(stray, k)


def test_32_replace_keeps_the_list_order_wherever_the_old_string_lies():
    # the board scan queues flipped strings in list order, so ``replace``
    # must put the new strings exactly where the old one stood, whether the
    # old string lies after the previous insert position or before it
    cfg = cfg_of(4, ["0", "010", "01210", "0"])
    a, b, c, d = cfg.strings
    fresh = fresh_from(100)

    def pieces(n):
        return [PathString((0,), (fresh(), fresh())) for _ in range(n)]

    e, f = pieces(2)
    cfg.replace(c, [e, f])
    assert cfg.strings == [a, b, e, f, d]
    (g,) = pieces(1)
    cfg.replace(f, [g])  # found from the previous insert position
    assert cfg.strings == [a, b, e, g, d]
    h, i = pieces(2)
    cfg.replace(a, [h, i])  # before it: the full scan finds it
    assert cfg.strings == [h, i, b, e, g, d]
    cfg.replace(d, [])
    assert cfg.strings == [h, i, b, e, g]
    assert sum(cfg.totals.values()) == len(cfg.labels) == 5


def test_33_every_playbook_string_has_a_legal_answer_inside_the_playbook():
    # the playbook is closed: every string it names, read either way and in
    # any phase, is refused exactly when its flip would pass the budget, and
    # is otherwise answered by a legal batch of settled playbook strings
    cases = 0
    for k in range(4, 17, 2):
        for digits in playbook(k):
            readings = (digits, digits[::-1])
            for reading, phase in itertools.product(readings, (1, 2, 3)):
                old = PathString(reading, range(len(reading) + 1))
                fresh = fresh_from(len(reading) + 1)
                cases += 1
                if max(reading) + 1 > k:
                    with pytest.raises(IllegalTransitionError):
                        augment_response(old, k, phase, fresh)
                    continue
                out = augment_response(old, k, phase, fresh)
                compile_strings_to_events(out, [_increment(old)], k)
                for s in out:
                    assert s.digits[0] == 0 == s.digits[-1], (k, reading, phase)
                    classify_string(s.digits, k)  # ``replace`` labels spent ones too
    assert cases == 954


def test_34_classify_string_memory_follows_the_string_not_the_budget():
    # no other test uses k = 1002, so nothing an earlier test cached can
    # hide a per-budget cost here
    k = 1002
    w = w_digits(k // 2)
    for digits, label in [((0,), ("seed", 0)), (w, ("w", k // 2))]:
        tracemalloc.start()
        try:
            assert classify_string(digits, k) == label
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (label, peak)


def test_35_a_trillion_budget_labels_and_plays():
    k = 10**12
    assert classify_string(w_digits(5), k) == ("w", 5)
    assert classify_string((0, 1, k, 1, 0), k) == ("a", k)
    assert classify_string((0, k - 1, 0), k) == ("a", k)
    report = duel(StringGameAdversary(k), GreedyMatcher(k, LIMITED), max_moves=50)
    assert report.stop_reason == MOVE_CAP
    assert report.bound_violations == 0


def test_36_a_budget_past_the_float_range_is_refused():
    for k in (2**1100, 10**400):
        with pytest.raises(BadBudgetError) as err:
            StringGameAdversary(k)
        assert err.value.code == "bad-k"
    report = duel(StringGameAdversary(10**300), GreedyMatcher(10**300, LIMITED), max_moves=50)
    assert report.stop_reason == MOVE_CAP
    assert report.bound_violations == 0
