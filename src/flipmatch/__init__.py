"""Online maximum matching with a per-edge flip budget.

Edges arrive (and, depending on the model, depart) one at a time; a matcher
may rebuild its matching along augmenting paths, but every edge tolerates at
most ``k`` matched/unmatched flips before its decision freezes.  The package
provides the dynamic graph and optimum oracle, three online matchers, the
adaptive opponents that force the known lower bounds, and a harness that
replays, referees, and tabulates.
"""

from .adversaries import (
    EXPECTATION_MISS,
    MOVE_CAP,
    SCRIPT_COMPLETE,
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from .algos import (
    AmpMatcher,
    GreedyMatcher,
    LGreedyMatcher,
    OnlineMatcher,
    WeightLedger,
    amp_phase_violations,
    make_matcher,
)
from .bounds import (
    amp_bound_improved,
    amp_bound_original,
    amp_default_r,
    dep_lower_bound,
    det_lower_bound,
    greedy_bound,
    lgreedy_bound,
    lgreedy_default_L,
    lgreedy_lower_bound,
)
from .core import (
    ARRIVAL,
    ARRIVE,
    DEPART,
    FULL,
    LIMITED,
    MODELS,
    Event,
    Graph,
    arrive,
    depart,
    is_augmenting,
    symmetric_difference,
)
from .harness import (
    RunReport,
    StepRecord,
    duel,
    emit_bound_table,
    parse_stream,
    random_arrival_stream,
    random_churn,
    ratio_of,
    replay,
    write_stream,
)
from .oracle import OracleState, brute_force_max_matching
from .stringgame import (
    MATCHER_STALLED,
    StringConfig,
    StringGameAdversary,
    config_matches_graph,
    string_game_adversary,
)

__version__ = "0.1.0"

__all__ = [
    "ARRIVAL",
    "ARRIVE",
    "DEPART",
    "EXPECTATION_MISS",
    "FULL",
    "LIMITED",
    "MATCHER_STALLED",
    "MODELS",
    "MOVE_CAP",
    "SCRIPT_COMPLETE",
    "AmpMatcher",
    "DetLowerBoundAdversary",
    "Event",
    "FullDepartureAdversary",
    "Graph",
    "GreedyMatcher",
    "LGreedyMatcher",
    "OnlineMatcher",
    "OracleState",
    "RunReport",
    "StepRecord",
    "StringConfig",
    "StringGameAdversary",
    "WeightLedger",
    "amp_bound_improved",
    "amp_bound_original",
    "amp_default_r",
    "amp_phase_violations",
    "arrive",
    "brute_force_max_matching",
    "config_matches_graph",
    "dep_lower_bound",
    "depart",
    "det_lower_bound",
    "duel",
    "emit_bound_table",
    "greedy_bound",
    "greedy_lb_stream",
    "is_augmenting",
    "lgreedy_bound",
    "lgreedy_default_L",
    "lgreedy_lb_stream",
    "lgreedy_lower_bound",
    "make_matcher",
    "parse_stream",
    "random_arrival_stream",
    "random_churn",
    "ratio_of",
    "replay",
    "string_game_adversary",
    "symmetric_difference",
    "write_stream",
]
