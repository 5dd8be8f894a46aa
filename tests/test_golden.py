"""Golden digests pin every decision the matchers make on a fixed set of runs.

Each unit is one replay, duel or seeded churn run. Its digest is the SHA-256
of ``json.dumps(RunReport.to_dict(), sort_keys=True)``, so a changed
augmenting path, matching size, flip count or phase moves it. The committed
digests live in ``golden/digests.json``. A change that moves a digest on
purpose regenerates them by running this module as a script,

    PYTHONPATH=src python tests/test_golden.py

and records the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from flipmatch.adversaries import (
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from flipmatch.algos import GreedyMatcher, LGreedyMatcher, make_matcher
from flipmatch.core import ARRIVAL, FULL, LIMITED
from flipmatch.harness import duel, random_churn, replay
from flipmatch.stringgame import StringGameAdversary

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

MATCHERS = ("greedy", "lgreedy", "amp")
BUDGETS = (4, 6, 8)
DUELS = {
    "det-lb": (DetLowerBoundAdversary, ARRIVAL),
    "full-departure": (FullDepartureAdversary, FULL),
    "string-game": (StringGameAdversary, LIMITED),
}
CHURN_MODELS = (LIMITED, FULL, ARRIVAL)
CHURN_BUDGETS = range(2, 9)
CHURN_SEEDS = range(30)
CHURN_EVENTS = 30


def _chain(k: int):
    return replay(greedy_lb_stream(k, 40), GreedyMatcher(k, ARRIVAL))


def _swing_chain():
    return replay(lgreedy_lb_stream(8, 6, copies=3), LGreedyMatcher(8, L=6, model=ARRIVAL))


def _duel(kind: str, k: int, name: str):
    adversary, model = DUELS[kind]
    return duel(adversary(k), make_matcher(name, k, model))


def _churn(model: str, k: int, name: str, seed: int):
    return random_churn(random.Random(seed), make_matcher(name, k, model), CHURN_EVENTS)


def units() -> list[tuple[str, object, tuple]]:
    """(label, function, arguments) of every pinned run, in a fixed order."""
    pinned = [(f"chain greedy k={k} n=40", _chain, (k,)) for k in (3, 4, 6)]
    pinned.append(("swing-chain lgreedy k=8 L=6 copies=3", _swing_chain, ()))
    pinned += [
        (f"duel {kind} k={k} {name}", _duel, (kind, k, name))
        for kind in DUELS
        for k in BUDGETS
        for name in MATCHERS
    ]
    pinned += [
        (f"churn {model} k={k} {name} seed={seed}", _churn, (model, k, name, seed))
        for model in CHURN_MODELS
        for k in CHURN_BUDGETS
        for name in MATCHERS
        for seed in CHURN_SEEDS
    ]
    return pinned


def digests() -> dict[str, str]:
    out = {}
    for label, fn, args in units():
        text = json.dumps(fn(*args).to_dict(), sort_keys=True)
        out[label] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_decisions_match_the_golden_digests():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    moved = sorted(label for label in want.keys() & got.keys() if want[label] != got[label])
    dropped = sorted(want.keys() - got.keys())
    unpinned = sorted(got.keys() - want.keys())
    assert not (moved or dropped or unpinned), (
        f"moved: {moved}; pinned but no longer run: {dropped}; run but not pinned: {unpinned}"
    )


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(DIGESTS.read_text()))} digests to {DIGESTS}")
