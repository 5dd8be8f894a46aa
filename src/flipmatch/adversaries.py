"""Hard instances and adaptive opponents for the online matchers.

Two kinds of pressure live here.  The stream builders return fixed arrival
sequences that starve a specific matcher down to its worst-case ratio when
replayed.  The adversary classes instead play an interactive duel: they feed
events in batches, watch how the matcher reacted, and either walk it into a
fully blocked terminal configuration or stop the moment it declines an
augmentation it cannot afford to skip.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .bounds import BadBudgetError, det_lower_bound, require_int
from .core import Event, arrive, depart

# duel outcomes
SCRIPT_COMPLETE = "script-complete"
EXPECTATION_MISS = "expectation-miss"
MOVE_CAP = "move-cap"


# ----------------------------------------------------------------------
# fixed streams


def greedy_lb_stream(k: int, n: int) -> list[Event]:
    """Arrival sequence that pins the eager matcher at its worst ratio.

    A chain of 2n+1 edges is matched on arrival, then rerouted through
    connector edges and re-augmented end to end until the chain edges burn
    their whole flip budget.  Pendant edges arriving last are usable only by
    the optimum.  Replayed against ``GreedyMatcher`` the terminal sizes are
    (2n + k, 3n + k) for even budgets and (2n + k, 4n + k + 1) for odd ones.
    """
    require_int(k, 2, "the starvation chain's budget", BadBudgetError)
    require_int(n, 0, "chain parameter n")
    ids = itertools.count(1)  # 1-based so streams serialize verbatim
    a = [next(ids) for _ in range(2 * n + 1)]
    b = [next(ids) for _ in range(2 * n + 1)]
    events = [arrive(a[i], b[i]) for i in range(2 * n + 1)]
    # connectors, fed left to right; only the last one completes an
    # augmenting path, which then spans the whole chain
    left, right = next(ids), next(ids)
    events.append(arrive(left, a[0]))
    events.extend(arrive(b[i], a[i + 1]) for i in range(2 * n))
    events.append(arrive(b[2 * n], right))
    # k-2 rounds of end extensions; each second arrival re-augments the
    # full path and lifts every interior edge by one flip
    for _ in range(k - 2):
        x, y = next(ids), next(ids)
        events.append(arrive(x, left))
        events.append(arrive(right, y))
        left, right = x, y
    # pendants the matcher can no longer reach: the chain edges sit at
    # type k, so their endpoints are walled off (every chain edge for odd
    # budgets, every other one for even budgets where the chain edges end
    # unmatched)
    step = 1 if k % 2 else 2
    for i in range(0, 2 * n + 1, step):
        events.append(arrive(a[i], next(ids)))
        events.append(arrive(b[i], next(ids)))
    return events


def lgreedy_lb_stream(k: int, L: int, copies: int = 1) -> list[Event]:
    """Starve the length-capped matcher via swings just inside its cap.

    Each copy builds a spine of 2L-3 edges and then alternates hook and stub
    arrivals so that swings of length 2L-1 and 2L+1 reroute the spine back
    and forth, two flips per round, until its seed edges are spent.  Pendant
    pairs then land where only the optimum can use them: the matcher sees
    those components as blocked because they contain a spent edge.  Against
    ``LGreedyMatcher(k, L)`` each copy ends at exactly
    ``(L + k - 3, 3*((L - 1) // 2) + k - 2)``.
    """
    require_int(k, 4, "the swing construction's budget", BadBudgetError, even=True)
    require_int(L, 3, "length cap parameter L")
    require_int(copies, 1, "copies")
    ids = itertools.count(1)  # 1-based so streams serialize verbatim
    events: list[Event] = []
    for _ in range(copies):
        events.extend(_lgreedy_lb_copy(k, L, ids))
    return events


def _lgreedy_lb_copy(k: int, L: int, ids: Iterator[int]) -> list[Event]:
    spine = [next(ids) for _ in range(2 * L - 2)]
    events = []
    # seed edges match on arrival ...
    for i in range(1, 2 * L - 4, 2):
        events.append(arrive(spine[i], spine[i + 1]))
    # ... then connectors arrive left to right; the last one exposes the
    # whole spine as one augmenting component of length 2L-3
    for i in range(0, 2 * L - 3, 2):
        events.append(arrive(spine[i], spine[i + 1]))
    left, right = spine[0], spine[-1]
    for _ in range(k // 2 - 1):
        hook_l, hook_r = next(ids), next(ids)
        events.append(arrive(hook_l, left))  # idle: one end stays matched
        events.append(arrive(right, hook_r))  # swing of length 2L-1 applies
        events.append(arrive(hook_l, next(ids)))  # idle stub
        events.append(arrive(hook_r, next(ids)))  # swing of length 2L+1 applies
    # pendant pairs across spent seed edges; the optimum reroutes around
    # them but the matcher's view of each pair is blocked
    for i in range(3 * ((L - 1) // 2) - L + 1):
        events.append(arrive(spine[4 * i], next(ids)))
        events.append(arrive(spine[4 * i + 3], next(ids)))
    return events


# ----------------------------------------------------------------------
# adaptive adversaries


class ScriptedAdversary:
    """Base class for opponents that feed event batches and check replies.

    ``play`` yields batches of events; the caller feeds each batch to the
    matcher and resumes the generator, which then inspects the matcher's
    matching before deciding how to continue.  ``outcome`` is set when the
    generator finishes: either the script ran to its blocked terminal
    configuration or the matcher missed a forced augmentation.
    """

    name = "adversary"
    target = 1.0  # the ratio this opponent is built to force

    def __init__(self) -> None:
        self.outcome: str | None = None
        self._ids = itertools.count()

    def _fresh(self) -> int:
        return next(self._ids)

    def play(self, matcher) -> Iterator[list[Event]]:
        raise NotImplementedError

    def _check(self, matcher, size: int) -> bool:
        """Record a miss unless the matcher holds exactly ``size`` edges."""
        if matcher.graph.matching_size() == size:
            return True
        self.outcome = EXPECTATION_MISS
        return False


class DetLowerBoundAdversary(ScriptedAdversary):
    """Forces any matcher to ratio 1 + 1/(k-1) or into a blocked terminal.

    The duel grows a single alternating path by extending both ends after
    every forced augmentation, so the interior types climb by one per round
    until the middle edge is spent.  Pendants then open augmenting paths the
    matcher must still take, each answered by another extension, until every
    remaining augmenting path runs through a spent edge.  A matcher that
    declines anywhere before that point leaves the witnessed ratio at or
    above the target; for budget 3 a fully cooperating matcher is instead
    walked through ``depth`` pendant rounds and ends at exactly
    (3*depth + 2) / (2*depth + 2).
    """

    def __init__(self, k: int, depth: int = 50):
        require_int(k, 3, "the blocked-path duel's budget", BadBudgetError)
        require_int(depth, 1, "duel depth")
        super().__init__()
        self.k = k
        self.depth = depth
        self.name = f"det-lb-k{k}"
        self.target = det_lower_bound(k)
        if k == 3:
            self.terminal = (2 * depth + 2, 3 * depth + 2)
        elif k % 2 == 0:
            self.terminal = (k + 2, k + 4)
        else:
            self.terminal = (k + 4, k + 7)

    def play(self, matcher) -> Iterator[list[Event]]:
        if self.k == 3:
            yield from self._play_pendant_rounds(matcher)
        elif self.k % 2 == 0:
            yield from self._play_even(matcher)
        else:
            yield from self._play_odd(matcher)

    # -- shared growth phase ------------------------------------------

    def _grow(self, matcher):
        """Stretch one path until its middle edge reaches type k.

        Returns the path's vertices left to right, or None if the matcher
        declined an augmentation (at sizes alg = j-1 vs opt = j, so the
        witnessed ratio j/(j-1) is at or above the target for all j <= k).
        """
        f = self._fresh
        lo, hi = f(), f()
        path = [lo, hi]
        yield [arrive(lo, hi)]
        if not self._check(matcher, 1):
            return None
        for size in range(2, self.k + 1):
            lo, hi = f(), f()
            yield [arrive(lo, path[0]), arrive(path[-1], hi)]
            if not self._check(matcher, size):
                return None
            path.insert(0, lo)
            path.append(hi)
        return path

    # -- budget 3: repeatable pendant rounds ---------------------------

    def _play_pendant_rounds(self, matcher) -> Iterator[list[Event]]:
        f = self._fresh
        u, v = f(), f()
        yield [arrive(u, v)]
        if not self._check(matcher, 1):
            return
        pu, pv = f(), f()
        yield [arrive(pu, u), arrive(v, pv)]
        if not self._check(matcher, 2):
            return
        alg = 2
        for _ in range(self.depth):
            # extend both ends: the matcher must apply the length-5 path
            # (declining leaves it at ratio exactly 3/2)
            x, y = f(), f()
            yield [arrive(x, pu), arrive(pv, y)]
            alg += 1
            if not self._check(matcher, alg):
                return
            # pendants around the now spent middle edge are dead weight for
            # the matcher; the pair on the surviving type-1 edge opens the
            # next round's short augmenting path
            c1, c2, w1, w2 = f(), f(), f(), f()
            yield [arrive(u, c1), arrive(v, c2), arrive(pv, w1), arrive(y, w2)]
            alg += 1
            if not self._check(matcher, alg):
                return
            u, v, pu, pv = pv, y, w1, w2
        self.outcome = SCRIPT_COMPLETE

    # -- even budgets --------------------------------------------------

    def _play_even(self, matcher) -> Iterator[list[Event]]:
        path = yield from self._grow(matcher)
        if path is None:
            return
        k, f = self.k, self._fresh
        a, b, c, d = path[k - 2 : k + 2]
        pa, pb, pc, pd = f(), f(), f(), f()
        # pendants at the endpoints of both type k-1 edges open two short
        # augmenting paths; skipping them would freeze the ratio at
        # (k+2)/k, above the target
        yield [arrive(a, pa), arrive(b, pb), arrive(c, pc), arrive(d, pd)]
        if not self._check(matcher, k + 2):
            return
        # both middle edges are spent now; the outer pendants only feed
        # the optimum
        yield [arrive(pa, f()), arrive(pb, f()), arrive(pc, f()), arrive(pd, f())]
        self.outcome = SCRIPT_COMPLETE

    # -- odd budgets -----------------------------------------------------

    def _play_odd(self, matcher) -> Iterator[list[Event]]:
        path = yield from self._grow(matcher)
        if path is None:
            return
        k, f = self.k, self._fresh
        a, b, c, d = path[k - 2 : k + 2]
        head, tail = path[0], path[-1]
        ph, pa, pb, pc, pd, pt = (f() for _ in range(6))
        # the middle edge is matched at type k, so only the two runs from a
        # path end to a type k-1 edge stay augmentable; skipping both would
        # freeze the ratio at (k+3)/k
        yield [
            arrive(ph, head),
            arrive(a, pa),
            arrive(b, pb),
            arrive(c, pc),
            arrive(tail, pt),
            arrive(d, pd),
        ]
        if not self._check(matcher, k + 2):
            return
        hh, aa = f(), f()
        yield [arrive(ph, hh), arrive(pa, aa)]
        if not self._check(matcher, k + 3):
            return
        yield [arrive(hh, f()), arrive(aa, f())]
        tt, dd = f(), f()
        yield [arrive(pt, tt), arrive(pd, dd)]
        if not self._check(matcher, k + 4):
            return
        yield [arrive(tt, f()), arrive(dd, f())]
        self.outcome = SCRIPT_COMPLETE


class FullDepartureAdversary(ScriptedAdversary):
    """Churns one short path to force ratio 2 when matched edges depart.

    The two side edges arrive and depart over and over; every cycle the
    matcher is forced to flip the middle edge twice, so its type climbs
    until the budget is gone.  An even budget leaves the middle edge
    stranded unmatched (sizes 0 vs 1), an odd one leaves it matched but the
    sides unmatched (1 vs 2).
    """

    def __init__(self, k: int):
        require_int(k, 1, "budget", BadBudgetError)
        super().__init__()
        self.k = k
        self.name = f"full-departure-k{k}"
        self.target = 2.0
        self.terminal = (1, 2) if k % 2 else (0, 1)

    def play(self, matcher) -> Iterator[list[Event]]:
        yield [arrive(2, 3)]
        if not self._check(matcher, 1):
            return
        etype = 1
        while etype + 2 <= self.k:
            yield [arrive(1, 2), arrive(3, 4)]
            if not self._check(matcher, 2):  # flips the middle up once
                return
            yield [depart(1, 2)]
            yield [depart(3, 4)]
            if not self._check(matcher, 1):  # re-matching flips it again
                return
            etype += 2
        yield [arrive(1, 2), arrive(3, 4)]
        if etype < self.k:
            # even budget: one final climb, then strand the middle edge
            if not self._check(matcher, 2):
                return
            yield [depart(1, 2)]
            yield [depart(3, 4)]
            if not self._check(matcher, 0):
                return
        elif not self._check(matcher, 1):
            # odd budget: the middle edge is spent and blocks both sides
            return
        self.outcome = SCRIPT_COMPLETE

