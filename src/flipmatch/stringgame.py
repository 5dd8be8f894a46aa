"""Adaptive adversary that forces the arrival+departure lower bound.

Play happens on vertex-disjoint paths.  Each path is tracked as the string
of its edge types: parities alternate along the path, every settled string
starts and ends in 0, and the only augmentation a path ever offers flips
the whole component, raising every entry by one.  The adversary waits for
such a flip and answers with departures of unmatched edges (splitting the
string), a fresh edge joining two split ends (merging), and fresh 0-edges
glued to the outer endpoints (padding).  A short playbook of per-family
responses steers the multiset of strings through up to three phases until
every string has a spent edge, at which point the surviving strings pin
the matcher's ratio.  A matcher that declines to flip anything is stopped
early and scored at whatever ratio it reached.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Callable, Iterable, Iterator, Sequence

from .adversaries import EXPECTATION_MISS, SCRIPT_COMPLETE, ScriptedAdversary
from .bounds import BadBudgetError, BadParamsError, dep_lower_bound, require_int
from .core import Event, Graph, arrive, depart

MATCHER_STALLED = "matcher-stalled"


class OddKError(ValueError):
    """The string game needs an even flip budget."""

    code = "odd-k"


class EpsilonTooLargeError(ValueError):
    """Slack so large that phase one would end before the first string."""

    code = "epsilon-too-large"


class IllegalTransitionError(ValueError):
    """A move set no legal adversary step could have produced."""

    code = "illegal-transition"


class BadStringError(ValueError):
    """A path string that no graph path could realise."""

    code = "bad-string"


class UsedAdversaryError(RuntimeError):
    """A second game from an adversary whose configuration is already played."""

    code = "used-adversary"


# ----------------------------------------------------------------------
# strings and configurations


class PathString:
    """One path component: its edge types plus the vertex walk under them."""

    __slots__ = ("digits", "verts")

    def __init__(self, digits: Sequence[int], verts: Sequence[int]):
        self.digits = tuple(digits)
        self.verts = tuple(verts)

    def canonical(self) -> tuple[int, ...]:
        return min(self.digits, self.digits[::-1])

    def blocked(self, k: int) -> bool:
        return max(self.digits) >= k

    def text(self) -> str:
        sep = "" if max(self.digits) < 10 else "-"
        return sep.join(str(d) for d in self.digits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathString({self.text()})"


def _increment(s: PathString) -> PathString:
    return PathString([d + 1 for d in s.digits], s.verts)


class StringConfig:
    """A multiset of path strings, its family counts, and the game's phase.

    ``replace`` keeps in step each string's playbook label, the strings per
    family (``totals``), and the reservoir sums over the ("a", j) pairs:
    sum (j^2-4j+7)n (``pair_weight``) and sum (j-3)n (``pair_slack``).
    """

    def __init__(
        self,
        k: int,
        epsilon: float,
        strings: Iterable[PathString] = (),
        phase: int = 1,
    ):
        self.k = k
        self.epsilon = epsilon
        self.strings: list[PathString] = []
        self._at = 0  # where the last ``replace`` put its strings
        self.phase = phase
        self.labels: dict[PathString, tuple[str, int]] = {}
        self.totals: Counter = Counter()
        self.pair_weight = self.pair_slack = 0
        self.replace(None, list(strings))

    @classmethod
    def from_digits(
        cls, k: int, epsilon: float, specs: Iterable, phase: int = 1
    ) -> "StringConfig":
        """Build a config from digit strings, inventing disjoint vertices."""
        strings = []
        base = 0
        for spec in specs:
            digits = _as_digits(spec)
            verts = tuple(range(base, base + len(digits) + 1))
            base += len(digits) + 1
            strings.append(PathString(digits, verts))
        return cls(k, epsilon, strings, phase)

    def replace(self, old: PathString | None, new: Sequence[PathString]) -> None:
        """Put ``new`` where ``old`` stood, or after the last string if None.

        The string a move answers is most often one the previous move put
        in, so the search for ``old`` starts where those went and falls
        back to a full scan. A string is in the list at most once, so
        either finds the same position.
        """
        if old is None:
            at = end = len(self.strings)
        else:
            try:
                at = self.strings.index(old, self._at)
            except ValueError:
                at = self.strings.index(old)
            end = at + 1
            self._count(self.labels.pop(old), -1)
        self.strings[at:end] = new
        self._at = at
        for s in new:
            label = self.labels[s] = classify_string(s.digits, self.k)
            self._count(label, 1)

    def _count(self, label: tuple[str, int], n: int) -> None:
        family, j = label
        self.totals[family] += n
        if family == "a":
            self.pair_weight += (j * j - 4 * j + 7) * n
            self.pair_slack += (j - 3) * n


def validate_strings(
    strings: Iterable[PathString], k: int
) -> dict[tuple[int, int], int]:
    """Edge types by sorted vertex pair, once a graph of budget ``k`` could
    hold the strings; ``BadStringError`` otherwise."""
    edges: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    for s in strings:
        if len(s.verts) != len(s.digits) + 1 or not s.digits:
            raise BadStringError(f"string {s.digits} / walk {s.verts} mismatch")
        parity = s.digits[0] % 2
        for d, u, v in zip(s.digits, s.verts, s.verts[1:]):
            if d % 2 != parity:
                raise BadStringError(f"types {s.digits} do not alternate")
            if not 0 <= d <= k:
                raise BadStringError(f"type {d} outside budget {k}")
            edges[(u, v) if u < v else (v, u)] = d
            parity ^= 1
        before = len(seen)
        seen.update(s.verts)
        if len(seen) != before + len(s.verts):
            raise BadStringError(f"walk {s.verts} reuses a vertex")
    return edges


def _as_digits(spec) -> tuple[int, ...]:
    if isinstance(spec, str):
        return tuple(int(part) for part in (spec.split("-") if "-" in spec else spec))
    return tuple(spec)


def config_sizes(cfg: StringConfig) -> tuple[int, int]:
    """(matcher size, optimum size): odd entries vs even entries."""
    alg = sum(1 for s in cfg.strings for d in s.digits if d % 2 == 1)
    opt = sum(1 for s in cfg.strings for d in s.digits if d % 2 == 0)
    return alg, opt


# ----------------------------------------------------------------------
# the string families


def classify_string(digits: Sequence[int], k: int) -> tuple[str, int]:
    """Sort a settled string into its playbook family.

    Families, in order of precedence: "seed" (a single 0), "y" (010 and
    01210), "x" (01010), ("a", j) for the reservoir pairs 0,j-1,0 /
    0,1,j,1,0 with even 4 <= j <= k, ("w", j) for the double-peak strings
    0..j,j-1,j..0 with 2 <= j <= k-2, and ("v", m) for the four ramps that
    climb 0..k-4+m and fall m-1..0. A family's length fixes its j or m, so
    each family builds at most one form and compares it with the lesser
    reading: the cost follows the string's length, not k.
    Anything else is outside the playbook and raises.
    """
    d = tuple(digits)
    c = min(d, d[::-1])
    n = len(c)
    if c == (0,):
        return ("seed", 0)
    if c in ((0, 1, 0), (0, 1, 2, 1, 0)):
        return ("y", 0)
    if c == (0, 1, 0, 1, 0):
        return ("x", 0)
    if n in (3, 5):
        j = c[1] + 1 if n == 3 else c[2]
        form = (0, j - 1, 0) if n == 3 else (0, 1, j, 1, 0)
        if c == form and j % 2 == 0 and 4 <= j <= k:
            return ("a", j)
    j = (n - 3) // 2
    if 2 <= j <= k - 2 and c == tuple(range(j + 1)) + (j - 1,) + tuple(range(j, -1, -1)):
        return ("w", j)
    m = (n + 3 - k) // 2  # a ramp climbs first, so it is its own lesser reading
    if 1 <= m <= 4 and c == tuple(range(k - 3 + m)) + tuple(range(m - 1, -1, -1)):
        return ("v", m)
    raise IllegalTransitionError(f"string {c} is outside the playbook")


# ----------------------------------------------------------------------
# the playbook: how a freshly flipped string is answered


def _split(s: PathString, drop: Sequence[int]) -> list[PathString]:
    pieces = []
    lo = 0
    for i in sorted(drop):
        pieces.append(PathString(s.digits[lo:i], s.verts[lo : i + 1]))
        lo = i + 1
    pieces.append(PathString(s.digits[lo:], s.verts[lo:]))
    if any(not p.digits for p in pieces):
        raise IllegalTransitionError(f"split of {s.digits} at {drop} leaves a stub")
    return pieces


def _join(a: PathString, b: PathString) -> PathString:
    return PathString(a.digits + (0,) + b.digits, a.verts + b.verts)


def _pad(s: PathString, fresh: Callable[[], int]) -> PathString:
    return PathString((0,) + s.digits + (0,), (fresh(),) + s.verts + (fresh(),))


def augment_response(
    old: PathString, k: int, phase: int, fresh: Callable[[], int]
) -> list[PathString]:
    """Replacement strings after the matcher flips ``old`` up by one.

    ``old`` is the string before the flip; the result is what the adversary
    leaves in its place.  Splits only ever delete freshly unmatched (even)
    edges, merges happen around a fresh 0-edge, and every replacement ends
    settled (0 at both ends), so the move set is legal in the model where
    matched edges cannot depart.
    """
    return _respond(_increment(old), classify_string(old.digits, k), k, phase, fresh)


def _respond(
    t: PathString, label: tuple[str, int], k: int, phase: int, fresh: Callable[[], int]
) -> list[PathString]:
    """``augment_response`` for a string of playbook ``label`` flipped up to ``t``.

    Every answer has one shape: drop the freshly unmatched edges at
    ``drop``, join the first and last pieces around a fresh 0-edge when
    ``join`` holds, then pad every piece. A family only picks the two.
    """
    if max(t.digits) > k:
        raise IllegalTransitionError(f"string {t.digits} was spent before its flip")
    family, j = label
    drop, join = (), False
    to_ramp = family == "y" and k == 4 and phase >= 3  # padded onto the ramps
    if family in ("y", "a") and len(t.digits) == 5 and not to_ramp:
        drop, join = (1, 3), True
    elif family == "x" and phase == 1:
        drop = (1,)
    elif family == "w" and j >= k - 2:
        drop = tuple(i for i, d in enumerate(t.digits) if d == k - 2)
        join = k == 4 and phase == 2
    pieces = _split(t, drop)
    if join:
        pieces = [_join(pieces[0], pieces[-1]), *pieces[1:-1]]
    return [_pad(p, fresh) for p in pieces]


# ----------------------------------------------------------------------
# configurations <-> event batches


def compile_strings_to_events(
    new: Sequence[PathString], prev: Sequence[PathString], k: int
) -> list[Event]:
    """Event batch that rewrites the realised strings ``prev`` into ``new``.

    ``prev`` is the state right after the matcher's flip (so its strings may
    start and end odd); ``new`` is what the adversary wants on the board.
    Only unmatched (even) edges may depart, every arriving edge must be a
    0-edge, and surviving edges keep their type; anything else raises
    ``IllegalTransitionError``.
    """
    new_edges = validate_strings(new, k)
    old_edges = validate_strings(prev, k)
    old_verts = {v for s in prev for v in s.verts}

    departures = []
    for key, d in old_edges.items():
        now = new_edges.get(key)
        if now is None:
            if d % 2 == 1:
                raise IllegalTransitionError(f"matched edge {key} cannot depart")
            departures.append(key)
        elif now != d:
            raise IllegalTransitionError(f"edge {key} changed type {d} -> {now}")

    merges, pads = [], []
    for key, d in new_edges.items():
        if key in old_edges:
            continue
        if d != 0:
            raise IllegalTransitionError(f"arriving edge {key} would need type {d}")
        u, v = key
        (merges if u in old_verts and v in old_verts else pads).append(key)

    events = [depart(u, v) for u, v in sorted(departures)]
    return events + [arrive(u, v) for u, v in sorted(merges) + sorted(pads)]


def _flipped(g: Graph, strings: Iterable[PathString]) -> list[PathString] | None:
    """The strings ``g`` shows flipped whole; None once one is not realised.

    A string is realised when every edge is live and either all of them kept
    their type or all of them rose by exactly one.
    """
    rows = g.rows
    out = []
    for s in strings:
        try:
            lifts = {
                rows[u][v].etype - d
                for d, u, v in zip(s.digits, s.verts, s.verts[1:])
            }
        except KeyError:  # an edge of the string is gone
            return None
        if lifts == {1}:
            out.append(s)
        elif lifts != {0}:
            return None
    return out


def config_matches_graph(cfg: StringConfig, g: Graph) -> bool:
    """True when the graph realises every string, up to whole-string flips."""
    if len(g.edges) != sum(len(s.digits) for s in cfg.strings):
        return False
    return _flipped(g, cfg.strings) is not None


# ----------------------------------------------------------------------
# phase bookkeeping


def invariant_threshold(cfg: StringConfig) -> bool:
    """Reservoir test that ends phase one (and must then keep holding)."""
    rhs = (4 * cfg.k - 12) / cfg.epsilon - (cfg.k - 1)
    return cfg.pair_weight > rhs if cfg.k == 4 else cfg.pair_weight >= rhs


def invariant_balance(cfg: StringConfig) -> bool:
    """Live strings never outgrow the reservoir once phase one is over."""
    t = cfg.totals
    lhs = 2 * (t["x"] + t["w"]) + t["y"] + (cfg.k - 4) * t["v"]
    return lhs <= 1 + cfg.pair_slack


# ----------------------------------------------------------------------
# the adversary


class StringGameAdversary(ScriptedAdversary):
    """Plays the string game against any matcher over a shared event feed.

    Yields one batch per move: the seed edge first, then one playbook
    response for each whole-string flip it observes.  The duel ends in
    ``script-complete`` when every string is spent, in ``matcher-stalled``
    when live strings remain but the matcher declines to flip any of them,
    and in ``expectation-miss`` if the matcher's graph stops looking like
    the configuration at all. An adversary plays one game: a second
    ``play`` raises ``UsedAdversaryError`` before any event.
    """

    def __init__(self, k: int, epsilon: float = 0.05):
        super().__init__()
        require_int(k, -math.inf, "budget", BadBudgetError)  # parity is refused first
        if k % 2 != 0:
            raise OddKError(f"string game needs an even budget, got {k}")
        require_int(k, 4, "budget", BadBudgetError)
        try:
            float(4 * k - 12)  # ``invariant_threshold`` divides it by the slack
        except OverflowError:
            raise BadBudgetError(
                f"budget of {k.bit_length()} bits is past the float range"
            ) from None
        if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool) or not epsilon > 0:
            raise BadParamsError(f"need a positive slack, got {epsilon!r}")  # nan too
        limit = (4 * k - 12) / (k - 1)
        if epsilon >= limit:
            raise EpsilonTooLargeError(
                f"slack {epsilon} >= {limit:.6g}: phase one would be over "
                "before the first string arrives"
            )
        self.name = f"string-game-k{k}"
        self.target = dep_lower_bound(k)
        self.cfg = StringConfig(k, float(epsilon))
        self.moves = 0
        self.witnessed: float | None = None
        self.terminal: tuple[int, int] | None = None

    def play(self, matcher) -> Iterator[list[Event]]:
        cfg, k = self.cfg, self.cfg.k
        if cfg.strings:
            raise UsedAdversaryError(f"{self.name} has played its game already")
        seed = PathString((0,), (self._fresh(), self._fresh()))
        cfg.replace(None, [seed])
        yield compile_strings_to_events([seed], [], k)
        # Strings already seen flipped stay flipped until answered, so a
        # full board scan is only needed when the queue runs dry -- which is
        # also the only point a stall may be declared.
        queue: deque[PathString] = deque()
        watch: list[PathString] = [seed]
        while True:
            flipped = _flipped(matcher.graph, watch)
            if flipped == [] and not queue:
                live = [s for s in cfg.strings if not s.blocked(k)]
                flipped = _flipped(matcher.graph, live)
                if flipped == []:
                    self._stop(MATCHER_STALLED if live else SCRIPT_COMPLETE)
                    return
            if flipped is None:
                self._stop(EXPECTATION_MISS)
                return
            queue.extend(flipped)
            old = queue.popleft()
            lifted = _increment(old)
            replacement = _respond(lifted, cfg.labels[old], k, cfg.phase, self._fresh)
            events = compile_strings_to_events(replacement, [lifted], k)
            cfg.replace(old, replacement)
            self.moves += 1
            self._advance_phase()
            if cfg.phase >= 2 and not (
                invariant_threshold(cfg) and invariant_balance(cfg)
            ):
                raise IllegalTransitionError(
                    f"phase {cfg.phase} invariant broke after move {self.moves}"
                )
            watch = [s for s in replacement if not s.blocked(k)]
            yield events

    def _advance_phase(self) -> None:
        cfg = self.cfg
        if cfg.phase == 1 and invariant_threshold(cfg):
            cfg.phase = 2
        if cfg.k == 4 and cfg.phase == 2:
            t = cfg.totals
            if t["a"] >= 8 * (t["x"] + t["y"] + t["v"] + t["w"]):
                cfg.phase = 3

    def _stop(self, outcome: str) -> None:
        self.outcome = outcome
        alg, opt = config_sizes(self.cfg)
        self.terminal = (alg, opt)
        self.witnessed = opt / alg if alg else None


def string_game_adversary(k: int, epsilon: float = 0.05) -> StringGameAdversary:
    """A ``StringGameAdversary``; kept because the benchmark's worker builds its duels here."""
    return StringGameAdversary(k, epsilon)
