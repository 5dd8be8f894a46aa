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

from collections import Counter, deque
from typing import Callable, Iterable, Iterator, Sequence

from .adversaries import EXPECTATION_MISS, SCRIPT_COMPLETE, ScriptedAdversary
from .bounds import BadBudgetError, BadParamsError, dep_lower_bound
from .core import Event, Graph, UnknownEdgeError, arrive, depart

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


class ZeroAlgError(ValueError):
    """Ratio of a configuration in which the matcher holds nothing."""

    code = "zero-alg"


class BadStringError(ValueError):
    """A path string that no graph path could realise."""

    code = "bad-string"


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
    return PathString(tuple(d + 1 for d in s.digits), s.verts)


class StringConfig:
    """A multiset of path strings, its family count, and the game's phase."""

    def __init__(
        self,
        k: int,
        epsilon: float,
        strings: Iterable[PathString] = (),
        phase: int = 1,
    ):
        self.k = k
        self.epsilon = epsilon
        self.strings: list[PathString] = list(strings)
        self.phase = phase
        # (family, index) label -> number of strings carrying it
        self.counts = Counter(classify_string(s.digits, k) for s in self.strings)

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
        """Put ``new`` where ``old`` stood, or after the last string if None."""
        if old is None:
            at = end = len(self.strings)
        else:
            at = self.strings.index(old)
            end = at + 1
            self.counts[classify_string(old.digits, self.k)] -= 1
        self.strings[at:end] = new
        self.counts.update(classify_string(s.digits, self.k) for s in new)


def validate_strings(strings: Iterable[PathString], k: int) -> None:
    """Raise ``BadStringError`` unless a graph of budget ``k`` could hold them."""
    seen: set[int] = set()
    for s in strings:
        if len(s.verts) != len(s.digits) + 1 or not s.digits:
            raise BadStringError(f"string {s.digits} / walk {s.verts} mismatch")
        for a, b in zip(s.digits, s.digits[1:]):
            if (a + b) % 2 == 0:
                raise BadStringError(f"types {s.digits} do not alternate")
        for d in s.digits:
            if not 0 <= d <= k:
                raise BadStringError(f"type {d} outside budget {k}")
        overlap = seen.intersection(s.verts)
        if overlap or len(set(s.verts)) != len(s.verts):
            raise BadStringError(f"walk {s.verts} reuses a vertex")
        seen.update(s.verts)


def _as_digits(spec) -> tuple[int, ...]:
    if isinstance(spec, str):
        return tuple(int(ch) for ch in spec)
    return tuple(spec)


def config_sizes(cfg: StringConfig) -> tuple[int, int]:
    """(matcher size, optimum size): odd entries vs even entries."""
    alg = sum(1 for s in cfg.strings for d in s.digits if d % 2 == 1)
    opt = sum(1 for s in cfg.strings for d in s.digits if d % 2 == 0)
    return alg, opt


def string_ratio(cfg: StringConfig) -> float:
    """Optimum-to-matcher ratio the configuration certifies."""
    alg, opt = config_sizes(cfg)
    if alg == 0:
        raise ZeroAlgError("configuration leaves the matcher empty-handed")
    return opt / alg


# ----------------------------------------------------------------------
# the string families


def _ascent(top: int) -> tuple[int, ...]:
    return tuple(range(top + 1))


def _w_digits(j: int) -> tuple[int, ...]:
    return _ascent(j) + (j - 1,) + tuple(range(j, -1, -1))


def _ramp_digits(k: int) -> list[tuple[int, ...]]:
    return [
        _ascent(k - 3) + (0,),
        _ascent(k - 2) + (1, 0),
        _ascent(k - 1) + (2, 1, 0),
        _ascent(k) + (3, 2, 1, 0),
    ]


def classify_string(digits: Sequence[int], k: int) -> tuple[str, int]:
    """Sort a settled string into its playbook family.

    Families: "seed" (a single 0), "y" (010 and 01210), "x" (01010),
    ("w", j) for the double-peak strings, ("v", m) for the four ramps, and
    ("a", j) for the reservoir pairs 0,j-1,0 / 0,1,j,1,0 with even j.
    Anything else is outside the playbook and raises.
    """
    c = min(tuple(digits), tuple(reversed(tuple(digits))))
    if c == (0,):
        return ("seed", 0)
    if c in ((0, 1, 0), (0, 1, 2, 1, 0)):
        return ("y", 0)
    if c == (0, 1, 0, 1, 0):
        return ("x", 0)
    n = len(c)
    if n == 3 and c[0] == 0 == c[2] and c[1] % 2 == 1 and 3 <= c[1] <= k - 1:
        return ("a", c[1] + 1)
    if (
        n == 5
        and c[:2] == (0, 1)
        and c[3:] == (1, 0)
        and c[2] % 2 == 0
        and 4 <= c[2] <= k
    ):
        return ("a", c[2])
    peak = max(c)
    if 2 <= peak <= k - 2 and c == _w_digits(peak):
        return ("w", peak)
    for m, form in enumerate(_ramp_digits(k), start=1):
        if c == min(form, form[::-1]):
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
    if old.blocked(k):
        raise IllegalTransitionError(f"string {old.digits} is already spent")
    t = _increment(old)
    family, j = classify_string(old.digits, k)
    if family == "seed":
        return [_pad(t, fresh)]
    if family == "y":
        if len(old.digits) == 3:
            return [_pad(t, fresh)]
        if k == 4 and phase >= 3:
            return [_pad(t, fresh)]
        head, mid, tail = _split(t, (1, 3))
        return [_pad(_join(head, tail), fresh), _pad(mid, fresh)]
    if family == "x":
        if phase == 1:
            head, tail = _split(t, (1,))
            return [_pad(head, fresh), _pad(tail, fresh)]
        return [_pad(t, fresh)]
    if family == "w":
        if j < k - 2:
            return [_pad(t, fresh)]
        drop = tuple(i for i, d in enumerate(t.digits) if d == k - 2)
        pieces = _split(t, drop)
        if k == 4 and phase == 2:
            head, mid1, mid2, tail = pieces
            return [
                _pad(_join(head, tail), fresh),
                _pad(mid1, fresh),
                _pad(mid2, fresh),
            ]
        return [_pad(p, fresh) for p in pieces]
    if family == "v":
        return [_pad(t, fresh)]
    # family == "a": the short form pads, the long form feeds the next rung
    if len(old.digits) == 3:
        return [_pad(t, fresh)]
    head, mid, tail = _split(t, (1, 3))
    return [_pad(_join(head, tail), fresh), _pad(mid, fresh)]


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
    validate_strings(new, k)
    validate_strings(prev, k)

    def edge_map(strings: Sequence[PathString]) -> dict[frozenset, int]:
        mapping: dict[frozenset, int] = {}
        for s in strings:
            for i, d in enumerate(s.digits):
                mapping[frozenset((s.verts[i], s.verts[i + 1]))] = d
        return mapping

    old_edges, new_edges = edge_map(prev), edge_map(new)
    old_verts = {v for s in prev for v in s.verts}

    departures = []
    for key, d in old_edges.items():
        if key in new_edges:
            if new_edges[key] != d:
                raise IllegalTransitionError(
                    f"edge {sorted(key)} changed type {d} -> {new_edges[key]}"
                )
        else:
            if d % 2 == 1:
                raise IllegalTransitionError(
                    f"matched edge {sorted(key)} cannot depart"
                )
            departures.append(depart(*sorted(key)))

    merges, pads = [], []
    for key, d in new_edges.items():
        if key in old_edges:
            continue
        if d != 0:
            raise IllegalTransitionError(
                f"arriving edge {sorted(key)} would need type {d}"
            )
        known = sum(1 for v in key if v in old_verts)
        (merges if known == 2 else pads).append(arrive(*sorted(key)))

    ordered = []
    for bucket in (departures, merges, pads):
        ordered.extend(sorted(bucket, key=lambda ev: ev.endpoints))
    return ordered


def _flipped(g: Graph, strings: Iterable[PathString]) -> list[PathString] | None:
    """The strings ``g`` shows flipped whole; None once one is not realised.

    A string is realised when every edge is live and either all of them kept
    their type or all of them rose by exactly one.
    """
    out = []
    for s in strings:
        lifts = set()
        for d, u, v in zip(s.digits, s.verts, s.verts[1:]):
            try:
                lifts.add(g.edge(g.edge_id(u, v)).etype - d)
            except UnknownEdgeError:
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


def _family_total(counts: Counter, family: str) -> int:
    return sum(n for (fam, _), n in counts.items() if fam == family)


def invariant_threshold(cfg: StringConfig) -> bool:
    """Reservoir test that ends phase one (and must then keep holding)."""
    lhs = sum(
        (j * j - 4 * j + 7) * n for (fam, j), n in cfg.counts.items() if fam == "a"
    )
    rhs = (4 * cfg.k - 12) / cfg.epsilon - (cfg.k - 1)
    return lhs > rhs if cfg.k == 4 else lhs >= rhs


def invariant_balance(cfg: StringConfig) -> bool:
    """Live strings never outgrow the reservoir once phase one is over."""
    counts = cfg.counts
    lhs = (
        2 * (_family_total(counts, "x") + _family_total(counts, "w"))
        + _family_total(counts, "y")
        + (cfg.k - 4) * _family_total(counts, "v")
    )
    rhs = 1 + sum((j - 3) * n for (fam, j), n in counts.items() if fam == "a")
    return lhs <= rhs


# ----------------------------------------------------------------------
# the adversary


class StringGameAdversary(ScriptedAdversary):
    """Plays the string game against any matcher over a shared event feed.

    Yields one batch per move: the seed edge first, then one playbook
    response for each whole-string flip it observes.  The duel ends in
    ``script-complete`` when every string is spent, in ``matcher-stalled``
    when live strings remain but the matcher declines to flip any of them,
    and in ``expectation-miss`` if the matcher's graph stops looking like
    the configuration at all.
    """

    def __init__(self, k: int, epsilon: float = 0.05):
        super().__init__()
        if not isinstance(k, int) or isinstance(k, bool):
            raise BadBudgetError(f"need an integer budget, got {k!r}")
        if k % 2 != 0:
            raise OddKError(f"string game needs an even budget, got {k}")
        if k < 4:
            raise BadBudgetError(f"string game needs budget >= 4, got {k}")
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
            replacement = augment_response(old, k, cfg.phase, self._fresh)
            events = compile_strings_to_events(replacement, [_increment(old)], k)
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
            spendable = sum(
                _family_total(cfg.counts, fam) for fam in ("x", "y", "v", "w")
            )
            if _family_total(cfg.counts, "a") >= 8 * spendable:
                cfg.phase = 3

    def _stop(self, outcome: str) -> None:
        self.outcome = outcome
        alg, opt = config_sizes(self.cfg)
        self.terminal = (alg, opt)
        self.witnessed = opt / alg if alg else None


def string_game_adversary(k: int, epsilon: float = 0.05) -> StringGameAdversary:
    """Adaptive opponent forcing ratio (k^2-3k+6)/(k^2-4k+7) under churn."""
    return StringGameAdversary(k, epsilon)
