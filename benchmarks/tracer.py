"""Outside-in per-layer tracing for one benchmark pass.

The tracer wraps flipmatch's functions where their callers look them up
(``from x import f`` copies the name, so ``f`` is wrapped in the importing
module, not where it is defined). Each wrapped call is a span. Spans nest on
one stack; a span's self time is its duration minus the durations of the
spans it directly contains, so the self times of all layers add up to the
total time of the outermost spans, with nothing counted twice.

Spans are aggregated as they close instead of being stored, which keeps a
traced pass as small in memory as an untraced one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Self time and counters per layer, for one pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.root_s = 0.0  # summed duration of spans with no parent
        self._stack: list[list] = []  # [layer, time spent in child spans]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, layer, fn, after=None):
        """``fn`` timed as a span of ``layer``.

        ``layer`` is a name, or a function of the parent span's name that
        returns one. ``after(args, result)`` updates counters once the call
        returned.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            name = layer(self.parent()) if callable(layer) else layer
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, layer, gen_fn):
        """Each resume of the generator ``gen_fn`` returns is a span of ``layer``."""

        def traced(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            step = self.wrap(layer, next)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return traced

    def _close(self, frame: list, duration: float) -> None:
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``flipmatch`` with spans of ``tracer``.

    Layer names follow the modules: ``algos.<matcher>`` for matcher calls,
    ``blossom.*`` for augmenting-path searches, ``oracle.*`` for the
    optimum's upkeep and the brute-force referee, ``core.*`` for the graph
    walks, ``stringgame.*`` for the adaptive opponent. The harness entry
    points are wrapped by the caller, which owns them.
    """
    from flipmatch import algos, core, harness, oracle, stringgame

    c = tracer.counts

    def search_counter(prefix, with_roots):
        def after(args, walk):
            c[f"{prefix}_searches"] += 1
            c[f"{prefix}_found"] += walk is not None
            c[f"{prefix}_view_vertices"] += len(args[0])
            if with_roots:
                c[f"{prefix}_roots_offered"] += len(args[2])

        return after

    algos.find_augmenting_path = tracer.wrap(
        "blossom.matcher_search",
        algos.find_augmenting_path,
        search_counter("blossom.matcher", False),
    )
    oracle.find_augmenting_path = tracer.wrap(
        "blossom.oracle_search",
        oracle.find_augmenting_path,
        search_counter("blossom.oracle", True),
    )

    def sd_after(args, components):
        c["core.symmetric_differences"] += 1
        c["core.sd_components"] += len(components)

    algos.symmetric_difference = tracer.wrap(
        "core.symmetric_difference", algos.symmetric_difference, sd_after
    )

    def view_after(args, result):
        c["core.component_views"] += 1
        c["core.component_view_vertices"] += len(result[0])

    core.Graph.component_view = tracer.wrap(
        "core.component_view", core.Graph.component_view, view_after
    )

    def path_after(args, result):
        c["algos.augmentations"] += 1

    core.Graph.apply_augmenting_path = tracer.wrap(
        "core.apply_path", core.Graph.apply_augmenting_path, path_after
    )

    def brute_after(args, result):
        c["oracle.brute_force_calls"] += 1

    harness.brute_force_max_matching = tracer.wrap(
        "oracle.brute_force", harness.brute_force_max_matching, brute_after
    )

    # an oracle fed from inside a matcher call belongs to that matcher;
    # every other one is the referee's
    def oracle_layer(parent):
        if parent is not None and parent.startswith("algos."):
            return "oracle.matcher"
        return "oracle.referee"

    def insert_after(args, grew):
        c["oracle.inserts"] += 1
        c["oracle.grew"] += grew

    def delete_after(args, result):
        c["oracle.deletes"] += 1

    oracle.OracleState.insert = tracer.wrap(
        oracle_layer, oracle.OracleState.insert, insert_after
    )
    oracle.OracleState.delete = tracer.wrap(
        oracle_layer, oracle.OracleState.delete, delete_after
    )

    for cls in (algos.GreedyMatcher, algos.LGreedyMatcher, algos.AmpMatcher):
        layer = f"algos.{cls.name}"

        def call_after(args, result, key=f"{layer}.calls"):
            c[key] += 1

        cls.on_arrival = tracer.wrap(layer, cls.on_arrival, call_after)
        cls.on_departure = tracer.wrap(layer, cls.on_departure, call_after)

    stringgame.compile_strings_to_events = tracer.wrap(
        "stringgame.compile", stringgame.compile_strings_to_events
    )
    stringgame.StringGameAdversary.play = tracer.wrap_generator(
        "stringgame.play", stringgame.StringGameAdversary.play
    )
