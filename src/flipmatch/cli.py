"""Command-line front end: bound tables, replays, duels, and instance files.

Exit status is nonzero exactly when a finished run broke a guarantee
assertion (a matcher exceeding its proven ratio); bad flags or unreadable
files are ordinary usage errors.
"""

from __future__ import annotations

import sys

import click

from . import bounds as bounds_mod
from .adversaries import (
    DetLowerBoundAdversary,
    FullDepartureAdversary,
    greedy_lb_stream,
    lgreedy_lb_stream,
)
from .algos import MATCHERS, make_matcher
from .core import ARRIVAL, FULL, LIMITED, MODELS, GraphError
from .harness import RunReport, duel as run_duel, emit_bound_table, parse_stream, replay, write_stream
from .stringgame import StringGameAdversary


@click.group()
def main() -> None:
    """Matching with a per-edge flip budget: bounds, replays, and duels."""


def _echo_report(report: RunReport, moves_label: str) -> None:
    alg, opt = report.final_sizes
    click.echo(f"{moves_label}: {len(report.records)}")
    click.echo(f"final sizes: alg {alg}, opt {opt}")
    click.echo(f"final ratio: {report.final_ratio:.6f}")
    click.echo(f"max ratio:   {report.max_ratio:.6f}")
    if report.bound is not None:
        click.echo(f"guarantee:   {report.bound:.6f}")
    click.echo(f"violations:  {report.bound_violations}")


def _exit_on_violation(report: RunReport) -> None:
    if report.bound_violations:
        click.echo("guarantee assertion FAILED", err=True)
        sys.exit(1)


@main.command("bounds")
@click.option("--k-min", type=int, default=4, show_default=True)
@click.option("--k-max", type=int, default=22, show_default=True)
def bounds_cmd(k_min: int, k_max: int) -> None:
    """Print the lower/upper bound table as CSV."""
    if k_min > k_max:
        raise click.BadParameter(f"empty budget range [{k_min}, {k_max}]")
    ks = [k for k in range(k_min, k_max + 1) if k % 2 == 0 and k >= 4]
    if not ks:
        raise click.BadParameter(f"no even budgets >= 4 in [{k_min}, {k_max}]")
    click.echo(emit_bound_table(ks), nl=False)


@main.command("simulate")
@click.option("--algo", type=click.Choice(sorted(MATCHERS)), required=True)
@click.option("--k", type=int, default=None, help="Flip budget; defaults to the file header.")
@click.option("--model", type=click.Choice(list(MODELS)), default=None,
              help="Departure model; defaults to the file header.")
@click.option("--instance", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--L", "cap", type=int, default=None, help="Length cap for lgreedy.")
@click.option("--r", "growth", type=float, default=None, help="Growth factor for amp.")
def simulate_cmd(algo: str, k: int | None, model: str | None, instance: str,
                 cap: int | None, growth: float | None) -> None:
    """Replay an instance file against one matcher."""
    with open(instance, encoding="utf-8") as fh:
        try:
            stream = parse_stream(fh.read())
        except ValueError as exc:
            raise click.ClickException(f"{instance}: {exc}") from exc
    k = stream.k if k is None else k
    model = stream.model if model is None else model
    kwargs = {}
    if cap is not None:
        kwargs["L"] = cap
    if growth is not None:
        kwargs["r"] = growth
    try:
        matcher = make_matcher(algo, k, model=model, **kwargs)
        report = replay(stream.events, matcher)
    except (ValueError, TypeError, GraphError) as exc:
        raise click.ClickException(str(exc)) from exc
    _echo_report(report, "events")
    _exit_on_violation(report)


@main.command("duel")
@click.option("--adversary", "opponent", type=click.Choice(["det", "string", "fulldep"]),
              required=True)
@click.option("--algo", type=click.Choice(sorted(MATCHERS)), required=True)
@click.option("--k", type=int, required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              help="Slack parameter of the string game.")
@click.option("--depth", type=int, default=50, show_default=True,
              help="Chain length of the deterministic lower-bound game.")
@click.option("--max-moves", type=int, default=10_000, show_default=True)
def duel_cmd(opponent: str, algo: str, k: int, epsilon: float, depth: int,
             max_moves: int) -> None:
    """Run one adaptive opponent against one matcher."""
    try:
        if opponent == "det":
            adv, model = DetLowerBoundAdversary(k, depth=depth), ARRIVAL
        elif opponent == "string":
            adv, model = StringGameAdversary(k, epsilon=epsilon), LIMITED
        else:
            adv, model = FullDepartureAdversary(k), FULL
        matcher = make_matcher(algo, k, model=model)
        report = run_duel(adv, matcher, max_moves=max_moves)
    except (ValueError, TypeError, GraphError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"opponent:    {adv.name} (target {adv.target:.6f})")
    click.echo(f"stop reason: {report.stop_reason}")
    if report.witnessed is not None:
        click.echo(f"witnessed:   {report.witnessed:.6f}")
    _echo_report(report, "moves")
    _exit_on_violation(report)


@main.command("gen")
@click.option("--family", type=click.Choice(["greedy-lb", "lgreedy-lb"]), required=True)
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, default=50, show_default=True,
              help="Chain parameter of the greedy-lb family.")
@click.option("--L", "cap", type=int, default=None,
              help="Length cap targeted by the lgreedy-lb family.")
@click.option("--copies", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
def gen_cmd(family: str, k: int, n: int, cap: int | None, copies: int, out: str) -> None:
    """Write a hard instance to a stream file."""
    try:
        if family == "greedy-lb":
            events = greedy_lb_stream(k, n)
        else:
            if cap is None:
                cap = max(3, bounds_mod.lgreedy_default_L(k))
            events = lgreedy_lb_stream(k, cap, copies=copies)
    except (ValueError, TypeError) as exc:
        raise click.ClickException(str(exc)) from exc
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(write_stream(k, ARRIVAL, events))
    click.echo(f"wrote {len(events)} events to {out}")


if __name__ == "__main__":
    main()
