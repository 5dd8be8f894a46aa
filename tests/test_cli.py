"""The command-line surface, driven through click's test runner."""

import pytest
from click.testing import CliRunner

from flipmatch.cli import main
from flipmatch.harness import parse_stream


@pytest.fixture()
def runner():
    return CliRunner()


def test_01_bounds_default_range(runner):
    result = runner.invoke(main, ["bounds"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,LB(arr.),LB(arr./dep.),L-Greedy,AMP-improved,AMP-original"
    assert len(lines) == 11  # even budgets 4..22
    assert lines[1].startswith("4,1.333333,1.428571,1.500000,")


def test_02_bounds_rejects_empty_ranges(runner):
    assert runner.invoke(main, ["bounds", "--k-min", "10", "--k-max", "4"]).exit_code != 0
    assert runner.invoke(main, ["bounds", "--k-min", "5", "--k-max", "5"]).exit_code != 0


def test_03_gen_then_simulate(runner, tmp_path):
    out = tmp_path / "chain.stream"
    result = runner.invoke(
        main, ["gen", "--family", "greedy-lb", "--k", "4", "--n", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    parsed = parse_stream(out.read_text())
    assert (parsed.k, parsed.model) == (4, "arrival")
    assert len(parsed.events) == 21

    result = runner.invoke(main, ["simulate", "--algo", "greedy", "--instance", str(out)])
    assert result.exit_code == 0, result.output
    assert "final sizes: alg 8, opt 10" in result.output
    assert "violations:  0" in result.output


def test_04_simulate_flag_overrides(runner, tmp_path):
    out = tmp_path / "chain.stream"
    runner.invoke(main, ["gen", "--family", "greedy-lb", "--k", "4", "--n", "1", "--out", str(out)])
    # a bigger budget on the same arrivals leaves nothing blocked
    result = runner.invoke(
        main,
        ["simulate", "--algo", "lgreedy", "--instance", str(out), "--k", "8", "--L", "4"],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, ["simulate", "--algo", "amp", "--instance", str(out), "--r", "1.7"]
    )
    assert result.exit_code == 0, result.output


def test_05_gen_swing_family_defaults_its_cap(runner, tmp_path):
    out = tmp_path / "swing.stream"
    result = runner.invoke(
        main,
        ["gen", "--family", "lgreedy-lb", "--k", "8", "--copies", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    parsed = parse_stream(out.read_text())
    assert parsed.model == "arrival"
    assert len(parsed.events) > 0


def test_06_duel_det_smoke(runner):
    result = runner.invoke(
        main, ["duel", "--adversary", "det", "--algo", "greedy", "--k", "4", "--depth", "10"]
    )
    assert result.exit_code == 0, result.output
    assert "stop reason: script-complete" in result.output
    assert "witnessed:   1.333333" in result.output


def test_07_duel_string_smoke(runner):
    result = runner.invoke(
        main, ["duel", "--adversary", "string", "--algo", "greedy", "--k", "4"]
    )
    assert result.exit_code == 0, result.output
    assert "stop reason: script-complete" in result.output
    assert "violations:  0" in result.output


def test_08_duel_fulldep_reports_starvation(runner):
    result = runner.invoke(
        main, ["duel", "--adversary", "fulldep", "--algo", "greedy", "--k", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "final sizes: alg 0, opt 1" in result.output


def test_09_usage_errors(runner, tmp_path):
    # budget too small for the blocked-path duel
    result = runner.invoke(main, ["duel", "--adversary", "det", "--algo", "greedy", "--k", "2"])
    assert result.exit_code != 0
    assert "budget" in result.output
    # odd budget for the string game
    result = runner.invoke(main, ["duel", "--adversary", "string", "--algo", "greedy", "--k", "5"])
    assert result.exit_code != 0
    # a nan slack would never leave phase one; an infinite one is too large
    for epsilon, message in (("nan", "need a positive slack"), ("inf", "phase one would be over")):
        result = runner.invoke(
            main,
            ["duel", "--adversary", "string", "--algo", "greedy", "--k", "6", "--epsilon", epsilon],
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
    # missing instance file
    result = runner.invoke(
        main, ["simulate", "--algo", "greedy", "--instance", str(tmp_path / "nope")]
    )
    assert result.exit_code != 0
    # unparseable instance file
    bad = tmp_path / "bad.stream"
    bad.write_text("k 4\n+ 1 2\n")
    result = runner.invoke(main, ["simulate", "--algo", "greedy", "--instance", str(bad)])
    assert result.exit_code != 0
    # a zero budget overriding a valid header ends in a usage error, not a traceback
    good = tmp_path / "good.stream"
    good.write_text("k 4\nmodel arrival\n+ 1 2\n")
    result = runner.invoke(
        main, ["simulate", "--algo", "greedy", "--instance", str(good), "--k", "0"]
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "budget must be an integer >= 1" in result.output
    # a self-loop names its line instead of ending in a traceback
    loop = tmp_path / "loop.stream"
    loop.write_text("k 4\nmodel arrival\n+ 3 3\n")
    result = runner.invoke(main, ["simulate", "--algo", "greedy", "--instance", str(loop)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "line 3: self-loop at vertex 3" in result.output
    # matcher parameters out of range are usage errors too
    for flags in (
        ["--algo", "lgreedy", "--L", "-1"],
        ["--algo", "amp", "--r", "0.5"],
        ["--algo", "amp", "--r", "inf"],
    ):
        result = runner.invoke(main, ["simulate", *flags, "--instance", str(good)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
