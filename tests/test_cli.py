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
    # an option the matcher does not take names the option and the matcher
    for flags, message in (
        (["--algo", "greedy", "--L", "3"], "matcher 'greedy' takes no option L"),
        (["--algo", "lgreedy", "--r", "2"], "matcher 'lgreedy' takes no option r"),
        (["--algo", "amp", "--L", "3"], "matcher 'amp' takes no option L"),
    ):
        result = runner.invoke(main, ["simulate", *flags, "--instance", str(good)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert message in result.output


@pytest.mark.parametrize("algo", ["greedy", "lgreedy", "amp"])
def test_10_refused_departure_names_the_pair_it_read(runner, tmp_path, algo):
    # the refusal quotes the edge as the stream wrote it, not an internal index
    stream = tmp_path / "limited.stream"
    stream.write_text("k 4\nmodel limited\n+ 5 7\n+ 7 9\n- 5 7\n")
    result = runner.invoke(main, ["simulate", "--algo", algo, "--instance", str(stream)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "edge (5, 7) is matched and cannot depart under the limited model" in result.output
    assert "edge 0" not in result.output


@pytest.mark.parametrize(
    "args,message",
    [
        (["gen", "--family", "greedy-lb", "--k", "4", "--L", "3"],
         "family 'greedy-lb' takes no option --L"),
        (["gen", "--family", "greedy-lb", "--k", "4", "--copies", "5"],
         "family 'greedy-lb' takes no option --copies"),
        (["gen", "--family", "lgreedy-lb", "--k", "8", "--n", "5"],
         "family 'lgreedy-lb' takes no option --n"),
        (["duel", "--adversary", "det", "--algo", "greedy", "--k", "4", "--epsilon", "9"],
         "adversary 'det' takes no option --epsilon"),
        (["duel", "--adversary", "string", "--algo", "greedy", "--k", "4", "--depth", "0"],
         "adversary 'string' takes no option --depth"),
        (["duel", "--adversary", "fulldep", "--algo", "greedy", "--k", "3", "--epsilon", "0.1"],
         "adversary 'fulldep' takes no option --epsilon"),
        (["duel", "--adversary", "fulldep", "--algo", "greedy", "--k", "3", "--depth", "5"],
         "adversary 'fulldep' takes no option --depth"),
    ],
    ids=["greedy-lb-L", "greedy-lb-copies", "lgreedy-lb-n", "det-epsilon", "string-depth",
         "fulldep-epsilon", "fulldep-depth"],
)
def test_11_an_option_the_family_or_opponent_ignores_is_refused(runner, tmp_path, args, message):
    # these used to exit 0 and run as if the option were not there
    out = tmp_path / "x.stream"
    if args[0] == "gen":
        args = [*args, "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not out.exists()


def test_12_bounds_and_amp_at_a_budget_of_1000(runner, tmp_path):
    # at this budget r^(k-1) overflows a float at r = 8
    result = runner.invoke(main, ["bounds", "--k-min", "1000", "--k-max", "1000"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1] == "1000,1.001001,1.001003,1.032220,1.007954,1.012473"
    out = tmp_path / "one.stream"
    out.write_text("k 1000\nmodel arrival\n+ 1 2\n")
    result = runner.invoke(main, ["simulate", "--algo", "amp", "--r", "8", "--instance", str(out)])
    assert result.exit_code == 0, result.output
    assert "violations:  0" in result.output


def test_13_bounds_at_large_budgets(runner):
    rows = {
        "726": "726,1.001379,1.001383,1.038365,1.010532,1.016405",
        "14000000": "14000000,1.000000,1.000000,1.000267,1.000001,1.000002",
        # every bound is within float resolution of 1 here
        str(10**18): f"{10**18},1.000000,1.000000,1.000000,1.000000,1.000000",
    }
    for k, row in rows.items():
        result = runner.invoke(main, ["bounds", "--k-min", k, "--k-max", k])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1] == row


def test_14_bounds_past_the_float_range_is_an_error_message(runner):
    k = str(10**400)
    result = runner.invoke(main, ["bounds", "--k-min", k, "--k-max", k])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and "does not fit in a float" in result.output
    assert "Traceback" not in result.output


def test_15_an_unwritable_output_file_is_an_error_message(runner, tmp_path):
    out = tmp_path / "missing" / "x.txt"
    result = runner.invoke(
        main, ["gen", "--family", "greedy-lb", "--k", "4", "--n", "2", "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and str(out) in result.output
    assert "Traceback" not in result.output
