"""CLI subcommands, formats, config parsing, and exit codes."""
import argparse
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from truecount import (
    BadRangeError,
    SeatCardModel,
    SigmaResult,
    builtin_systems,
    cli,
    get_system,
    growth_stats_binomial,
    parse_system_file,
    predicted_increment_std,
    predicted_seat_sigma,
    tc_distribution,
)
from truecount.cli import main, parse_composition, parse_config, run_simulation
from truecount.errors import ConfigError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_typed_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


class TestSystems:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "systems")
        assert code == 0
        assert "hi-lo" in out and "0.877" in out
        assert "hi-opt-ii" in out and "1.468" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "systems", "--format", "json")
        data = json.loads(out)
        rows = {r["label"]: r["cells"][0] for r in data["rows"]}
        assert rows["uston-ace-five"] == pytest.approx(0.392, abs=5e-4)


class TestSigmaTable:
    def test_values_at_half_penetration(self, capsys):
        code, out, _ = run_cli(capsys, "sigma-table", "--penetration", "0.5")
        assert code == 0
        for cell in ("0.877", "0.925", "0.971", "0.449", "0.340", "0.170*"):
            assert cell in out

    def test_footnote_only_on_last_seat(self, capsys):
        _, out, _ = run_cli(
            capsys, "sigma-table", "--penetration", "0.5", "--positions", "1,4"
        )
        assert "*" not in out.replace("**", "")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sigma-table", "--penetration", "0.5", "--format", "csv"
        )
        assert code == 0
        assert "\r\n" in out and "sigma_bet" in out

    def test_bad_penetration_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sigma-table", "--penetration", "1.5")
        assert code == 2
        assert "error:" in err

    def test_bad_position_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sigma-table", "--penetration", "0.5", "--positions", "9"
        )
        assert code == 2

    def test_non_integer_position_exit_2(self, capsys):
        assert_typed_error(
            capsys, "sigma-table", "--penetration", "0.5", "--positions", "1,x"
        )

    def test_nan_hand_mean_exit_2(self, capsys):
        assert_typed_error(
            capsys, "sigma-table", "--penetration", "0.5", "--hand-mean", "nan"
        )

    @pytest.mark.parametrize("decks", ["0", "-2"])
    def test_no_deck_exit_2(self, capsys, decks):
        code, out, err = run_cli(
            capsys, "sigma-table", "--penetration", "0.5", "--decks", decks
        )
        assert (code, out) == (2, "")
        assert err == f"error: decks must be >= 1, got {decks}\n"

    @pytest.mark.parametrize("args, expected", [
        (("--penetration", "0.5", "--hand-mean", "40", "--decks", "1"),
         "error: position 1 sees 266 cards between its play and dealer moments, "
         "but a 1-deck shoe at 50.0% penetration leaves 26 (hand mean 40.0)\n"),
        (("--penetration", "0.999", "--decks", "1"),
         "error: position 1 sees 16 cards between its bet and play moments, "
         "but a 1-deck shoe at 99.9% penetration leaves 0.052 (hand mean 2.6)\n"),
    ], ids=["long-hands", "deep-cut"])
    def test_more_cards_than_left_exit_2(self, capsys, args, expected):
        code, out, err = run_cli(capsys, "sigma-table", *args)
        assert (code, out, err) == (2, "", expected)

    def test_custom_system_file(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text(
            "A -1\n2 1\n3 1\n4 1\n5 1\n6 1\n7 0\n8 0\n9 0\nT -1\n"
        )
        code, out, _ = run_cli(
            capsys, "sigma-table", "--penetration", "0.5",
            "--system-file", str(path),
        )
        assert code == 0
        assert "0.877" in out
        assert out.startswith("custom: sigma by position")

    def test_system_file_errors_name_it_custom(self, capsys, tmp_path):
        path = tmp_path / "sum8.txt"
        path.write_text("A 1\n2 1\n" + "".join(f"{r} 0\n" for r in "3456789T"))
        code, out, err = run_cli(
            capsys, "sigma-table", "--penetration", "0.5", "--system-file", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: custom: full-deck weight sum is 8, not 0\n"
        assert "hi-lo" not in err


class TestDispatch:
    def test_every_subcommand_declares_its_handler(self):
        (subparsers,) = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == {
            "systems", "sigma-table", "exact", "verify", "kelly", "longrun", "simulate",
        }
        for name, parser in subparsers.choices.items():
            assert callable(parser.get_default("run")), name

    def test_missing_system_file_exit_2(self, capsys, tmp_path):
        assert_typed_error(
            capsys, "sigma-table", "--penetration", "0.5",
            "--system-file", str(tmp_path / "absent.txt"),
        )

    def test_failed_write_exit_2(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["systems"]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestParserBuiltOnce:
    # A good command, a bad one (argparse exits 2 with usage), another subcommand.
    COMMANDS = (
        ("systems", "--format", "csv"),
        ("kelly", "--p0", "0.52", "--hands", "many"),
        ("longrun", "--eps", "0.01", "--sigma-bet-a", "0.5", "--format", "csv"),
    )

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_one(self, capsys):
        cli.build_parser.cache_clear()
        reused = [self._run(capsys, argv) for argv in self.COMMANDS]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.COMMANDS:
            cli.build_parser.cache_clear()
            fresh.append(self._run(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0]
        assert reused[1][1] == ""
        assert reused[1][2].startswith("usage: truecount kelly")
        assert reused[0][1].startswith("Builtin count systems")
        assert reused[2][1].startswith('"Long run at eps=0.01')


class TestExact:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-c", "+1:5,-1:5,0:3", "-n", "1"
        )
        assert code == 0
        assert "3.80" in out  # 52 sqrt(5/936)

    def test_json_atoms_are_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-c", "+1:2,-1:2", "-n", "2", "--units", "card",
            "--format", "json",
        )
        assert code == 0
        assert "2/3" in out

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(counts=st.dictionaries(
        st.integers(-6, 6).map(lambda k: Fraction(k, 2)), st.integers(0, 15),
        min_size=1, max_size=4,
    ).filter(lambda counts: 2 <= sum(counts.values()) <= 30))
    def test_rows_are_the_atoms_of_the_law(self, counts):
        """Each row is the text of one atom of ``tc_distribution``: the value,
        scaled to the units, then the probability."""
        spec = ",".join(f"{w}:{l}" for w, l in counts.items())
        comp = parse_composition(spec)
        for n in range(1, comp.total):
            atoms = tc_distribution(comp, n).atoms
            for units, scale in (("deck", 52), ("card", 1)):
                table = cli.cmd_exact(spec, n, units)
                rows = list(zip(table.row_labels, table.cells))[:len(atoms)]
                assert rows == [(str(v * scale), [str(p)]) for v, p in atoms], (spec, n)
                assert len(table.row_labels) == len(atoms) + 3

    def test_bad_n_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "-c", "+1:2,-1:2", "-n", "4")
        assert code == 2

    @pytest.mark.parametrize("spec, cards", [("1:1", 1), ("1:0", 0), ("1:0,0:0", 0)])
    def test_fewer_than_two_cards_exit_2(self, capsys, spec, cards):
        assert run_cli(capsys, "exact", "-c", spec, "-n", "1") == (
            2, "", f"error: the composition's card count must be >= 2, got {cards}\n"
        )

    def test_bad_composition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "-c", "nope", "-n", "1")
        assert code == 2

    def test_broken_invariant_exit_2(self, capsys, monkeypatch):
        # A closed form that disagrees with the enumerated law is a typed
        # error, not a traceback.
        monkeypatch.setattr(
            cli, "sigma_n_exact", lambda comp, n: SigmaResult(1.0, Fraction(1))
        )
        assert_typed_error(capsys, "exact", "-c", "+1:2,-1:2", "-n", "2")


def ace_deuce_file(tmp_path, w):
    """A system file weighting aces w, deuces -w and every other rank 0."""
    path = tmp_path / f"ace-deuce-{len(str(w))}.txt"
    path.write_text(f"A {w}\n2 {-w}\n" + "".join(f"{r} 0\n" for r in "3456789T"))
    return str(path)


class TestFloatRange:
    """A standard deviation whose square passes the float range is a typed
    error; the largest square within it still prints a finite answer."""

    MAX = int(sys.float_info.max)

    def test_exact_sigma_squared(self, capsys):
        # sigma_1^2 of {w: 2, -1: 2} is (w + 1)^2 / 36 in card units.
        for w in (1, 5, 10**20):
            comp = parse_composition(f"{w}:2,-1:2")
            assert cli.sigma_n_exact(comp, 1).squared == Fraction((w + 1) ** 2, 36)
        largest = math.isqrt(36 * self.MAX) - 1
        assert_typed_error(capsys, "exact", "--composition=1e200:2,-1:2", "-n", "1")
        assert_typed_error(capsys, "exact", f"--composition={largest + 1}:2,-1:2", "-n", "1")
        with pytest.raises(BadRangeError, match="float range"):
            cli.sigma_n_exact(parse_composition(f"{largest + 1}:2,-1:2"), 1)
        code, out, err = run_cli(capsys, "exact", f"--composition={largest}:2,-1:2", "-n", "1")
        assert (code, err) == (0, "")
        closed = out.splitlines()[-1].split()[-1]
        assert math.isfinite(float(closed)) and float(closed) > 1e155

    def test_sigma_table_sigma0_squared(self, capsys, tmp_path):
        # sigma0^2 of the ace-deuce system is 8 w^2 / 52.
        system = parse_system_file(Path(ace_deuce_file(tmp_path, 3)).read_text())
        assert system.sigma0_squared == Fraction(8 * 9, 52)
        largest = math.isqrt(13 * self.MAX // 2)
        for w in (10**300, largest + 1):
            assert_typed_error(
                capsys, "sigma-table", "--penetration", "0.5",
                "--system-file", ace_deuce_file(tmp_path, w),
            )
            system = parse_system_file(Path(ace_deuce_file(tmp_path, w)).read_text())
            with pytest.raises(BadRangeError, match="float range"):
                system.sigma0()
        code, out, err = run_cli(
            capsys, "sigma-table", "--penetration", "0.5",
            "--system-file", ace_deuce_file(tmp_path, largest),
        )
        assert (code, err) == (0, "") and out.startswith("custom: sigma by position")
        assert "inf" not in out and "nan" not in out


class TestVerify:
    def test_kelly_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "kelly")
        assert code == 0
        assert "kelly: PASS" in out

    @pytest.mark.parametrize(
        "scope, expected",
        [
            ("lemmas", "lemmas: PASS (50693 checks)\n"),
            (
                "all",
                "lemmas: PASS (50693 checks)\n"
                "theorem: PASS (563550 checks)\n"
                "kelly: PASS (90 checks)\n",
            ),
        ],
    )
    def test_default_sweeps_print_their_check_counts(self, capsys, scope, expected):
        assert run_cli(capsys, "verify", scope) == (0, expected, "")

    @pytest.mark.parametrize("scope", ["lemmas", "theorem", "kelly", "all"])
    def test_negative_seed_exit_2_before_any_sweep(self, capsys, monkeypatch, scope):
        ran = []
        for name in cli._VERIFY_SCOPES:
            monkeypatch.setitem(cli._VERIFY_SCOPES, name, ran.append)
        assert run_cli(capsys, "verify", scope, "--seed", "-5") == (
            2, "", "error: seed must be >= 0, got -5\n"
        )
        assert ran == []


class TestKelly:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "kelly", "--p0", "0.52", "--hands", "100")
        assert code == 0
        assert "0.04" in out  # kelly fraction 2p - 1

    def test_growth_is_the_closed_form_without_noise(self, capsys):
        code, out, _ = run_cli(
            capsys, "kelly", "--p0", "0.52", "--hands", "100", "--format", "json"
        )
        assert code == 0
        cells = {row["label"]: row["cells"][0] for row in json.loads(out)["rows"]}
        stats = growth_stats_binomial(0.52)
        assert cells["mean growth rate"] == stats.mean
        assert cells["growth variance (1 hand)"] == stats.variance
        assert cells["growth std (100 hands)"] == stats.std(100)

    def test_subfair_probability(self, capsys):
        code, out, _ = run_cli(capsys, "kelly", "--p0", "0.4")
        assert code == 0
        assert "0.00000000" in out

    def test_zero_hands_exit_2(self, capsys):
        assert_typed_error(capsys, "kelly", "--p0", "0.52", "--hands", "0")

    @pytest.mark.parametrize("var_p0", ["nan", "inf", "-0.0001"])
    def test_bad_var_p0_exit_2(self, capsys, var_p0):
        assert_typed_error(
            capsys, "kelly", "--p0", "0.52", f"--var-p0={var_p0}", "--hands", "10"
        )

    def test_var_p0_past_the_bound_exit_2_at_any_p0(self, capsys):
        # The bound p0(1 - p0) holds below an even game too, where the
        # growth row is zero.
        errors = []
        for p0 in ("0.3", "0.52"):
            code, out, err = run_cli(
                capsys, "kelly", "--p0", p0, "--var-p0", "0.5", "--hands", "10"
            )
            assert (code, out) == (2, "")
            errors.append(err.split(" p0(1-p0)")[0])
        assert errors == ["error: var_p0 0.5 exceeds the probability bound"] * 2

    def test_negative_first_order_variance_exit_2(self, capsys):
        # 1 - (2p0 - 1) logit(p0) < 0 at p0 = 0.95: the first-order growth
        # variance is negative, and the error names the inputs and the formula.
        assert run_cli(capsys, "kelly", "--p0", "0.95", "--var-p0", "0.04") == (
            2, "",
            "error: the first-order growth variance p0(1-p0) logit(p0)^2 + "
            "(1 - (2p0 - 1) logit(p0)) var_p0 / (p0(1-p0)) is negative at "
            "p0=0.95, var_p0=0.04\n",
        )


class TestLongrun:
    def test_reference_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "longrun", "--eps", "0.01", "--sigma-bet-a", "0",
            "--sigma-bet-b", "0.1414213562373095",
        )
        assert code == 0
        assert "40000.0" in out
        assert "800.0" in out

    @pytest.mark.parametrize("args", [
        ("--eps", "1e-200"),
        ("--eps", "1e200"),
        ("--eps", "1e-154"),
        ("--eps", "0.01", "--threshold", "1e200"),
        ("--eps", "0.01", "--threshold", "1e-200"),
        ("--eps", "0.01", "--threshold", "1e152"),  # a finite count, inf x2 rows
    ], ids=["eps-squared-0", "eps-squared-over", "count-inf", "threshold-over",
            "count-0", "row-over"])
    def test_count_past_float_range_exit_2(self, capsys, args):
        for fmt in ("table", "csv", "json"):
            assert_typed_error(capsys, "longrun", *args, "--format", fmt)

    def test_count_near_float_max(self, capsys):
        code, out, err = run_cli(capsys, "longrun", "--eps", "1e-153", "--format", "json")
        assert (code, err) == (0, "")
        cells = [row["cells"][0] for row in json.loads(out)["rows"]]
        assert cells[0] == pytest.approx(4e306)
        assert all(math.isfinite(c) for c in cells)


class TestConfigParsing:
    def test_parse(self):
        config = parse_config(
            "# run\nmode = seat-sigma\nseed = 7\ntrials = 10\n"
        )
        assert config == {"mode": "seat-sigma", "seed": "7", "trials": "10"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\nbogus = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("seed 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="seed"):
            run_simulation({"mode": "bankroll", "trials": "5"})


class TestSimulateCommand:
    @pytest.mark.parametrize("mode", ["seat-sigma", "tc-increment"])
    def test_running_counts_past_int64_exit_2(self, capsys, tmp_path, mode):
        # The 8-deck shoe holds 416 cards: a weight of 4e18 could take a
        # running count past int64, and one of 2**63 is no int64 at all.
        n_cards = ("--n-cards", "4") if mode == "tc-increment" else ()
        for w in (4 * 10**18, 2**63):
            code, out, err = run_cli(
                capsys, "simulate", "--mode", mode, "--decks", "8", *n_cards,
                "--penetration", "0.5", "--trials", "50", "--seed", "1",
                "--system-file", ace_deuce_file(tmp_path, w),
            )
            assert (code, out) == (2, "")
            assert err == "error: running counts of custom in 8 decks can pass the int64 range\n"

    def test_config_file_run(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "mode = seat-sigma\nsystem = hi-lo\ndecks = 8\n"
            "penetration = 0.5\nseats = 7\nposition = 7\n"
            "trials = 50\nseed = 3\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert "sigma_bet" in out
        assert "predicted sigma_bet" in out

    def test_exact_seat_prediction(self, capsys):
        args = (
            "simulate", "--mode", "seat-sigma", "--system", "hi-lo",
            "--decks", "8", "--penetration", "0.5", "--position", "7",
            "--trials", "50", "--seed", "3",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        # Without a hand mean the seat takes the library's default law.
        bet, play = predicted_seat_sigma(get_system("hi-lo"), 8, 0.5, SeatCardModel(7, 7))
        assert out.endswith(
            f"predicted sigma_bet (exact): {bet:.6f}\n"
            f"predicted sigma_play (exact): {play:.6f}\n"
        )
        assert out.endswith(
            "predicted sigma_bet (exact): 1.021695\n"
            "predicted sigma_play (exact): 0.188515\n"
        )
        # An explicit 2.6 cards per hand is 0 or 1 extra card with 0.4/0.6.
        code, out, _ = run_cli(capsys, *args, "--hand-mean", "2.6")
        assert code == 0
        assert out.endswith(
            "predicted sigma_bet (exact): 1.021418\n"
            "predicted sigma_play (exact): 0.188248\n"
        )

    def test_predictions_only_in_table_format(self, capsys, monkeypatch):
        args = (
            "simulate", "--mode", "seat-sigma", "--system", "hi-lo",
            "--decks", "8", "--penetration", "0.5", "--position", "7",
            "--trials", "50", "--seed", "3",
        )
        _, table, _ = run_cli(capsys, *args)
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")

        def not_printed(*_args):
            raise AssertionError("predicted_seat_sigma called for a format without it")

        monkeypatch.setattr(cli, "predicted_seat_sigma", not_printed)
        code, out, err = run_cli(capsys, *args, "--format", "json")
        assert (code, err) == (0, "")
        body, _, tail = table.rpartition("}\n")
        assert out == body + "}\n"
        assert tail == (
            "predicted sigma_bet (exact): 1.021695\n"
            "predicted sigma_play (exact): 0.188515\n"
        )
        assert run_cli(capsys, *args, "--format", "csv") == (0, csv_out, "")
        with pytest.raises(AssertionError):
            run_cli(capsys, *args)

    def test_exact_increment_prediction(self, capsys, monkeypatch):
        args = (
            "simulate", "--mode", "tc-increment", "--system", "halves",
            "--decks", "6", "--penetration", "0.75", "--n-cards", "16,1,4,4",
            "--trials", "50", "--seed", "3",
        )
        code, table, _ = run_cli(capsys, *args)
        assert code == 0
        body, _, tail = table.rpartition("}\n")
        halves = get_system("halves")
        assert tail == "".join(
            f"predicted tc_increment_n{n} (exact): "
            f"{predicted_increment_std(halves, 6, 0.75, n):.6f}\n"
            for n in (1, 4, 16)
        )
        assert tail == (
            "predicted tc_increment_n1 (exact): 0.618205\n"
            "predicted tc_increment_n4 (exact): 1.261223\n"
            "predicted tc_increment_n16 (exact): 2.755764\n"
        )
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")

        def not_printed(*_args):
            raise AssertionError("predicted_increment_std called for a format without it")

        monkeypatch.setattr(cli, "predicted_increment_std", not_printed)
        assert run_cli(capsys, *args, "--format", "json") == (0, body + "}\n", "")
        assert run_cli(capsys, *args, "--format", "csv") == (0, csv_out, "")
        with pytest.raises(AssertionError):
            run_cli(capsys, *args)

    @pytest.mark.parametrize("trials", ["1", "0", "-3"])
    @pytest.mark.parametrize("mode_args", [
        ("--mode", "seat-sigma", "--system", "hi-lo", "--decks", "8",
         "--penetration", "0.5"),
        ("--mode", "tc-increment", "--system", "hi-lo", "--decks", "8",
         "--penetration", "0.5", "--n-cards", "1,4"),
        ("--mode", "bankroll", "--p", "0.52", "--hands", "100"),
    ], ids=["seat-sigma", "tc-increment", "bankroll"])
    def test_fewer_than_two_trials_exit_2(self, capsys, mode_args, trials):
        for fmt in ("table", "json", "csv"):
            code, out, err = run_cli(
                capsys, "simulate", *mode_args, "--trials", trials, "--seed", "1",
                "--format", fmt,
            )
            assert (code, out) == (2, "")
            assert err == f"error: trials must be in [2, 2**63), got {trials}\n"

    def test_system_file(self, capsys, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("A -1\n2 1\n3 1\n4 1\n5 1\n6 1\n7 0\n8 0\n9 0\nT -1\n")
        args = (
            "simulate", "--mode", "tc-increment", "--decks", "8",
            "--penetration", "0.5", "--n-cards", "1,4", "--trials", "60",
            "--seed", "12", "--format", "json",
        )
        code, out, _ = run_cli(capsys, *args, "--system-file", str(path))
        assert code == 0
        from_file = json.loads(out)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"system_file = {path}\n")
        code, out, _ = run_cli(capsys, *args, "--config", str(cfg), "--system", "hi-lo")
        assert code == 0
        named = json.loads(out)
        assert from_file["config"]["system"] == "custom"
        assert named["config"]["system"] == "hi-lo"
        assert from_file["stats"] == named["stats"]
        code, out, _ = run_cli(capsys, *args, "--system", "hi-lo")
        assert json.loads(out)["stats"] == named["stats"]

    def test_missing_system_file_exit_2(self, capsys, tmp_path):
        assert_typed_error(
            capsys, "simulate", "--mode", "tc-increment", "--decks", "8",
            "--penetration", "0.5", "--n-cards", "1", "--trials", "5", "--seed", "1",
            "--system-file", str(tmp_path / "absent.txt"),
        )

    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = bankroll\np = 0.52\nhands = 50\ntrials = 5\nseed = 1\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--format", "json",
            "--seed", "9",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_unknown_mode_exit_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = bogus\n")
        for args in (("--mode", "bogus"), ("--config", str(path))):
            code, out, err = run_cli(capsys, "simulate", *args)
            assert (code, out, err) == (2, "", "error: unknown mode 'bogus'\n")

    def test_every_config_key_is_a_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        usage = capsys.readouterr().out
        for key in cli._CONFIG_KEYS:
            assert f"--{key.replace('_', '-')} " in usage

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "line 1" in err

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "absent.cfg")
        )
        assert code == 2

    def test_n_cards_leaving_no_card_exit_2(self, capsys):
        assert_typed_error(
            capsys, "simulate", "--mode", "tc-increment", "--system", "hi-lo",
            "--decks", "1", "--penetration", "0.5", "--n-cards", "26",
            "--trials", "20", "--seed", "1",
        )

    def test_non_integer_n_cards_exit_2(self, capsys):
        assert_typed_error(
            capsys, "simulate", "--mode", "tc-increment", "--system", "hi-lo",
            "--decks", "8", "--penetration", "0.5", "--n-cards", "1,x",
            "--trials", "20", "--seed", "1",
        )

    def test_nan_hand_mean_exit_2(self, capsys):
        assert_typed_error(
            capsys, "simulate", "--mode", "seat-sigma", "--system", "hi-lo",
            "--decks", "8", "--penetration", "0.5", "--hand-mean", "nan",
            "--trials", "20", "--seed", "1",
        )

    @pytest.mark.parametrize("args, unread", [
        (("--mode", "bankroll", "--p", "0.51", "--p0", "0.6", "--var-p0", "0.01",
          "--hands", "10"), "p0, var_p0"),
        (("--mode", "seat-sigma", "--system", "hi-lo", "--decks", "8",
          "--penetration", "0.5", "--n-cards", "3"), "n_cards"),
        (("--mode", "tc-increment", "--system", "hi-lo", "--decks", "8",
          "--penetration", "0.5", "--n-cards", "3", "--hand-mean", "3"), "hand_mean"),
    ], ids=["bankroll", "seat-sigma", "tc-increment"])
    def test_unread_key_exit_2(self, capsys, args, unread):
        code, out, err = run_cli(capsys, "simulate", *args, "--trials", "10", "--seed", "1")
        mode = args[1]
        assert (code, out) == (2, "")
        assert err == f"error: mode {mode!r} does not read config keys {unread}\n"

    def test_unread_key_from_config_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = bankroll\np0 = 0.52\nvar_p0 = 0\nhands = 50\n")
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(path), "--p", "0.51",
            "--trials", "5", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: mode 'bankroll' does not read config keys p0, var_p0\n"

    def test_csv_determinism(self, capsys):
        args = (
            "simulate", "--mode", "tc-increment", "--system", "hi-lo",
            "--decks", "8", "--penetration", "0.5", "--n-cards", "1,4",
            "--trials", "60", "--seed", "12", "--format", "csv",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "\r\n" in out_a


#: Each command with the flag whose value leaves the arithmetic's range, the
#: first value past it and the largest value accepted.
PAST_THE_RANGE = {
    "kelly-hands": (("kelly", "--p0", "0.52", "--hands"),
                    10**400, int(sys.float_info.max)),
    "sigma-table-decks": (("sigma-table", "--penetration", "0.5", "--decks"),
                          10**400, int(sys.float_info.max) // 52),
    "bankroll-hands": (("simulate", "--mode", "bankroll", "--p", "0.51", "--trials", "10",
                        "--seed", "1", "--hands"), 2**63, 2**63 - 1),
    "seat-sigma-decks": (("simulate", "--mode", "seat-sigma", "--system", "hi-lo",
                          "--penetration", "0.5", "--trials", "10", "--seed", "1",
                          "--decks"), 10**20, 19_230_769),
    "tc-increment-decks": (("simulate", "--mode", "tc-increment", "--system", "hi-lo",
                            "--penetration", "0.5", "--n-cards", "1", "--trials", "10",
                            "--seed", "1", "--decks"), 19_230_770, 19_230_769),
}


@pytest.mark.parametrize("case", PAST_THE_RANGE.values(), ids=PAST_THE_RANGE.keys())
def test_value_past_the_arithmetic_exit_2(capsys, case):
    args, rejected, largest = case
    code, out, err = run_cli(capsys, *args, str(largest), "--format", "csv")
    assert (code, err) == (0, "")
    assert "nan" not in out and "inf" not in out
    assert_typed_error(capsys, *args, str(rejected))


def test_module_route_from_the_source_tree():
    """``python -m truecount.cli`` with ``src`` on ``PYTHONPATH``, the route
    that needs no install, prints the builtins and maps errors to exit 2."""
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "truecount.cli", *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )

    systems = run("systems")
    assert (systems.returncode, systems.stderr) == (0, "")
    rows = systems.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == [s.name for s in builtin_systems()]
    assert len(rows) == 11
    refused = run("longrun", "--eps", "0")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("error:")
