"""The package's public surface."""
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import truecount
from truecount import cli, counting, exact, kelly, seats, sim, verify

#: Helpers that restated another function or gave a second path to its
#: result, by the module that held them.
REMOVED = {
    counting: (
        "fresh_shoe", "format_composition", "format_weight", "check_decks", "composition",
        "make_count_system",
    ),
    exact: ("sigma1_exact", "sigma1_approx", "tc_distributions", "_laws"),
    kelly: (
        "advantage_variance", "OptimalityReport", "optimality_reports",
        "verify_kelly_optimality", "optimality_passed",
    ),
    verify: ("verify_all",),
    cli: ("DEFAULT_HAND_MEAN", "DEFAULT_SEATS", "DEFAULT_POSITION"),
    seats: ("sigma_ratio", "n_cards_between", "MOMENT_PAIRS"),
}

#: What moved out of the sampler: the exact predictors to ``exact``, the
#: shoe rule to ``counting``.
MOVED_FROM_SIM = (
    "predicted_increment_std", "predicted_seat_sigma", "_increment_variance",
    "_convolve", "_cut_index", "MAX_SHOE_CARDS",
)


def test_public_surface():
    assert len(truecount.__all__) == len(set(truecount.__all__))
    for name in truecount.__all__:
        assert getattr(truecount, name) is not None, name
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(truecount, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # One name per value: the shoe and sigma0 squared have no second spelling.
    for name in ("weight_multiplicities", "_sigma0_squared"):
        assert not hasattr(truecount.CountSystem, name), name


README = Path(__file__).parents[1] / "README.md"


def readme_spans() -> list[str]:
    """The backticked spans of the README's prose, code blocks left out."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    return re.findall(r"`([^`]+)`", prose)


def test_readme_names_no_removed_helper():
    spans = readme_spans()
    for names in REMOVED.values():
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            assert not [span for span in spans if word.search(span)], name


def resolve(name: str):
    """``name`` by import of its longest importable prefix, then ``getattr``."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj


def test_readme_dotted_names_resolve():
    names = {span for span in readme_spans() if re.fullmatch(r"truecount(\.\w+)+", span)}
    assert "truecount.kernels.running_counts" in names
    for name in names:
        resolve(name)


def readme_commands() -> list[list[str]]:
    """The arguments of every ``truecount`` line of the README's ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("truecount ")]


#: The files that README command lines name: a seat-sigma config and the hi-lo weights.
README_FILES = {
    "run.cfg": "mode = seat-sigma\nsystem = hi-lo\ndecks = 8\npenetration = 0.5\n"
               "seats = 7\nposition = 7\ntrials = 50\nseed = 3\n",
    "my.sys": "A -1\n2 1\n3 1\n4 1\n5 1\n6 1\n7 0\n8 0\n9 0\nT -1\n",
}


def test_readme_commands_exit_0(tmp_path):
    commands = readme_commands()
    assert len(commands) == 9 and ["verify", "all"] in commands
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    for argv in commands:
        argv = [str(tmp_path / a) if a in README_FILES else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, argv
        assert out.getvalue(), argv


def test_sim_samples_and_exact_predicts():
    for name in MOVED_FROM_SIM:
        assert not hasattr(sim, name), name
    assert truecount.predicted_seat_sigma is exact.predicted_seat_sigma
    assert truecount.predicted_increment_std is exact.predicted_increment_std
    assert exact._shoe_cut is counting._shoe_cut


def test_one_whole_number_rule():
    """Only ``counting``, which holds ``whole_number``, asks for ``numbers.Integral``."""
    src = Path(truecount.__file__).parent
    holders = sorted(p.name for p in src.glob("*.py") if "numbers.Integral" in p.read_text())
    assert holders == ["counting.py"]


def test_one_shoe_rule():
    """Only ``counting._whole_decks`` bounds a shoe's cards."""
    src = Path(truecount.__file__).parent
    rules = [p.name for p in src.glob("*.py") for line in p.read_text().splitlines()
             if ">= MAX_SHOE_CARDS" in line]
    assert rules == ["counting.py"]


def test_one_seat_rule():
    """Only ``seats``, which holds ``SeatCardModel.hands_between``, splits the
    hands at a seat's position."""
    src = Path(truecount.__file__).parent
    holders = sorted(p.name for p in src.glob("*.py") if "position - 1" in p.read_text())
    assert holders == ["seats.py"]
