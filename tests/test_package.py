"""The package's public surface."""
from pathlib import Path

import truecount
from truecount import cli, counting, exact, kelly, seats, sim, verify

#: Helpers that restated another function or gave a second path to its
#: result, by the module that held them.
REMOVED = {
    counting: ("fresh_shoe", "format_composition", "format_weight", "check_decks"),
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


def test_readme_names_no_removed_helper():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for names in REMOVED.values():
        for name in names:
            assert f"`{name}`" not in readme, name


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


def test_one_seat_rule():
    """Only ``seats``, which holds ``SeatCardModel.hands_between``, splits the
    hands at a seat's position."""
    src = Path(truecount.__file__).parent
    holders = sorted(p.name for p in src.glob("*.py") if "position - 1" in p.read_text())
    assert holders == ["seats.py"]
