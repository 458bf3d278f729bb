"""The package's public surface."""
import truecount
from truecount import cli, counting, exact, kelly, verify

#: Helpers that restated another function, by the module that held them.
REMOVED = {
    counting: ("fresh_shoe", "format_composition", "format_weight"),
    exact: ("sigma1_exact", "sigma1_approx"),
    kelly: (
        "advantage_variance", "OptimalityReport", "optimality_reports",
        "verify_kelly_optimality", "optimality_passed",
    ),
    verify: ("verify_all",),
    cli: ("DEFAULT_HAND_MEAN",),
}


def test_public_surface():
    assert len(truecount.__all__) == len(set(truecount.__all__))
    for name in truecount.__all__:
        assert getattr(truecount, name) is not None, name
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(truecount, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
