"""Command-line front end.

Subcommands: ``systems``, ``sigma-table``, ``exact``, ``verify``, ``kelly``,
``longrun``, ``simulate``.  Each is declared once, in ``build_parser``: its
flags and the handler that turns them into its output text and exit code.
``main`` parses, runs that handler and maps errors to exit codes: 0 success,
1 verification failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Callable

from .counting import (
    builtin_systems,
    get_system,
    parse_composition,
    parse_system_file,
    shown,
    whole_number,
)
from .errors import (
    BadRangeError,
    ConfigError,
    InvariantError,
    ParseError,
    TrueCountError,
)
from .exact import (
    predicted_increment_std, predicted_seat_sigma, sigma_n_approx, sigma_n_exact,
    tc_distribution,
)
from .kelly import (
    FuzzyAdvantage,
    GrowthStats,
    growth_stats_binomial,
    growth_var_fuzzy,
    kelly_fraction,
    long_run,
)
from .reports import FORMATS, ReportTable
from .seats import SeatCardModel
from .sim import (
    FixedAdvantageModel,
    TwoPointAdvantageModel,
    simulate_bankroll,
    simulate_seat_sigma,
    simulate_tc_increment,
)
from .verify import verify_kelly, verify_lemmas, verify_theorem

POSITION7_NOTE = (
    "* last-seat play->dealer dispersion follows this card-consumption model; "
    "published figures for that seat are half the model value (convention unknown)."
)


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers such as ``"1,4,7"``."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _resolve_system(name: str | None, system_file: str | None):
    """The system in ``system_file`` (named ``custom`` unless named), else
    the builtin ``name`` (``hi-lo`` when None)."""
    if system_file:
        with open(system_file, "r", encoding="utf-8") as fh:
            return parse_system_file(fh.read(), name=name or "custom")
    return get_system("hi-lo" if name is None else name)


def _seat_model(seats: int, position: int, hand_mean: float | None) -> SeatCardModel:
    """The default hand-length law, or the two-point law of an explicit mean."""
    if hand_mean is None:
        return SeatCardModel(seats, position)
    return SeatCardModel.with_hand_mean(seats, position, hand_mean)


def cmd_systems() -> ReportTable:
    """Weight dispersion of every builtin system, 3-digit display."""
    systems = builtin_systems()
    return ReportTable(
        title="Builtin count systems",
        row_labels=[s.name for s in systems],
        col_labels=["sigma0"],
        cells=[[s.sigma0()] for s in systems],
    )


def cmd_sigma_table(
    system,
    decks: int,
    penetration: float,
    seats: int,
    positions: list[int],
    hand_mean: float | None = None,
) -> ReportTable:
    """Bet- and play-moment true-count dispersion by seat (deck units)."""
    decks = whole_number(decks, "decks", 1)
    if 52 * decks > sys.float_info.max:
        raise BadRangeError(f"need a shoe within the float range, got {shown(decks)} decks")
    if not 0 < penetration < 1:
        raise BadRangeError(f"penetration must be in (0, 1), got {shown(penetration)}")
    remaining = 52 * decks * (1 - penetration)
    cells_bet, cells_play = [], []
    markers = {}
    for idx, pos in enumerate(positions):
        model = _seat_model(seats, pos, hand_mean)
        n_bet, n_play = model.mean_cards_between
        for n, moments in ((n_bet, "bet and play"), (n_play, "play and dealer")):
            if n >= remaining:
                raise BadRangeError(
                    f"position {pos} sees {n:g} cards between its {moments} moments, "
                    f"but a {shown(decks)}-deck shoe at {penetration:.1%} penetration leaves "
                    f"{remaining:.4g} (hand mean {model.mean_cards_per_hand})"
                )
        cells_bet.append(52 * sigma_n_approx(remaining, n_bet, system))
        cells_play.append(52 * sigma_n_approx(remaining, n_play, system))
        if pos == seats:
            markers[(1, idx)] = "*"
    table = ReportTable(
        title=(
            f"{system.name}: sigma by position "
            f"({decks}-deck shoe, {penetration:.1%} played, {seats} seats)"
        ),
        row_labels=["sigma_bet", "sigma_play"],
        col_labels=[str(p) for p in positions],
        cells=[cells_bet, cells_play],
        cell_markers=markers,
    )
    if markers:
        table.notes.append(POSITION7_NOTE)
    return table


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, reduced by one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def cmd_exact(comp_spec: str, n: int, units: str = "deck") -> ReportTable:
    """Exact distribution and moments for a composition spec.

    The law's mass, variance and mean are held to 1, the closed form and
    R/N, as the moment sweep holds them; a mismatch raises ``InvariantError``.
    """
    comp = parse_composition(comp_spec)
    dist = tc_distribution(comp, n)
    scale = 52 if units == "deck" else 1
    s0, *_, c, d = dist.sums
    ways = dist.ways
    # The text of each atom (x / d, ways / c) of ``dist.atoms``, the value scaled.
    rows = [(_ratio(x * scale, d), _ratio(ways[x], c)) for x in sorted(ways)]
    if s0 != c:
        raise InvariantError(f"enumerated probabilities sum to {Fraction(s0, c)} != 1")
    mean = dist.mean()
    var = dist.variance()
    closed = sigma_n_exact(comp, n)
    if var != closed.squared:
        raise InvariantError(
            f"enumerated variance {var} != closed form {closed.squared}"
        )
    if mean != comp.true_count():
        raise InvariantError(f"enumerated mean {mean} != R/N {comp.true_count()}")
    table = ReportTable(
        title=(
            f"True count after {n} of {comp.total} cards removed "
            f"({units} units), composition {comp_spec}"
        ),
        row_labels=[r[0] for r in rows]
        + ["mean (exact)", "sigma (enumerated)", "sigma (closed form)"],
        col_labels=["probability"],
        cells=[[r[1]] for r in rows]
        + [
            [str(mean * scale)],
            [scale * float(var) ** 0.5],
            [scale * closed.value],
        ],
        precision=6,
    )
    return table


#: The sweep of each ``verify`` scope, given the seed; ``all`` runs them in order.
_VERIFY_SCOPES: dict[str, Callable] = {
    "lemmas": lambda seed: verify_lemmas(seed=seed),
    "theorem": lambda seed: verify_theorem(seed=seed),
    "kelly": lambda seed: verify_kelly(),
}


def cmd_verify(scope: str = "all", seed: int = 0) -> tuple[str, int]:
    """Run a verification sweep, or all three; returns (text, exit code).

    The seed is checked once, before any sweep runs, so every scope
    refuses a bad seed, ``kelly`` too, whose sweep takes no seed.
    """
    seed = whole_number(seed, "seed", 0)
    if scope == "all":
        scopes = list(_VERIFY_SCOPES)
    elif scope in _VERIFY_SCOPES:
        scopes = [scope]
    else:
        raise BadRangeError(f"unknown verify scope {scope!r}")
    results = [_VERIFY_SCOPES[name](seed) for name in scopes]
    lines = [r.summary() for r in results]
    for r in results:
        lines.extend("  " + f for f in r.failures[:20])
    return "\n".join(lines) + "\n", 0 if all(r.passed for r in results) else 1


def cmd_kelly(p0: float, var_p0: float = 0.0, hands: int = 1) -> ReportTable:
    """Kelly fraction and growth statistics for a (possibly noisy) advantage."""
    advantage = FuzzyAdvantage(p0, var_p0)
    fraction = kelly_fraction(p0)
    stats = growth_var_fuzzy(advantage) if p0 > 0.5 else GrowthStats(0.0, 0.0)
    return ReportTable(
        title=f"Kelly betting at p0={p0}, var_p0={var_p0}",
        row_labels=[
            "kelly fraction",
            "mean growth rate",
            "growth variance (1 hand)",
            f"growth std ({hands} hands)",
        ],
        col_labels=["value"],
        cells=[[fraction], [stats.mean], [stats.variance], [stats.std(hands)]],
        precision=8,
    )


def cmd_longrun(
    eps: float, sigma_bet_a: float, sigma_bet_b: float, threshold: float = 2.0
) -> ReportTable:
    """Long-run comparison for two bet-moment dispersion levels."""
    n_a = long_run(eps, sigma_bet_a, threshold)
    n_b = long_run(eps, sigma_bet_b, threshold)
    delta = n_b - n_a
    # Favorable hands are roughly 40% of hands dealt, hence the x2.5 total;
    # 50 hands/hour converts totals to table time.
    rows = [
        ("favorable hands (a)", n_a),
        ("favorable hands (b)", n_b),
        ("delta favorable hands", delta),
        ("delta relative", delta / n_a),
        ("delta total hands (x2.5)", 2.5 * delta),
        ("delta hours at 50 hands/h", 2.5 * delta / 50),
        ("total hands (a, x2)", 2 * n_a),
        ("total hands (a, x2.5)", 2.5 * n_a),
        ("hours (a) at 50 hands/h", 2.5 * n_a / 50),
    ]
    for label, value in rows:
        if not math.isfinite(value):
            raise BadRangeError(f"{label} is {value}: past the float range")
    return ReportTable(
        title=(
            f"Long run at eps={eps}, threshold={threshold}: "
            f"sigma_bet {sigma_bet_a} vs {sigma_bet_b}"
        ),
        row_labels=[r[0] for r in rows],
        col_labels=["value"],
        cells=[[r[1]] for r in rows],
        precision=1,
    )


# -- simulate ---------------------------------------------------------------

#: Every config key and the reader of its value, a line per group of related
#: keys; each is also a ``simulate`` flag, in this order.
_CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "mode": str,
    "system": str, "system_file": str, "decks": int, "penetration": float,
    "seats": int, "position": int, "hand_mean": float,
    "trials": int, "seed": int,
    "p": float, "p0": float, "var_p0": float, "hands": int,
    "n_cards": _parse_int_list,
}


def parse_config(text: str) -> dict:
    """Parse a ``key = value`` config; unknown keys fail with line numbers."""
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in config:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        config[key] = value
    return config


def _take(config: dict, key: str, default=None):
    """Remove ``key`` from ``config`` and return its value read, else ``default``."""
    if key not in config:
        if default is not None:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    value = config.pop(key)
    try:
        return _CONFIG_KEYS[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {value!r}") from exc


def _config_system(config: dict):
    """The config's count system: a builtin name, or a ``system_file``."""
    system_file = config.pop("system_file", None)
    name = config.pop("system", None) if system_file else _take(config, "system")
    return _resolve_system(name, system_file)


def run_simulation(config: dict, fmt: str = "table") -> str:
    """Run a parsed simulation config and render its report in ``fmt``.

    A key that the mode does not read raises ``ConfigError``.  The table
    format follows the JSON report with the exact or closed-form
    predictions its statistics converge to; the exact seat and increment
    predictions are computed for that format only.
    """
    config = dict(config)  # each read takes its key out
    mode = _take(config, "mode", default="seat-sigma")
    if mode not in ("seat-sigma", "tc-increment", "bankroll"):
        raise ConfigError(f"unknown mode {mode!r}")
    seed = _take(config, "seed")
    trials = _take(config, "trials")
    if mode == "bankroll":
        hands = _take(config, "hands")
        if "p" in config:
            p = _take(config, "p")
            model = FixedAdvantageModel(p)
            basis, stats = "closed form", growth_stats_binomial(p) if p > 0.5 else None
        else:
            p0 = _take(config, "p0")
            var_p0 = _take(config, "var_p0")
            model = TwoPointAdvantageModel(p0, var_p0)
            basis, stats = "first order", growth_var_fuzzy(model) if p0 > 0.5 else None
    else:
        system = _config_system(config)
        decks = _take(config, "decks")
        penetration = _take(config, "penetration")
        if mode == "seat-sigma":
            seats = _take(config, "seats", default=SeatCardModel.seats)
            position = _take(config, "position", default=SeatCardModel.position)
            hand_mean = _take(config, "hand_mean") if "hand_mean" in config else None
            model = _seat_model(seats, position, hand_mean)
        else:
            n_cards = _take(config, "n_cards")
    if config:
        raise ConfigError(f"mode {mode!r} does not read config keys {', '.join(config)}")
    lines: list[str] = []
    if mode == "seat-sigma":
        report = simulate_seat_sigma(system, decks, penetration, model, trials, seed)
        if fmt == "table":
            predicted = predicted_seat_sigma(system, decks, penetration, model)
            lines = [
                f"predicted {label} (exact): {pred:.6f}"
                for label, pred in zip(("sigma_bet", "sigma_play"), predicted)
            ]
    elif mode == "tc-increment":
        report = simulate_tc_increment(system, decks, penetration, n_cards, trials, seed)
        if fmt == "table":
            lines = [
                f"predicted tc_increment_n{n} (exact): "
                f"{predicted_increment_std(system, decks, penetration, n):.6f}"
                for n in report.config["n_cards"]
            ]
    else:
        report = simulate_bankroll(model, hands, trials, seed)
        if stats is not None:
            lines = [
                f"predicted growth mean ({basis}): {stats.mean:.6e}",
                f"predicted growth std over {hands} hands: {stats.std(hands):.6e}",
            ]
    if fmt == "csv":
        return report.to_csv()
    return "\n".join([report.to_json(), *(lines if fmt == "table" else [])]) + "\n"


def _simulate(args) -> tuple[str, int]:
    """``simulate``: the config file, if any, with the flags given over it."""
    config: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return run_simulation(config, args.format), 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged).

    Each subcommand sets ``run``: its handler, mapping the parsed arguments
    to (output text, exit code).
    """
    parser = argparse.ArgumentParser(
        prog="truecount",
        description="True-count dispersion, Kelly long-run analytics, and Monte Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, table=None):
        """``--format``; with ``table``, a handler rendering ``table(args)`` in it."""
        p.add_argument("--format", choices=FORMATS, default="table")
        if table is not None:
            p.set_defaults(run=lambda args: (table(args).render(args.format), 0))

    p = sub.add_parser("systems", help="builtin count systems and their sigma0")
    add_format(p, lambda a: cmd_systems())

    p = sub.add_parser("sigma-table", help="sigma_bet / sigma_play by seat position")
    p.add_argument("--system", default=None,
                   help="builtin system (default hi-lo), or the name given "
                   "to the --system-file system (default custom)")
    p.add_argument("--system-file", default=None)
    p.add_argument("--decks", type=int, default=8)
    p.add_argument("--penetration", type=float, required=True)
    p.add_argument("--seats", type=int, default=SeatCardModel.seats)
    p.add_argument("--positions", default="1,4,7", help="comma-separated seat list")
    p.add_argument("--hand-mean", type=float, default=None,
                   help="mean cards per hand, as a two-point extra-card law "
                   "(default: the 0/1/2 DEFAULT_EXTRA_LAW, mean 2.6)")
    add_format(p, lambda a: cmd_sigma_table(
        _resolve_system(a.system, a.system_file), a.decks, a.penetration,
        a.seats, _parse_int_list(a.positions), a.hand_mean,
    ))

    p = sub.add_parser("exact", help="exact true-count law for a composition")
    p.add_argument("-c", "--composition", required=True)
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--units", choices=("card", "deck"), default="deck")
    add_format(p, lambda a: cmd_exact(a.composition, a.n, a.units))

    p = sub.add_parser("verify", help="run exact verification sweeps")
    p.add_argument("scope", nargs="?", default="all",
                   choices=(*_VERIFY_SCOPES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: cmd_verify(a.scope, a.seed))

    p = sub.add_parser("kelly", help="Kelly fraction and growth statistics")
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--var-p0", type=float, default=0.0)
    p.add_argument("--hands", type=int, default=1)
    add_format(p, lambda a: cmd_kelly(a.p0, a.var_p0, a.hands))

    p = sub.add_parser("longrun", help="long-run hand counts for two sigma_bet levels")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sigma-bet-a", type=float, default=0.0)
    p.add_argument("--sigma-bet-b", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=2.0)
    add_format(p, lambda a: cmd_longrun(a.eps, a.sigma_bet_a, a.sigma_bet_b, a.threshold))

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    p.add_argument("--config", default=None, help="key = value config file")
    for key in _CONFIG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    add_format(p)
    p.set_defaults(run=_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
        # Written inside the try: a failed write (a closed pipe) exits 2 too.
        sys.stdout.write(text)
    except (TrueCountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
