"""True-count dispersion, Kelly long-run analytics, and seeded Monte Carlo.

Exact rational machinery for the distribution of the true count under card
removal, closed-form and simulated seat-position dispersion, and Kelly
growth-rate statistics with a noisy advantage.
"""
from .counting import (
    CountSystem,
    WeightComposition,
    builtin_systems,
    get_system,
    make_count_system,
    parse_composition,
    parse_system_file,
)
from .errors import (
    BadRangeError,
    ConfigError,
    ConvergenceError,
    EmptyClassError,
    EmptyDeckError,
    InfeasiblePrefixError,
    InvalidMultiplicityError,
    InvariantError,
    ParseError,
    ShoeExhaustedError,
    TrueCountError,
    UnbalancedSystemError,
    UnknownSystemError,
)
from .exact import (
    SigmaResult,
    TrueCountDistribution,
    predicted_increment_std,
    predicted_seat_sigma,
    sigma_n_approx,
    sigma_n_exact,
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
from .seats import DEFAULT_EXTRA_LAW, SeatCardModel
from .sim import (
    FixedAdvantageModel,
    SimulationReport,
    TwoPointAdvantageModel,
    simulate_bankroll,
    simulate_seat_sigma,
    simulate_tc_increment,
    trial_rng,
)
from .verify import verify_kelly, verify_lemmas, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "BadRangeError",
    "ConfigError",
    "ConvergenceError",
    "CountSystem",
    "DEFAULT_EXTRA_LAW",
    "EmptyClassError",
    "EmptyDeckError",
    "FixedAdvantageModel",
    "FuzzyAdvantage",
    "GrowthStats",
    "InfeasiblePrefixError",
    "InvalidMultiplicityError",
    "InvariantError",
    "ParseError",
    "SeatCardModel",
    "ShoeExhaustedError",
    "SigmaResult",
    "SimulationReport",
    "TrueCountDistribution",
    "TrueCountError",
    "TwoPointAdvantageModel",
    "UnbalancedSystemError",
    "UnknownSystemError",
    "WeightComposition",
    "builtin_systems",
    "get_system",
    "growth_stats_binomial",
    "growth_var_fuzzy",
    "kelly_fraction",
    "long_run",
    "make_count_system",
    "parse_composition",
    "parse_system_file",
    "predicted_increment_std",
    "predicted_seat_sigma",
    "sigma_n_approx",
    "sigma_n_exact",
    "simulate_bankroll",
    "simulate_seat_sigma",
    "simulate_tc_increment",
    "tc_distribution",
    "trial_rng",
    "verify_kelly",
    "verify_lemmas",
    "verify_theorem",
]
