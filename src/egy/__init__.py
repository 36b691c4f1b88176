"""Exact Egyptian-fraction underapproximations, partitions, and measure
certificates.

Everything is exact rational arithmetic (``fractions.Fraction``); results
are either exact or an explicit resource error, never approximate.
"""

from ._kernels import BACKEND
from .greedy import greedy_gap, greedy_underapprox, greedy_value
from .lemma1 import (
    CertificateError,
    Lemma1Report,
    lemma1_certificate,
    nongreedy_two_term_measure,
    xk,
)
from .measure import (
    ChainReport,
    DecayReport,
    MeasureEnclosure,
    SampleReport,
    cell_decay_bound,
    chain_check,
    sample_chain_density,
    wilson_interval,
)
from .partition import (
    Cell,
    cell_of,
    cells_in_window,
    cells_to_csv,
    next_regular_above,
    refinement_check,
)
from .rational import (
    EgyptianRep,
    format_rational,
    harmonic,
    make_rep,
    parse_rational,
    rep_value,
    sum_exact,
)
from .search import (
    NodeBudgetExceeded,
    ResourceLimitError,
    ShorterRepresentationError,
    best_underapprox,
    has_representation,
    next_point_above,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Cell",
    "CertificateError",
    "ChainReport",
    "DecayReport",
    "EgyptianRep",
    "Lemma1Report",
    "MeasureEnclosure",
    "NodeBudgetExceeded",
    "ResourceLimitError",
    "SampleReport",
    "ShorterRepresentationError",
    "best_underapprox",
    "cell_decay_bound",
    "cell_of",
    "cells_in_window",
    "cells_to_csv",
    "chain_check",
    "format_rational",
    "greedy_gap",
    "greedy_underapprox",
    "greedy_value",
    "harmonic",
    "has_representation",
    "lemma1_certificate",
    "make_rep",
    "next_point_above",
    "next_regular_above",
    "nongreedy_two_term_measure",
    "parse_rational",
    "refinement_check",
    "rep_value",
    "sample_chain_density",
    "sum_exact",
    "wilson_interval",
    "xk",
]
