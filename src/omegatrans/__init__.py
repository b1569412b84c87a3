"""Transformations of infinite strings definable without counting.

The package provides four interconvertible machine models over ultimately
periodic omega-words, together with the algebra used to decide aperiodicity:

* deterministic Muller automata and their transition-matrix monoid,
* copyless streaming string transducers (SSTs) and their flow monoid,
* deterministic two-way transducers with star-free look-around,
* first-order definable transducers (an FO interpretation per output copy).

All machines can be executed on ultimately periodic words, compared against
each other, and compiled along the two-way -> guarded SST -> plain SST chain.
The ``omega-trans`` command line exposes the same operations on machine files.
"""

from .words import UPWord, parse_word, format_word, first_divergence, distance
from .fologic import (
    evaluate,
    format_formula,
    parse_formula,
)
from .muller import Dma, dma_monoid, is_aperiodic, matrix_of_word, power_cycle_length
from .sst import (
    NotInDomain,
    Sst,
    analyze_run,
    is_1_bounded,
    is_aperiodic_sst,
    run_output,
    sst_monoid,
)
from .outputgraph import build_output_graph, in_out_value
from .twowst import (
    Dfa,
    TwoWst,
    anchored_behavior,
    compose_behaviors,
    element_of_word,
    is_aperiodic_2wst,
    run_2wst,
    twowst_monoid,
)
from .fot import Fot, fot_domain, run_fot
from .constructions import (
    SstSf,
    compare_outputs,
    eliminate_lookaround,
    pipeline_output,
    run_model,
    run_output_sst_sf,
    twowst_to_sst_sf,
    useful_configs,
)
from .formats import parse_corpus, parse_machine, print_machine

__all__ = [
    "UPWord",
    "parse_word",
    "format_word",
    "first_divergence",
    "distance",
    "evaluate",
    "format_formula",
    "parse_formula",
    "Dma",
    "dma_monoid",
    "is_aperiodic",
    "matrix_of_word",
    "power_cycle_length",
    "NotInDomain",
    "Sst",
    "analyze_run",
    "is_1_bounded",
    "is_aperiodic_sst",
    "run_output",
    "sst_monoid",
    "build_output_graph",
    "in_out_value",
    "Dfa",
    "TwoWst",
    "anchored_behavior",
    "compose_behaviors",
    "element_of_word",
    "is_aperiodic_2wst",
    "run_2wst",
    "twowst_monoid",
    "Fot",
    "fot_domain",
    "run_fot",
    "SstSf",
    "compare_outputs",
    "eliminate_lookaround",
    "pipeline_output",
    "run_model",
    "run_output_sst_sf",
    "twowst_to_sst_sf",
    "useful_configs",
    "parse_corpus",
    "parse_machine",
    "print_machine",
]
