"""Exact cluster seeds for Grassmannians and partial flag varieties.

The package builds the rectangle seed of a Grassmannian and the pseudoline
seed of a partial flag variety, runs explicit mutation programs connecting
them, and certifies the endpoint with exact Laurent arithmetic plus modular
evaluation.
"""

from .flags import (
    FlagSeed,
    FlagType,
    GrassmannianSeed,
    build_flag_quiver,
    embedded_flag_seed,
    initial_index_sets,
    lift_index_set,
    weight_of_index_set,
)
from .plucker import PluckerPoly, laplace_initial_minor, plucker_relation
from .programs import (
    MutationProgram,
    Report,
    general_flag_program,
    mt_program,
    run_program,
    sh_program,
    verify_theorem,
)
from .quiver import Quiver, Seed, seeds_equal
from .tableaux import Tableau, tableau_mutation

__version__ = "0.1.0"

__all__ = [
    "FlagSeed",
    "FlagType",
    "GrassmannianSeed",
    "MutationProgram",
    "PluckerPoly",
    "Quiver",
    "Report",
    "Seed",
    "Tableau",
    "build_flag_quiver",
    "embedded_flag_seed",
    "general_flag_program",
    "initial_index_sets",
    "laplace_initial_minor",
    "lift_index_set",
    "mt_program",
    "plucker_relation",
    "run_program",
    "seeds_equal",
    "sh_program",
    "tableau_mutation",
    "verify_theorem",
    "weight_of_index_set",
]
