"""Local computation over semiring valuations and set potentials.

The names below are re-exported lazily (PEP 562): ``semival.Valuation``
imports ``semival.valuation`` on first access, and ``semival.treecomp``
resolves the submodule the same way.  Importing the package, or running
``python -m semival.cli``, therefore loads only what a command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "compare": ("Comparator", "DEFAULT_COMPARATOR"),
    "domains": (
        "DEFAULT_CONFIG_CAP",
        "Domain",
        "EMPTY_DOMAIN",
        "Variable",
        "VariableCatalog",
        "cond_indep_subsets",
    ),
    "semiring": (
        "Semiring",
        "builtin_instances",
        "chain_instance",
        "check_semiring_axioms",
        "get_instance",
    ),
    "valuation": (
        "Valuation",
        "check_valuation_axioms",
        "combine",
        "combine_project",
        "is_null",
        "null",
        "project",
        "transport",
        "unit",
        "vacuous_extend",
        "valuations_equal",
    ),
    "partitions": (
        "Partition",
        "Universe",
        "all_partitions",
        "check_qseparoid",
        "cond_indep_partitions",
        "lattice_cond_indep",
        "partition_by",
        "partition_join",
        "partition_leq",
        "partition_meet",
        "partitions_commute",
        "saturate",
    ),
    "belief": (
        "FocalSet",
        "SetPotential",
        "belief_to_mass",
        "combine_potentials",
        "commonality_to_mass",
        "degree_of_plausibility",
        "degree_of_support",
        "dempster_combine",
        "mass_to_belief",
        "mass_to_commonality",
        "set_potential",
        "subset_tables",
        "transport_potential",
        "vacuous",
    ),
    "treecomp": (
        "EliminationSequence",
        "LabeledTree",
        "MessageStore",
        "SetPotentialOps",
        "ValuationOps",
        "build_covering_join_tree",
        "collect",
        "distribute",
        "first_sequence_violation",
        "hypertree_collect",
        "hypertree_distribute",
        "is_join_tree",
        "naive_solve",
        "sequence_to_join_tree",
        "tree_to_sequence",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "model", "reports")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
