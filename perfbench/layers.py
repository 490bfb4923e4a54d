"""Per-layer metrics from the span dumps of traced jobs.

A span's self time is its duration minus the durations of its direct
child spans.  A layer is a module of the package; its self time is the
self time of all its spans, so time spent in an untraced helper or a
class method counts for the layer of the function that called it.
Times of a group of functions count only the outermost span of the
group, so nested calls (``degree_of_support`` calling
``mass_to_belief``) are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "model", "treecomp", "valuation", "domains", "semiring", "belief",
          "partitions")

_QUERIES = ("belief.mass_to_belief", "belief.mass_to_commonality",
            "belief.degree_of_quasi_support", "belief.degree_of_support",
            "belief.degree_of_plausibility")

# metric -> span names whose outermost spans it times
TIMES = {
    "cli.main_s": ("cli.main",),
    "model.parse_s": ("model.parse_model",),
    "treecomp.build_s": ("treecomp.build_covering_join_tree",),
    "treecomp.join_check_s": ("treecomp.is_join_tree",),
    "treecomp.collect_s": ("treecomp.collect",),
    "treecomp.distribute_s": ("treecomp.distribute",),
    "valuation.combine_s": ("valuation.combine",),
    "valuation.project_s": ("valuation.project",),
    "valuation.extend_s": ("valuation.vacuous_extend",),
    "valuation.axioms_s": ("valuation.check_valuation_axioms",),
    "domains.index_map_s": ("domains.restriction_index_map",),
    "semiring.check_s": ("semiring.check_semiring_axioms",),
    "belief.combine_s": ("belief.combine_potentials",),
    "belief.transport_s": ("belief.transport_potential",),
    "belief.dempster_s": ("belief.dempster_combine",),
    "belief.query_s": _QUERIES,
    "belief.moebius_s": ("belief.belief_to_mass", "belief.commonality_to_mass"),
    "partitions.check_s": ("partitions.check_qseparoid",),
    "partitions.meet_s": ("partitions.partition_meet",),
}

# metric -> span name whose calls it counts
CALLS = {
    "treecomp.join_check_calls": "treecomp.is_join_tree",
    "valuation.combine_calls": "valuation.combine",
    "valuation.project_calls": "valuation.project",
    "domains.index_map_calls": "domains.restriction_index_map",
    "belief.combine_calls": "belief.combine_potentials",
    "belief.transport_calls": "belief.transport_potential",
    "partitions.join_calls": "partitions.partition_join",
    "partitions.meet_calls": "partitions.partition_meet",
}

# metric -> (span name, work key) summed over calls
WORK = {
    "treecomp.nodes": ("treecomp.collect", "nodes"),
    "valuation.combine_cells": ("valuation.combine", "cells"),
    "valuation.project_cells": ("valuation.project", "cells"),
    "valuation.extend_cells": ("valuation.vacuous_extend", "cells"),
    "domains.index_map_cells": ("domains.restriction_index_map", "cells"),
    "belief.focal_pairs": ("belief.combine_potentials", "pairs"),
    "belief.pair_cells": ("belief.combine_potentials", "pair_cells"),
    "belief.subsets": ("belief.all_focal_sets", "subsets"),
}

CELL_KERNELS = ("valuation.combine", "valuation.project", "valuation.vacuous_extend")

# metric -> (unit, better); the ratios name their base in RATIO_BASES
UNITS = {
    **{m: ("s", "lower") for m in TIMES},
    **{m: ("count", "lower") for m in CALLS},
    **{m: ("count", "lower") for m in WORK},
    "cli.self_s": ("s", "lower"),
    "treecomp.self_s": ("s", "lower"),
    "treecomp.max_label_cells": ("count", "lower"),
    "valuation.ns_per_cell": ("ns/cell", "lower"),
    "domains.index_map_hit_ratio": ("ratio", "higher"),
    **{f"layers.{name}_self_s": ("s", "lower") for name in LAYERS if name != "cli"},
    "trace.outside_main_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

RATIO_BASES = {
    "valuation.ns_per_cell": "valuation.combine_cells + valuation.project_cells "
                             "+ valuation.extend_cells",
    "domains.index_map_hit_ratio": "domains.index_map_calls",
    "trace.overhead_frac": "untraced wall time of the same jobs",
}


def _outermost(spans: list, names: set) -> float:
    total = 0.0
    for name, start, end, parent, _job, _work in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def job_totals(dump: dict) -> dict[str, float]:
    """The raw per-layer sums of one traced job."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for _name, start, end, parent, _job, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    kernel_self = 0.0
    for i, (name, start, end, _parent, _job, work) in enumerate(spans):
        own = end - start - child[i]
        layer = name.split(".", 1)[0]
        out[f"self:{layer}"] += own
        calls[name] += 1
        if name in ("treecomp.collect", "treecomp.distribute"):
            out["treecomp.self_s"] += own
        if name in CELL_KERNELS:
            kernel_self += own
        for metric, (span, key) in WORK.items():
            if span == name and work and key in work:
                out[metric] += work[key]
        if name == "treecomp.collect" and work:
            out["treecomp.max_label_cells"] = max(out["treecomp.max_label_cells"],
                                                  work["max_label_cells"])
    for metric, names in TIMES.items():
        out[metric] = _outermost(spans, set(names))
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    out["kernel_self_s"] = kernel_self
    out["index_map_hits"] = dump["index_map_cache"].get("hits", 0)
    return out


def per_pass(jobs: list[dict], passes: int, traced_s: float, untraced_s: float
             ) -> dict[str, float]:
    """Per-layer metrics per pass of the job list, from every traced job's totals."""
    total: dict[str, float] = defaultdict(float)
    for totals in jobs:
        for key, value in totals.items():
            if key == "treecomp.max_label_cells":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    cells = sum(total[m] for m in ("valuation.combine_cells", "valuation.project_cells",
                                   "valuation.extend_cells"))
    calls = total["domains.index_map_calls"]
    out = {m: total[m] / passes for m in (*TIMES, *CALLS, *WORK, "treecomp.self_s")}
    out["treecomp.max_label_cells"] = total["treecomp.max_label_cells"]
    out["cli.self_s"] = total["self:cli"] / passes
    for name in LAYERS[1:]:
        out[f"layers.{name}_self_s"] = total[f"self:{name}"] / passes
    out["valuation.ns_per_cell"] = 1e9 * total["kernel_self_s"] / cells if cells else 0.0
    out["domains.index_map_hit_ratio"] = total["index_map_hits"] / calls if calls else 0.0
    out["trace.outside_main_s"] = (traced_s - total["cli.main_s"]) / passes
    out["trace.overhead_s"] = (traced_s - untraced_s) / passes
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out
