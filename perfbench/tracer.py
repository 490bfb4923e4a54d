"""Run one ``semival`` CLI job with a span recorded around each public function.

Usage: python tracer.py SPANS.json JOB_ID CLI-ARG...

Before calling ``semival.cli.main`` the wrapper replaces every public
function of the package's modules with a recording wrapper, under every
name a caller looks it up by (``semival.valuation.combine``, the
``combine`` a ``from .valuation import`` copied, ...), so no source file
is edited.  Spans are kept in memory and written to ``SPANS.json`` when
the job ends, together with the index-map cache statistics.  The exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

from semival import belief, cli, domains, model, partitions, semiring, treecomp, valuation

TRACED = (cli, model, treecomp, valuation, domains, semiring, belief, partitions)

# Leaf helpers whose cost per call is close to the wrapper's own; their
# time is charged to the caller's span.
UNTRACED = {
    "domains.cond_indep_subsets", "domains.config_from_index", "domains.config_index",
    "domains.restrict", "domains.strides", "partitions.saturate",
    "semiring.format_value", "treecomp.ci_family", "treecomp.default_root",
    "treecomp.join_of",
}


def _size(table) -> int:
    """Cells of a table: a flat sequence or an array with one axis per variable."""
    return table.size if hasattr(table, "size") else len(table)


def _cells(args, kwargs, result):
    return {"cells": _size(result.table)}


def _project_cells(args, kwargs, result):
    return {"cells": 0 if result is args[0] else _size(args[0].table)}


def _extend_cells(args, kwargs, result):
    return {"cells": 0 if result is args[0] else _size(result.table)}


def _tree_shape(args, kwargs, result):
    tree, ops = args[0], args[3]
    cells = max(ops.catalog.config_count(label, cap=None) for label in tree.labels)
    return {"nodes": len(tree), "max_label_cells": cells}


def _focal_pairs(args, kwargs, result):
    pairs = len(args[0].focal) * len(args[1].focal)
    return {"pairs": pairs,
            "pair_cells": pairs * result.catalog.config_count(result.domain, cap=None)}


def _subsets(args, kwargs, result):
    return {"subsets": len(result)}


def _index_map_misses(info):
    seen = [0]

    def work(args, kwargs, result):
        misses = info().misses
        missed, seen[0] = misses != seen[0], misses
        return {"cells": len(result)} if missed else None
    return work


def work_counters(cache_info) -> dict:
    """Work counted per call, keyed by span name, computed after the call returns."""
    counters = {
        "valuation.combine": _cells,
        "valuation.project": _project_cells,
        "valuation.vacuous_extend": _extend_cells,
        "treecomp.collect": _tree_shape,
        "belief.combine_potentials": _focal_pairs,
        "belief.all_focal_sets": _subsets,
    }
    if cache_info is not None:
        counters["domains.restriction_index_map"] = _index_map_misses(cache_info)
    return counters


class Recorder:
    """Spans as ``[name, start, end, parent index, job id, work]`` lists."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, job, clock = self.spans, self.stack, self.job, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, job, None]
            if work is not None:
                spans[index][5] = work(args, kwargs, result)
            return result
        return traced


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "semival"]


def install(recorder: Recorder, counters: dict) -> None:
    for mod in TRACED:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            is_function = isinstance(fn, types.FunctionType) or hasattr(fn, "cache_info")
            name = f"{layer}.{attr}"
            if (not is_function or attr.startswith("_") or name in UNTRACED
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            wrapper = recorder.wrap(name, fn, counters.get(name))
            for user in _package_modules():
                for key, value in list(vars(user).items()):
                    if value is fn:
                        setattr(user, key, wrapper)


def main(argv: list[str]) -> int:
    out_path, job = argv[0], int(argv[1])
    # taken before wrapping; a table representation that needs no cached
    # index map may remove it, and then the index-map counters read 0
    cache_info = getattr(getattr(domains, "restriction_index_map", None), "cache_info", None)
    recorder = Recorder(job)
    install(recorder, work_counters(cache_info))
    try:
        code = cli.main(argv[2:])
    finally:
        cache = cache_info()._asdict() if cache_info is not None else {}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "spans": recorder.spans, "index_map_cache": cache}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
