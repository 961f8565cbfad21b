"""Layer spans for the traced run, recorded from outside the program.

`install` replaces each target function on every hmerge module attribute
that refers to it (so `hmerge.achievability.cover_bins` and
`hmerge.reduction.cover_bins` both record, and `Profile.canonical_order` on
the class), with a wrapper that keeps the signature, passes arguments and
results through unchanged and appends a span. A target the program no
longer has is listed in `Tracer.missing` and its metrics read "not
measured" (null) instead of failing the run.

A span is [name, start, end, parent, op, info]: parent is the index of the
enclosing span (-1 at top level), op the benchmark op id, and info holds the
exception class name (`exc`) and the counts read off the result at that
boundary (`nodes`, `yes`, `agree`, `partitions`). A cover_bins call that
runs out of budget counts its budget as nodes; one that ends in any other
exception has no node count.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("model", "improvement", "covering", "achievability", "reduction", "cli")

# (module, qualified name) of every traced function.
TARGETS = (
    ("model", "parse_profile_text"),
    ("model", "h_index"),
    ("model", "validate_partition"),
    ("model", "Profile.canonical_order"),
    ("improvement", "classify"),
    ("improvement", "improving_partition"),
    ("covering", "cover_bins"),
    ("achievability", "max_achievable"),
    ("achievability", "_achieve"),
    ("achievability", "brute_force_max"),
    ("reduction", "verify_reduction"),
    ("reduction", "solve_3partition"),
    ("cli", "main"),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _observe(name: str, result, info: dict) -> None:
    """Counts visible in a traced call's result."""
    if name in ("covering.cover_bins", "achievability._achieve"):  # (answer or None, nodes)
        info["yes"] = result[0] is not None
        info["nodes"] = result[1]
    elif name == "achievability.brute_force_max":
        info["partitions"] = result.nodes_explored
    elif name == "reduction.verify_reduction":
        info["agree"] = bool(result.agree)


class Tracer:
    """In-memory span store for one process; written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info: dict = {}
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, info])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["exc"] = type(exc).__name__
                if name == "covering.cover_bins" and hasattr(exc, "budget"):
                    info["nodes"] = exc.budget
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            try:
                _observe(name, result, info)
            except (AttributeError, TypeError, IndexError, KeyError):
                pass  # the result changed shape: its counts read as not measured
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target on every hmerge name that refers to it; returns the undo list."""
    package = importlib.import_module("hmerge")
    modules = {name: importlib.import_module(f"hmerge.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    undo: list[tuple] = []
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        owner = modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.missing.append(name)
            continue
        wrapper = tracer.wrap(original, name)
        holders = [owner] if path else []
        holders += [ns for ns in namespaces if any(v is original for v in vars(ns).values())]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, value))
                    setattr(holder, key, wrapper)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for holder, key, value in reversed(undo):
        setattr(holder, key, value)


def _outermost(spans: list[list], index: int) -> bool:
    """True when no ancestor span has the same name (recursive calls count once)."""
    name, parent = spans[index][0], spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def _under(spans: list[list], index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], missing: list[str]) -> dict:
    """Per-layer counts and times from a span list; None marks "not measured"."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def seconds(name):
        if name in missing:
            return None
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()) if _outermost(spans, i))

    def calls(name):
        return None if name in missing else len(by_name.get(name, ()))

    def info_sum(name, key, where=lambda i: True):
        if name in missing:
            return None
        return sum(spans[i][5].get(key, 0) for i in by_name.get(name, ()) if where(i))

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    children_time: dict[int, float] = {}
    for span in spans:
        if span[3] >= 0:
            children_time[span[3]] = children_time.get(span[3], 0.0) + span[2] - span[1]
    main_self = None
    if "cli.main" not in missing:
        main_self = sum(spans[i][2] - spans[i][1] - children_time.get(i, 0.0) for i in by_name.get("cli.main", ()))

    cover = "covering.cover_bins"
    step = "achievability._achieve"
    cover_done = [i for i in by_name.get(cover, ()) if "yes" in spans[i][5]]
    nodes = info_sum(cover, "nodes")
    # nodes/s over the calls whose node count is known: a call that ends in
    # RecursionError reports none.
    counted_s = None if cover in missing else sum(
        spans[i][2] - spans[i][1] for i in by_name.get(cover, ()) if "nodes" in spans[i][5])
    maxes = [] if "achievability.max_achievable" in missing else by_name.get("achievability.max_achievable", ())

    def failures(exc):
        if "achievability.max_achievable" in missing:
            return None
        return sum(1 for i in maxes if spans[i][5].get("exc") == exc and _outermost(spans, i))

    # Nodes of each k step are those of the cover_bins calls it makes, so a
    # step that runs out of budget still counts the nodes it spent.
    step_nodes = yes_step_nodes = None
    if step not in missing and cover not in missing:
        in_steps = [i for i in by_name.get(cover, ()) if spans[i][3] >= 0 and spans[spans[i][3]][0] == step]
        step_nodes = sum(spans[i][5].get("nodes", 0) for i in in_steps)
        yes_step_nodes = sum(spans[i][5].get("nodes", 0) for i in in_steps if spans[spans[i][3]][5].get("yes"))
    verify = by_name.get("reduction.verify_reduction", ())
    partitions = info_sum("achievability.brute_force_max", "partitions")
    return {
        "model.parse_profile_text.s": seconds("model.parse_profile_text"),
        "model.h_index.s": seconds("model.h_index"),
        "model.validate_partition.calls": calls("model.validate_partition"),
        "model.validate_partition.s": seconds("model.validate_partition"),
        "model.canonical_order.calls": calls("model.canonical_order"),
        "model.canonical_order.s": seconds("model.canonical_order"),
        "improvement.classify.s": seconds("improvement.classify"),
        "improvement.improving_partition.s": seconds("improvement.improving_partition"),
        "cli.main.self_s": main_self,
        "covering.cover_bins.calls": calls(cover),
        "covering.cover_bins.s": seconds(cover),
        "covering.nodes": nodes,
        "covering.nodes_per_s": ratio(nodes, counted_s),
        "covering.yes_share": None if cover in missing else ratio(
            sum(1 for i in cover_done if spans[i][5]["yes"]), len(cover_done)),
        "achievability.max_achievable.s": seconds("achievability.max_achievable"),
        "achievability.k_steps": calls(step),
        "achievability.yes_step_nodes_share": ratio(yes_step_nodes, step_nodes),
        "achievability.budget_failures": failures("NodeBudgetExceededError"),
        "achievability.recursion_failures": failures("RecursionError"),
        "achievability.brute_force_max.s": seconds("achievability.brute_force_max"),
        "achievability.partitions": partitions,
        "achievability.partitions_per_s": ratio(partitions, seconds("achievability.brute_force_max")),
        "reduction.verify_reduction.s": seconds("reduction.verify_reduction"),
        "reduction.solve_3partition.s": seconds("reduction.solve_3partition"),
        "reduction.exact_cover_nodes": info_sum(
            cover, "nodes", lambda i: _under(spans, i, "reduction.solve_3partition")),
        "reduction.agree_share": None if "reduction.verify_reduction" in missing else ratio(
            sum(1 for i in verify if spans[i][5].get("agree")), len(verify)),
    }
