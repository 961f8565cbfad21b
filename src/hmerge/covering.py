"""Exact bin covering: fill a fixed number of bins to a sum threshold.

`cover_bins` asks for `bins` disjoint groups that each reach `demand`,
leftovers allowed. Achievability asks this directly. The 3-partition side
of the hardness reduction asks it of weights whose mass is exactly
`bins * demand`: then any such groups each sum to exactly `demand` and
together place every item, so one mode serves both. Each call is settled
by the cheapest step that can decide it:

1. A counting bound: too little mass, or too few items when every bin
   below the demand needs two. Proves NO without search (0 nodes).
2. A linear greedy that opens each bin with the largest item left and
   fills it with the smallest ones. Proves YES without search (0 nodes)
   when it covers every bin.
3. An exact depth-first search, which counts at least one node.

The search state is a count per distinct weight plus the number of bins
left, so the memo of failed states is keyed on that short tuple. The
search runs on an explicit stack, never recursing, so no input size can
exhaust the interpreter's stack. Bins are minimal covers built in
weight-descending order, and bin-completion dominance (Korf, "An improved
algorithm for optimal bin packing", IJCAI 2003), adapted to covering,
prunes the bins a first bin could be.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, islice
from operator import ge, mul, neg
from typing import Iterator, Sequence

from .model import DEFAULT_NODE_BUDGET, EXIT_BUDGET, HmergeError, InvalidParametersError


class NodeBudgetExceededError(HmergeError, RuntimeError):
    """The search explored more states than the configured budget allows.

    When raised by `max_achievable`, `lower` and `upper` bracket the
    maximum as certified so far and `certificate` proves `lower`; they are
    None where no bracket applies.
    """

    exit_code = EXIT_BUDGET

    def __init__(self, budget: int, lower: int | None = None, upper: int | None = None, certificate=None):
        if lower is None:
            message = f"search node budget of {budget} exceeded; result not certified"
        else:
            message = f"search node budget of {budget} exceeded; maximum certified only within [{lower}, {upper}]"
        super().__init__(message)
        self.budget = budget
        self.lower = lower
        self.upper = upper
        self.certificate = certificate


def cover_bins(
    weights: Sequence[int],
    bins: int,
    demand: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[list[int]] | None, int]:
    """Find `bins` disjoint index groups, each with sum >= demand.

    Items not placed in any group are left over. When the weights sum to
    exactly bins * demand, every group sums to exactly `demand` and every
    item is placed: a group above the demand would leave the others less
    than they need. Returns (groups, nodes_explored) with groups None
    when no such groups exist; a call settled by the counting bound or
    the greedy explores 0 nodes. Weights already in descending order are
    used as they are; any other order is first sorted (stably, so equal
    weights keep their index order), which gives the same groups. Raises
    NodeBudgetExceededError when the search needs more than node_budget
    nodes, and InvalidParametersError when bins < 0, node_budget < 0, or
    demand < 1 with bins > 0.
    """
    if node_budget < 0:
        raise InvalidParametersError(f"node_budget must be >= 0, got {node_budget}")
    if bins < 0:
        raise InvalidParametersError(f"bins must be >= 0, got {bins}")
    if bins > 0 and demand < 1:
        raise InvalidParametersError(f"demand must be >= 1, got {demand}")
    if bins == 0:
        return [], 0
    if all(map(ge, weights, islice(weights, 1, None))):
        order, w = None, weights  # the stable descending sort would be the identity
    else:
        order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)  # ties by index
        w = [weights[i] for i in order]
    whole = bisect_right(w, -demand, key=neg)  # items that reach the demand alone
    if not _may_cover(sum(w), len(w), whole, bins, demand):
        return None, 0
    groups = _greedy_cover(w, bins, demand)
    nodes = 0
    if groups is None:
        groups, nodes = _search(w, bins, demand, node_budget)
    if groups is None or order is None:
        return groups, nodes
    return [[order[p] for p in group] for group in groups], nodes


def _may_cover(mass: int, items: int, whole: int, bins: int, demand: int) -> bool:
    """Counting bound: mass for every bin, and items for them when only `whole` items fill a bin alone."""
    return mass >= bins * demand and whole + (items - whole) // 2 >= bins


def _greedy_cover(w: list[int], bins: int, demand: int) -> list[list[int]] | None:
    """`bins` bins, each the largest item left plus the smallest ones, as positions in `w`; or None."""
    hi, lo = 0, len(w) - 1
    groups = []
    for _ in range(bins):
        if hi > lo:
            return None
        group, total = [hi], w[hi]
        hi += 1
        while total < demand and lo >= hi:
            group.append(lo)
            total += w[lo]
            lo -= 1
        if total < demand:
            return None
        groups.append(group)
    return groups


def _search(w: list[int], bins: int, demand: int, node_budget: int) -> tuple[list[list[int]] | None, int]:
    """Exact search over per-weight counts; returns (bins as positions in `w`, or None; nodes)."""
    values: list[int] = []   # distinct weights, descending
    counts: list[int] = []
    first: list[int] = []    # position in w of each distinct weight's first copy
    for p, x in enumerate(w):
        if values and values[-1] == x:
            counts[-1] += 1
        else:
            values.append(x)
            counts.append(1)
            first.append(p)
    d = len(values)
    big = 0  # distinct weights that reach the demand alone
    while big < d and values[big] >= demand:
        big += 1
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetExceededError(node_budget)

    def first_bins(state: tuple[int, ...], left: int) -> Iterator[tuple[list[int], tuple[int, ...]]]:
        """Each candidate first bin of `state`, `left` bins to fill, as (distinct-weight indices, state after it).

        A bin is a minimal cover: its items in descending order, the last
        one lifting the sum to the demand.
        """
        avail = list(state)
        # suffix[i]: mass of the state's items of weights values[i:]; suffix[d] = 0
        suffix = list(accumulate(map(mul, reversed(state), reversed(values)), initial=0))[::-1]
        most = suffix[0] - (left - 1) * demand  # the largest bin that leaves the other bins their demand

        def close(j: int) -> tuple[list[int], tuple[int, ...]]:
            """The open bin closed by one item of weight values[j], and the state after it."""
            avail[j] -= 1
            child = tuple(avail)
            avail[j] += 1
            return path + [j], child

        # Rule (a): the largest item left opens the next bin. If it is left
        # over, swapping it for the largest item of the first bin keeps that
        # bin covered; if it is in a later bin, that bin can go first.
        lead = 0
        while not state[lead]:
            lead += 1
        path, s = [], values[lead]
        if s >= demand:
            yield close(lead)
            return
        avail[lead] -= 1
        path.append(lead)
        frames: list[tuple[int, int | None]] = []  # (resume cursor, sum bound) of each open depth
        entering = True
        while True:
            if entering:
                entering = False
                tick()
                i = path[-1]  # items go in descending order
                bound = frames[-1][1] if frames else None
                # Rule (b), at every depth of the bin: try the smallest closer
                # y first; then only extensions whose sum stays below y (and
                # below every bound an outer depth set). An extension E with
                # sum(E) >= y is dominated: swap E for y, and the bin or
                # leftover that held y receives E, which covers whatever y
                # covered.
                need = demand - s
                split = i
                while split < d and values[split] >= need:
                    split += 1
                closer = split - 1
                while closer >= i and not avail[closer]:
                    closer -= 1
                if closer >= i and (bound is None or s + values[closer] < bound):
                    bound = s + values[closer]
                    # A bin above `most` leaves less than (left - 1) * demand:
                    # its child fails `_may_cover` before it is counted, so the
                    # skip changes no node count. The exchange above holds
                    # either way, so a skipped closer still sets the bound.
                    if bound <= most:
                        yield close(closer)
                i = split
            # scan this depth while the items available from values[i] down can still reach the demand
            while i < d and s + suffix[i] - (state[i] - avail[i]) * values[i] >= demand:
                if avail[i] and (bound is None or s + values[i] < bound):
                    break
                i += 1
            else:  # depth exhausted: back to the parent depth, which resumes its scan
                if not frames:
                    return
                last = path.pop()
                avail[last] += 1
                s -= values[last]
                i, bound = frames.pop()
                continue
            frames.append((i + 1, bound))  # descend: item i joins the bin
            path.append(i)
            avail[i] -= 1
            s += values[i]
            entering = True

    root = tuple(counts)
    tick()
    failed: set[tuple[tuple[int, ...], int]] = set()
    stack = [first_bins(root, bins)]
    keys = [(root, bins)]
    chosen: list[list[int]] = []
    while stack:
        found = next(stack[-1], None)
        if found is None:
            failed.add(keys.pop())
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        path, child = found
        left = bins - len(stack)
        if left == 0:
            chosen.append(path)
            cursor = first[:]
            groups = []
            for bin_indices in chosen:
                group = []
                for j in bin_indices:
                    group.append(cursor[j])
                    cursor[j] += 1
                groups.append(group)
            return groups, nodes
        key = (child, left)
        if key in failed:
            continue
        if not _may_cover(sum(map(mul, child, values)), sum(child), sum(child[:big]), left, demand):
            continue
        tick()
        chosen.append(path)
        stack.append(first_bins(child, left))
        keys.append(key)
    return None, nodes
