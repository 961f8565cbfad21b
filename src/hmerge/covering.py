"""Exact bin-covering search: fill a fixed number of bins to a sum threshold.

One engine serves two callers: achievability (each bin must reach the
target, leftovers allowed) and exact 3-partition (demand == cap forces
every bin to an exact sum). The search is depth-first over bins filled one
at a time, items in weight-descending order, with infeasibility memoized
on the (remaining weight multiset, bins left) state.
"""

from __future__ import annotations

from typing import Sequence

from .model import EXIT_BUDGET, HmergeError

DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudgetExceededError(HmergeError, RuntimeError):
    """The search explored more states than the configured budget allows."""

    exit_code = EXIT_BUDGET

    def __init__(self, budget: int):
        super().__init__(f"search node budget of {budget} exceeded; result not certified")
        self.budget = budget


def cover_bins(
    weights: Sequence[int],
    bins: int,
    demand: int,
    cap: int | None = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[list[int]] | None, int]:
    """Search for `bins` disjoint index groups, each with demand <= sum <= cap.

    Items not placed in any bin are simply left over. Returns
    (groups, nodes_explored) with groups None when no covering exists.

    Bins are built greedily-in-order with canonical symmetry breaking:
    within a bin items are taken in weight-descending order and a bin is
    closed at the first moment it meets the demand (bins are minimal
    covers), and successive bins start strictly after the previous bin's
    leading item. Both restrictions are lossless for the decision.
    """
    if bins <= 0:
        return [], 0
    if demand < 1:
        raise ValueError("demand must be >= 1")
    if cap is not None and cap < demand:
        raise ValueError("cap must be >= demand")

    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    w = [weights[i] for i in order]
    nodes = 0
    failed: set[tuple] = set()

    def solve(avail: tuple[int, ...], bins_left: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetExceededError(node_budget)
        if bins_left == 0:
            return []
        key = (bins_left, tuple(w[p] for p in avail))
        if key in failed:
            return None
        # suffix sums over the still-available positions, for reach pruning
        suffix = [0] * (len(avail) + 1)
        for i in range(len(avail) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + w[avail[i]]
        if suffix[0] < bins_left * demand:
            return None

        def extend(start: int, chosen: list[int], total: int):
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise NodeBudgetExceededError(node_budget)
            last_weight = None
            for idx in range(start, len(avail)):
                pos = avail[idx]
                weight = w[pos]
                if weight == last_weight:
                    continue  # identical weight at the same decision point
                last_weight = weight
                if total + suffix[idx] < demand:
                    break  # smaller suffixes cannot reach the demand either
                new_total = total + weight
                if new_total >= demand:
                    if cap is None or new_total <= cap:
                        bin_positions = chosen + [pos]
                        member = set(bin_positions)
                        leading = bin_positions[0]
                        remaining = tuple(p for p in avail if p > leading and p not in member)
                        sub = solve(remaining, bins_left - 1)
                        if sub is not None:
                            return [bin_positions] + sub
                    # overshoot past the cap: a smaller item may still fit
                    continue
                chosen.append(pos)
                found = extend(idx + 1, chosen, new_total)
                if found is not None:
                    return found
                chosen.pop()
            return None

        result = extend(0, [], 0)
        if result is None:
            failed.add(key)
        return result

    solution = solve(tuple(range(len(w))), bins)
    if solution is None:
        return None, nodes
    return [[order[p] for p in group] for group in solution], nodes
