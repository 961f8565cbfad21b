"""Covering search engine, cross-checked against independent oracles."""

import random

import pytest

from hmerge import (
    HmergeError,
    InvalidParametersError,
    NodeBudgetExceededError,
    ThreePartitionInstance,
    cover_bins,
    covering,
    enumerate_partitions,
)


def oracle_cover(weights, bins, demand, cap=None):
    """Brute force over all pairwise-disjoint families of subsets with demand <= sum <= cap."""
    n = len(weights)
    subsets = [m for m in range(1, 1 << n)
               if demand <= sum(weights[i] for i in range(n) if m >> i & 1) <= (cap or float("inf"))]

    def rec(chosen_mask, left, start):
        if left == 0:
            return True
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if not s & chosen_mask and rec(chosen_mask | s, left - 1, idx + 1):
                return True
        return False

    return rec(0, bins, 0)


def oracle_exact(weights, bins, target):
    """Brute force over full set partitions with exactly `bins` blocks of sum `target`."""
    for blocks in enumerate_partitions(len(weights)):
        if len(blocks) == bins and all(sum(weights[i] for i in blk) == target for blk in blocks):
            return True
    return False


def assert_solution_shape(weights, bins, demand, exact, solution):
    used = [i for group in solution for i in group]
    assert len(used) == len(set(used))
    assert all(0 <= i < len(weights) for i in used)
    assert len(solution) == bins
    for group in solution:
        s = sum(weights[i] for i in group)
        assert s == demand if exact else s >= demand
    if exact:
        assert len(used) == len(weights)


def test_cover_mode_matches_oracle():
    rng = random.Random(123)
    for _ in range(250):
        weights = [rng.randint(1, 10) for _ in range(rng.randint(0, 7))]
        bins = rng.randint(1, 3)
        demand = rng.randint(1, 15)
        solution, _ = cover_bins(weights, bins, demand)
        assert (solution is not None) == oracle_cover(weights, bins, demand), (weights, bins, demand)
        if solution is not None:
            assert_solution_shape(weights, bins, demand, False, solution)


def test_exact_mode_matches_oracle():
    # weights of mass exactly bins * demand: any cover places every item in
    # groups of exactly the demand, which is the split 3-partition asks for
    rng = random.Random(321)
    checked = 0
    while checked < 250:
        bins = rng.randint(1, 3)
        weights = [rng.randint(1, 9) for _ in range(rng.randint(bins, 8))]
        total = sum(weights)
        if total % bins:
            continue
        target = total // bins
        checked += 1
        solution, _ = cover_bins(weights, bins, demand=target)
        assert (solution is not None) == oracle_exact(weights, bins, target), (weights, bins, target)
        if solution is not None:
            assert_solution_shape(weights, bins, target, True, solution)


def test_exact_mode_refuses_a_wrong_mass_or_an_oversized_weight():
    # a mass above bins * demand leaves the third 5 over, one below is refused by the bound
    assert cover_bins([5, 5, 5], 1, demand=10) == ([[0, 2]], 0)
    assert cover_bins([5, 5, 5], 2, demand=10) == (None, 0)
    # mass 20, but the 12 opens a bin that leaves 8 for the other: one search node
    assert cover_bins([12, 1, 1, 1, 5], 2, demand=10) == (None, 1)


# the instances that `gen_3partition_instance(5, 40, 2)` and `(6, 100, 0)` drew
# before its draws changed: a YES and a NO
YES_5_40 = ThreePartitionInstance((12, 13, 11, 11, 12, 18, 18, 11, 11, 14, 16, 12, 14, 15, 12), 5, 40)
NO_6_100 = ThreePartitionInstance((29, 28, 26, 45, 28, 29, 36, 31, 45, 26, 41, 26, 26, 37, 38, 40, 26, 43), 6, 100)


# ids: m-b-seed of the generator call, the answer and the node count
@pytest.mark.parametrize("instance, yes, nodes", [(YES_5_40, True, 30), (NO_6_100, False, 51)],
                         ids=["5-40-2-True-30", "6-100-0-False-51"])
def test_exact_mode_node_counts(instance, yes, nodes):
    # the search's work on a YES and a NO 3-partition instance, pinned so
    # that a change to the search shows as a changed count
    m, b = instance.m, instance.b
    solution, explored = cover_bins(instance.numbers, m, demand=b)
    assert (solution is not None, explored) == (yes, nodes)
    if yes:
        assert_solution_shape(instance.numbers, m, b, True, solution)


@pytest.mark.parametrize("mode", ["cover", "exact"])
def test_duplicate_heavy_weights_match_oracle(mode):
    # few distinct weights make many equal states and bins: where a lossy
    # dominance rule or memo key would show ("exact": half the draws whose
    # mass allows it take the demand that makes the mass exact)
    rng = random.Random(f"dup-{mode}")
    for _ in range(300):
        weights = [rng.randint(1, rng.choice([2, 3, 4])) for _ in range(rng.randint(1, 9))]
        bins = rng.randint(1, 4)
        if mode == "exact" and sum(weights) % bins == 0 and rng.random() < 0.5:
            demand = sum(weights) // bins
        else:
            demand = rng.randint(1, 9)
        exact = sum(weights) == bins * demand
        solution, _ = cover_bins(weights, bins, demand)
        expected = oracle_cover(weights, bins, demand, cap=demand if exact else None)
        assert (solution is not None) == expected, (weights, bins, demand, mode)
        if solution is not None:
            assert_solution_shape(weights, bins, demand, exact, solution)


def test_search_alone_matches_oracle(monkeypatch):
    # the greedy settles most YES instances in covering mode, which would
    # hide a lossy dominance rule in the search behind it
    monkeypatch.setattr(covering, "_greedy_cover", lambda w, bins, demand: None)
    # 8 must open a bin with 3 + 2 (sum 5, just below the closer 6) so that 6 + 6 covers the last one
    solution, nodes = cover_bins([15, 8, 6, 6, 3, 2], 3, demand=12)
    assert nodes > 0 and sorted(map(sorted, solution)) == [[0], [1, 4, 5], [2, 3]]
    rng = random.Random(99)
    for _ in range(400):
        weights = [rng.randint(1, rng.choice([3, 6, 12])) for _ in range(rng.randint(0, 9))]
        bins = rng.randint(1, 4)
        demand = rng.randint(1, 18)
        solution, _ = cover_bins(weights, bins, demand)
        assert (solution is not None) == oracle_cover(weights, bins, demand), (weights, bins, demand)
        if solution is not None:
            assert_solution_shape(weights, bins, demand, False, solution)


def test_zero_bins_is_trivially_covered():
    assert cover_bins([5, 3], 0, demand=4) == ([], 0)


def test_rejects_degenerate_parameters():
    assert issubclass(InvalidParametersError, HmergeError) and issubclass(InvalidParametersError, ValueError)
    with pytest.raises(InvalidParametersError):
        cover_bins([3], 1, demand=0)
    # an empty answer must not claim to cover -1 bins, nor skip the demand check
    with pytest.raises(InvalidParametersError, match="bins must be >= 0"):
        cover_bins([3], -1, demand=3)
    with pytest.raises(InvalidParametersError, match="bins must be >= 0"):
        cover_bins([3, 2], -2, demand=0)


def test_rejects_a_negative_node_budget():
    for bins in (0, 1):
        with pytest.raises(InvalidParametersError, match="node_budget must be >= 0"):
            cover_bins([3, 2], bins, demand=2, node_budget=-1)
    assert cover_bins([3, 2], 1, demand=2, node_budget=0) == ([[0]], 0)


@pytest.mark.parametrize("mode", ["cover", "search", "exact"])
def test_descending_input_matches_the_sort_path(mode, monkeypatch):
    # descending weights skip the index sort; any other order is sorted
    # stably first, so both must give the same groups and the same nodes
    # ("search": the greedy patched out; "exact": mostly weights of mass
    # exactly bins * demand)
    exact = mode == "exact"
    if mode == "search":
        monkeypatch.setattr(covering, "_greedy_cover", lambda w, bins, demand: None)
    rng = random.Random(f"paths-{mode}")
    for _ in range(400):
        bins = rng.randint(1, 4)
        demand = rng.randint(2, 15)
        # ties, and items equal to the demand, where the whole-item count and the stable order matter
        weights = [rng.choice([demand, rng.randint(1, demand), rng.randint(1, 6), rng.randint(1, 6)])
                   for _ in range(rng.randint(0, 12))]
        if exact and weights and rng.random() < 0.7:
            demand = max(max(weights), sum(weights) // bins + 1)
            weights.append(bins * demand - sum(weights))  # the mass becomes exact
        rng.shuffle(weights)
        order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
        groups, nodes = cover_bins([weights[i] for i in order], bins, demand)
        mapped = None if groups is None else [[order[p] for p in group] for group in groups]
        assert (mapped, nodes) == cover_bins(weights, bins, demand), (weights, bins, demand)


def test_duplicate_weights_do_not_blow_up_the_search():
    # 30 equal items, 3 bins: duplicate skipping + memoization keep this tiny
    solution, nodes = cover_bins([2] * 30, 3, demand=8)
    assert solution is not None
    assert nodes < 2000


def test_budget_is_enforced():
    # mass and item count allow two bins of 25 and the greedy fails, so only
    # the search (6 nodes) can settle it
    with pytest.raises(NodeBudgetExceededError):
        cover_bins([7, 9, 10, 10, 7, 7], 2, demand=25, node_budget=3)
    assert cover_bins([7, 9, 10, 10, 7, 7], 2, demand=25) == (None, 6)


def test_settle_order_bound_greedy_search():
    assert cover_bins([5, 5, 5], 2, demand=8) == (None, 0)      # mass 15 < 2 * 8
    assert cover_bins([3, 3, 3, 20], 3, demand=6) == (None, 0)  # 1 + 3 // 2 < 3 bins
    # the greedy: 5 with the smallest 1, then 4 with 1 and 4
    assert cover_bins([5, 1, 1, 4, 4], 2, demand=6) == ([[0, 2], [3, 1, 4]], 0)
    # the greedy fills 7 + 1 + 2 and leaves 4 + 4 < 9; the search finds 7 + 2, 4 + 4 + 1
    solution, nodes = cover_bins([2, 1, 4, 4, 7], 2, demand=9)
    assert nodes > 0 and sorted(map(sorted, solution)) == [[0, 4], [1, 2, 3]]


def test_long_bins_need_no_recursion(monkeypatch):
    # 54 bins of 54 ones: the greedy, then the search with the greedy patched
    # out, one node per item, far deeper than the interpreter's recursion
    # limit allows a recursive search to go
    solution, nodes = cover_bins([1] * 2916, 54, demand=54)
    assert nodes == 0
    assert_solution_shape([1] * 2916, 54, 54, True, solution)
    monkeypatch.setattr(covering, "_greedy_cover", lambda w, bins, demand: None)
    solution, nodes = cover_bins([1] * 2916, 54, demand=54)
    assert nodes == 2916
    assert_solution_shape([1] * 2916, 54, 54, True, solution)
