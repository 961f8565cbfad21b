"""Exact solvers for h-index achievability and maximization by merging.

Deciding whether merging can push the h-index to a target k is NP-hard in
general. `_achieve` decides one k: items with at least k citations stand
alone as witness groups, and `cover_bins` builds the missing witness
groups from the rest, settling the call by a counting bound, a linear
greedy or an exact search, in that order. `max_achievable` sorts the
profile once and decides every k on those sorted values. It caps the
answer with a counting bound over every k above the h-index and probes
that cap. When the cap fails, it probes cap - 1 without search, which the
counting bound or the greedy settles on most profiles. Only when they
cannot does it bisect below the cap: achievability is monotone downward in
k and the h-index is always achievable, so it makes O(log(cap - h))
decisions instead of one per k.

A restricted-growth-string enumerator doubles as an independent
brute-force oracle for testing.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement, compress, islice
from operator import neg
from typing import Iterator

from .covering import NodeBudgetExceededError, _may_cover, cover_bins
from .model import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_ORACLE_CAP,
    AchievabilityCertificate,
    HmergeError,
    InvalidParametersError,
    MergePartition,
    Profile,
    Record,
    _h_index_descending,
    _set,
    h_index_of_values,
    partition_value,
)


class OracleCapExceededError(HmergeError, RuntimeError):
    """The instance is too large for exhaustive enumeration."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"instance size {size} exceeds the oracle cap of {cap}")
        self.size = size
        self.cap = cap


class MaxResult(Record):
    """Certified maximum merged h-index plus search telemetry.

    `settled_by` lists, for each k decided, how: "bound" (a counting bound
    excluded it), "greedy" (a certificate built without search) or
    "search" (the exact search decided it).
    """

    __slots__ = ("value", "certificate", "nodes_explored", "settled_by")

    def __init__(self, value: int, certificate: AchievabilityCertificate, nodes_explored: int,
                 settled_by: tuple[tuple[int, str], ...] = ()):
        _set(self, "value", value)
        _set(self, "certificate", certificate)
        _set(self, "nodes_explored", nodes_explored)
        _set(self, "settled_by", settled_by)


def _achieve(
    profile: Profile, k: int, node_budget: int,
    order: tuple[int, ...] | None = None, values: list[int] | None = None,
) -> tuple[AchievabilityCertificate | None, int]:
    """Decision core shared by is_achievable and max_achievable.

    Returns (certificate or None, nodes explored). Items with at least k
    citations are promoted to singleton witness groups up front (splitting
    a mixed group never loses a witness), the remaining witness groups come
    from `cover_bins` over the small items, and unused small items are
    collected in one trailing garbage group. `order` is the profile's
    canonical order and `values` its citations in that order, when the
    caller has them already.
    """
    if k < 0:
        raise InvalidParametersError(f"k must be >= 0, got {k}")
    if node_budget < 0:
        raise InvalidParametersError(f"node_budget must be >= 0, got {node_budget}")
    if order is None:
        citations = profile.citations
        # The counting bound on the whole profile, in one pass before the id sort. With
        # b = #items >= k, failing it means total < k*k or b + (n - b)//2 < k. In the first
        # case b*k <= total < k*k, so b < k, and the small items hold at most
        # total - b*k < (k - b)*k; in the second, (n - b)//2 < k - b. Either way k - b > 0
        # bins are missing and the small items fail the same bound in `cover_bins`, which
        # refuses with 0 nodes: no answer or node count changes.
        if not _may_cover(profile.total, len(citations), sum(map(k.__le__, citations)), k, k):
            return None, 0
        order = profile.canonical_order()
        values = [citations[i] for i in order]
    split = bisect_right(values, -k, key=neg)  # values are descending: the first item below k
    missing = k - split

    covered: list[list[int]] = []
    nodes = 0
    if missing > 0:  # cover_bins's counting bound refuses k > n and k * k > total (see _upper_bound)
        # descending, so cover_bins uses the slice as it is
        covered, nodes = cover_bins(values[split:], missing, demand=k, node_budget=node_budget)
        if covered is None:
            return None, nodes

    groups = [frozenset((i,)) for i in islice(order, split)]
    keep = bytearray(b"\x01") * (len(order) - split)  # small items in no witness group
    for positions in covered:
        groups.append(frozenset([order[split + p] for p in positions]))
        for p in positions:
            keep[p] = 0
    witness = frozenset(range(len(groups)))
    leftover = list(compress(islice(order, split, None), keep))
    if leftover:
        groups.append(frozenset(leftover))
    return AchievabilityCertificate(MergePartition(tuple(groups)), k, witness), nodes


def is_achievable(profile: Profile, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> AchievabilityCertificate | None:
    """Certificate that some merge partition reaches value k, or None.

    Absent without search, and without sorting the profile, when k exceeds
    the item count or k**2 exceeds the total citation mass (k disjoint
    groups of sum >= k cannot exist).
    """
    certificate, _ = _achieve(profile, k, node_budget)
    return certificate


def _upper_bound(values: list[int], h: int) -> int:
    """Largest k such that every k' in (h, k] passes the counting bound.

    `values` are the citations in descending order. Value k' needs k'
    groups of sum >= k': the big items (>= k') alone, and the rest from
    the small items, which must pass the counting bound of `cover_bins`.
    With no small item reaching k', that bound asks two small items and
    k' small mass per missing group, so it implies k' <= n and
    k'**2 <= total, and the loop ends. Since achievability is monotone
    downward, the first k' that fails bounds the maximum. Linear: big only
    shrinks as k' grows.
    """
    big = h
    small_sum = sum(values[h:])
    k = h
    while True:
        target = k + 1
        while big and values[big - 1] < target:
            big -= 1
            small_sum += values[big]
        if not _may_cover(small_sum, len(values) - big, 0, target - big, target):
            return k
        k = target


def max_achievable(profile: Profile, *, node_budget: int = DEFAULT_NODE_BUDGET) -> MaxResult:
    """Certified maximum value over all merge partitions.

    Probes the counting upper bound (the cap) first. When the cap fails,
    probes cap - 1 with a node budget of 0, so that only the counting
    bound or the greedy can settle it; when neither can, that probe has
    explored nothing, and the call bisects between the unmerged h-index
    (always achievable by singletons) and the largest k not yet excluded,
    as achievability is monotone downward in k. The node budget covers the
    whole call; when it runs out the error carries the bracket certified
    so far. InvalidParametersError when node_budget < 0.
    """
    if node_budget < 0:
        raise InvalidParametersError(f"node_budget must be >= 0, got {node_budget}")
    order = profile.canonical_order()
    values = [profile.citations[i] for i in order]
    h = _h_index_descending(values)
    cap = upper = _upper_bound(values, h)
    settled = [(cap + 1, "bound")]
    lower, best, spent = h, None, 0
    k, free = cap, False
    while lower < upper:
        try:
            certificate, nodes = _achieve(profile, k, 0 if free else node_budget - spent, order, values)
        except NodeBudgetExceededError:
            if not free:
                break
            # the search is needed, and the free probe stopped before its first node: bisect
            free, k = False, (lower + upper + 1) // 2
            continue
        spent += nodes
        settled.append((k, "search" if nodes else "greedy" if certificate else "bound"))
        if certificate is None:
            upper = k - 1
        else:
            lower, best = k, certificate
        free = certificate is None and k == cap
        k = upper if free else (lower + upper + 1) // 2
    if best is None:
        best, _ = _achieve(profile, h, 0, order, values)  # singletons: no search
    if lower < upper:  # the budget ran out before the bracket closed
        raise NodeBudgetExceededError(node_budget, lower, upper, best)
    return MaxResult(value=lower, certificate=best, nodes_explored=spent, settled_by=tuple(settled))


def enumerate_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every set partition of {0..n-1} exactly once, as tuples of blocks.

    Enumeration follows restricted-growth-string lexicographic order
    (block labels in order of first appearance); n=0 yields the single
    empty partition.
    """
    if n == 0:
        yield ()
        return
    labels = [0] * n
    cap = [1] * n  # cap[i] = max(labels[:i]) + 1, the largest label allowed at i
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
        for item, label in enumerate(labels):
            blocks[label].append(item)
        yield tuple(tuple(block) for block in blocks)
        i = n - 1
        while i >= 1 and labels[i] >= cap[i]:
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        following_cap = max(cap[i], labels[i] + 1)
        for j in range(i + 1, n):
            labels[j] = 0
            cap[j] = following_cap


def brute_force_max(profile: Profile, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> MaxResult:
    """Oracle maximization: evaluate every set partition of the profile.

    Independent of the solver path on purpose; returns the first argmax in
    enumeration order. nodes_explored counts evaluated partitions.
    InvalidParametersError when oracle_cap < 0.
    """
    if oracle_cap < 0:
        raise InvalidParametersError(f"oracle_cap must be >= 0, got {oracle_cap}")
    n = len(profile)
    if n > oracle_cap:
        raise OracleCapExceededError(n, oracle_cap)
    citations = profile.citations
    best_value = -1
    best_blocks: tuple[tuple[int, ...], ...] = ()
    count = 0
    for blocks in enumerate_partitions(n):
        count += 1
        value = h_index_of_values(sum(citations[i] for i in block) for block in blocks)
        if value > best_value:
            best_value = value
            best_blocks = blocks
    certificate = partition_value(profile, MergePartition.from_groups(best_blocks))
    return MaxResult(value=best_value, certificate=certificate, nodes_explored=count)


def iter_small_multisets(max_size: int, max_value: int) -> Iterator[tuple[int, ...]]:
    """All citation multisets with size <= max_size and values in 1..max_value."""
    for size in range(max_size + 1):
        yield from combinations_with_replacement(range(1, max_value + 1), size)
