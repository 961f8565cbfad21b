"""Reference implementations for differential tests."""

from hmerge import (
    Classification,
    ImprovementWitness,
    InvalidPartitionError,
    MergePartition,
    group_sums,
    partition_value,
)


def reference_h_index(citations):
    """h-index by one descending sort: the number of 1-based ranks r whose value is at least r."""
    return sum(1 for r, v in enumerate(sorted(citations, reverse=True), 1) if v >= r)


def reference_classify(profile):
    """The improvement test as first written: two id sorts by `canonical_order`, per-item set building.

    h comes from `reference_h_index`, not from the library.
    """
    citations = profile.citations
    order = profile.canonical_order()
    h = reference_h_index(citations)
    head = order[:h]
    supercritical = frozenset(i for i in head if citations[i] > h)
    critical = frozenset(i for i in head if citations[i] == h)
    tail = frozenset(order[len(order) - len(critical):]) if critical else frozenset()
    rest = frozenset(range(len(citations))) - supercritical - critical - tail
    return Classification(
        h=h,
        supercritical_ids=supercritical,
        critical_ids=critical,
        tail_ids=tail,
        rest_ids=rest,
        rest_sum=sum(citations[i] for i in rest),
        overlap=len(order) < h + len(critical),
    )


def reference_improving_partition(profile):
    """Witness of `reference_classify`, its groups in the original order; None when there is none.

    Its `h` is computed afresh by `reference_h_index`, its `group_sums` by `group_sums`.
    """
    c = reference_classify(profile)
    if c.overlap or c.rest_sum <= c.h:
        return None
    order = profile.canonical_order()
    n, n_super, n_crit = len(order), len(c.supercritical_ids), len(c.critical_ids)
    groups = [frozenset((i,)) for i in order[:n_super]]
    for j in range(n_crit):
        groups.append(frozenset((order[n_super + j], order[n - n_crit + j])))
    if c.rest_ids:
        groups.append(c.rest_ids)
    partition = MergePartition(tuple(groups))
    return ImprovementWitness(partition=partition, achieved=partition_value(profile, partition).k,
                              h=reference_h_index(profile.citations), group_sums=group_sums(profile, partition))


def reference_validate_partition(profile, partition):
    """The partition check as first written: one ordered scan that stops at the first violation."""
    n = len(profile)
    seen = set()
    for gi, group in enumerate(partition.groups):
        if not group:
            raise InvalidPartitionError("empty-group", f"group {gi} is empty", group_index=gi)
        for item_id in sorted(group):
            if not (0 <= item_id < n):
                raise InvalidPartitionError(
                    "unknown-id", f"group {gi} references unknown item id {item_id}",
                    group_index=gi, item_id=item_id)
            if item_id in seen:
                raise InvalidPartitionError(
                    "duplicate-id", f"item id {item_id} appears in more than one group (again in group {gi})",
                    group_index=gi, item_id=item_id)
            seen.add(item_id)
    if len(seen) != n:
        missing = min(set(range(n)) - seen)
        raise InvalidPartitionError("uncovered-id", f"item id {missing} is not covered by any group", item_id=missing)


def reference_3partition(numbers, b):
    """True iff the numbers split into triples that each sum to b.

    Largest first: the largest number left shares its triple with two
    others that sum to b minus it. Remaining multisets that failed are
    memoized as sorted tuples. Shares nothing with `hmerge.covering`; for
    an in-range instance (every number strictly between b/4 and b/2) every
    block of a split is a triple, so this is the 3-partition answer.
    """
    failed = set()

    def split(rest):
        if not rest:
            return True
        if rest in failed:
            return False
        *others, largest = rest
        need = b - largest
        tried = set()
        for i, x in enumerate(others):
            for j in range(i + 1, len(others)):
                if x + others[j] == need and (x, others[j]) not in tried:
                    tried.add((x, others[j]))
                    if split(tuple(others[:i] + others[i + 1:j] + others[j + 1:])):
                        return True
        failed.add(rest)
        return False

    return split(tuple(sorted(numbers)))
