"""Reference implementations for differential tests."""

from hmerge import (
    Classification,
    ImprovementWitness,
    InvalidPartitionError,
    MergePartition,
    group_sums,
    h_index,
    partition_value,
)


def reference_classify(profile):
    """The improvement test as first written: two id sorts by `canonical_order`, per-item set building."""
    citations = profile.citations
    order = profile.canonical_order()
    h = h_index(profile)
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

    Its `h` and `group_sums` are computed afresh by `h_index` and `group_sums`.
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
                              h=h_index(profile), group_sums=group_sums(profile, partition))


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
