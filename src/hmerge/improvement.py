"""Polynomial-time detection and construction of improving merge partitions.

Whether any merge can beat the unmerged h-index h reduces to a structural
test on the profile: split the h top items into the supercritical part
(above h) and the critical part (exactly h), reserve the |critical| smallest
items as merge partners ("tail"), and check that the leftover items carry
more than h citations in total. When the test passes, an explicit witness
partition is built: supercritical singletons, critical/tail pairs, and all
leftovers merged into one group.

Both steps take the profile's (value, count) pairs, which give every number
the test needs in one walk over the d distinct values, plus linear passes
over the profile for the id sets. Neither the n values nor the item ids are
ever sorted as a whole: only the O(h) supercritical and tail ids are put in
canonical order for the witness.
The witness carries the facts computed on the way (the unmerged h-index
and the group sums), so a caller that prints them computes nothing twice.
"""

from __future__ import annotations

from itertools import chain, compress, islice

from .model import MergePartition, Profile, Record, _set, group_sums, h_index, h_index_of_values


class Classification(Record):
    """Decomposition of a profile around its h-index.

    The id sets are occurrence-level: equal citation counts in different
    positions are distinct items. `overlap` flags profiles too short for
    the tail to avoid the critical items, in which case tail_ids and
    critical_ids share ids and no improving partition exists.
    """

    __slots__ = ("h", "supercritical_ids", "critical_ids", "tail_ids", "rest_ids", "rest_sum", "overlap")

    def __init__(self, h: int, supercritical_ids: frozenset[int], critical_ids: frozenset[int],
                 tail_ids: frozenset[int], rest_ids: frozenset[int], rest_sum: int, overlap: bool):
        _set(self, "h", h)
        _set(self, "supercritical_ids", supercritical_ids)
        _set(self, "critical_ids", critical_ids)
        _set(self, "tail_ids", tail_ids)
        _set(self, "rest_ids", rest_ids)
        _set(self, "rest_sum", rest_sum)
        _set(self, "overlap", overlap)


class ImprovementWitness(Record):
    """An explicit merge partition with value strictly above the h-index.

    `h` is the unmerged h-index and `group_sums` the merged citation count
    of each group of `partition`, in group order.
    """

    __slots__ = ("partition", "achieved", "h", "group_sums")

    def __init__(self, partition: MergePartition, achieved: int, h: int, group_sums: tuple[int, ...]):
        _set(self, "partition", partition)
        _set(self, "achieved", achieved)
        _set(self, "h", h)
        _set(self, "group_sums", group_sums)


def classify(profile: Profile) -> Classification:
    """Split the profile into supercritical, critical, tail, and rest items.

    In canonical order (count descending, ties by ascending id) the h first
    items split by count > h vs == h, and the tail is the |critical| last
    items. The profile's (value, count) pairs give h, the tail's threshold
    count t and the rest sum in O(d) for d distinct values; the id sets come
    from linear passes: every id above h, the lowest-numbered ids at h,
    every id below t plus the highest-numbered ids at t. The rest is every
    other id, built in one pass over a keep-mask, so the call holds each id
    once. The segments overlap exactly when
    |profile| < |supercritical| + 2*|critical|.
    """
    citations = profile.citations
    n = len(citations)
    value_counts = profile.value_counts
    h = h_index(profile)
    top = [i for i, c in enumerate(citations) if c >= h]
    supercritical = frozenset(i for i in top if citations[i] > h)
    n_crit = h - len(supercritical)
    critical = frozenset(islice((i for i in top if citations[i] == h), n_crit))
    tail = frozenset()
    tail_sum = 0  # of the n_crit smallest counts
    if n_crit:
        left = n_crit
        for t, c in reversed(value_counts):  # ascending: t ends as the n_crit-th smallest count
            tail_sum += t * min(c, left)
            left -= c
            if left <= 0:
                break
        below = [i for i, c in enumerate(citations) if c < t] if value_counts[-1][0] < t else []
        ties = (i for i in range(n - 1, -1, -1) if citations[i] == t)
        tail = frozenset(chain(below, islice(ties, n_crit - len(below))))
    overlap = n < h + n_crit
    rest_sum = 0  # the counts between head and tail; none on overlap
    if not overlap:  # every count <= h, less the critical ones in the head and the tail
        rest_sum = sum(v * c for v, c in value_counts if v <= h) - n_crit * h - tail_sum
    del top
    keep = bytearray(b"\x01") * n
    for i in chain(supercritical, critical, tail):
        keep[i] = 0
    return Classification(
        h=h,
        supercritical_ids=supercritical,
        critical_ids=critical,
        tail_ids=tail,
        rest_ids=frozenset(compress(range(n), keep)),
        rest_sum=rest_sum,
        overlap=overlap,
    )


def can_improve(profile: Profile) -> bool:
    """True iff some merge partition has value strictly above the h-index.

    Holds exactly when the critical and tail items can be chosen disjoint
    and the rest of the profile sums to more than h.
    """
    c = classify(profile)
    return not c.overlap and c.rest_sum > c.h


def _canonical(citations: tuple[int, ...], ids: frozenset[int]) -> list[int]:
    """`ids` by count descending, ties by ascending id (reverse sorts are stable)."""
    return sorted(sorted(ids), key=citations.__getitem__, reverse=True)


def improving_partition(profile: Profile) -> ImprovementWitness | None:
    """Construct a witness partition beating the h-index, or None.

    The witness has a fixed three-part shape: one singleton per
    supercritical item, one pair per critical item (matched with a tail
    item, both sides in citation-descending order), and a single group
    holding every remaining item (omitted when empty). Every group then
    sums to at least h+1, so the achieved value is strictly above h. Only
    the supercritical and tail ids are sorted; the critical ids pair with
    them in ascending id order.
    """
    c = classify(profile)
    if c.overlap or c.rest_sum <= c.h:
        return None
    citations = profile.citations
    groups = [frozenset((i,)) for i in _canonical(citations, c.supercritical_ids)]
    groups += map(frozenset, zip(sorted(c.critical_ids), _canonical(citations, c.tail_ids)))
    if c.rest_ids:
        groups.append(c.rest_ids)
    partition = MergePartition(tuple(groups))
    sums = group_sums(profile, partition)  # also checks the partition just built
    return ImprovementWitness(partition=partition, achieved=h_index_of_values(sums), h=c.h, group_sums=sums)
