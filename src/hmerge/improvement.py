"""Polynomial-time detection and construction of improving merge partitions.

Whether any merge can beat the unmerged h-index h reduces to a structural
test on the profile: split the h top items into the supercritical part
(above h) and the critical part (exactly h), reserve the |critical| smallest
items as merge partners ("tail"), and check that the leftover items carry
more than h citations in total. When the test passes, an explicit witness
partition is built: supercritical singletons, critical/tail pairs, and all
leftovers merged into one group.

Both steps take one sort of the citation values plus linear passes over
the profile. Item ids are never sorted as a whole: only the O(h)
supercritical and tail ids are put in canonical order for the witness.
The witness carries the facts computed on the way (the unmerged h-index
and the group sums), so a caller that prints them computes nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice

from .model import MergePartition, Profile, _h_index_descending, group_sums, h_index_of_values


@dataclass(frozen=True)
class Classification:
    """Decomposition of a profile around its h-index.

    The id sets are occurrence-level: equal citation counts in different
    positions are distinct items. `overlap` flags profiles too short for
    the tail to avoid the critical items, in which case tail_ids and
    critical_ids share ids and no improving partition exists.
    """

    h: int
    supercritical_ids: frozenset[int]
    critical_ids: frozenset[int]
    tail_ids: frozenset[int]
    rest_ids: frozenset[int]
    rest_sum: int
    overlap: bool


@dataclass(frozen=True)
class ImprovementWitness:
    """An explicit merge partition with value strictly above the h-index.

    `h` is the unmerged h-index and `group_sums` the merged citation count
    of each group of `partition`, in group order.
    """

    partition: MergePartition
    achieved: int
    h: int
    group_sums: tuple[int, ...]


def classify(profile: Profile) -> Classification:
    """Split the profile into supercritical, critical, tail, and rest items.

    In canonical order (count descending, ties by ascending id) the h first
    items split by count > h vs == h, and the tail is the |critical| last
    items. One sort of the counts gives h, the tail's threshold count t and
    the rest sum; the id sets come from linear passes: every id above h,
    the lowest-numbered ids at h, every id below t plus the highest-numbered
    ids at t. The rest is every other id, built in one pass over a keep-mask
    after the sorted counts are dropped, so the call holds each id once.
    The segments overlap exactly when |profile| < |supercritical| + 2*|critical|.
    """
    citations = profile.citations
    n = len(citations)
    ranked = sorted(citations, reverse=True)
    h = _h_index_descending(ranked)
    top = [i for i, c in enumerate(citations) if c >= h]
    supercritical = frozenset(i for i in top if citations[i] > h)
    n_crit = h - len(supercritical)
    critical = frozenset(islice((i for i in top if citations[i] == h), n_crit))
    tail = frozenset()
    if n_crit:
        t = ranked[n - n_crit]
        below = [i for i, c in enumerate(citations) if c < t] if ranked[-1] < t else []
        ties = (i for i in range(n - 1, -1, -1) if citations[i] == t)
        tail = frozenset(chain(below, islice(ties, n_crit - len(below))))
    rest_sum = sum(islice(ranked, h, n - n_crit))  # the counts between head and tail; none on overlap
    del ranked, top
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
        overlap=n < h + n_crit,
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
