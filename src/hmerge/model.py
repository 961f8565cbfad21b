"""Citation profiles, merge partitions, and the two h-index value functions.

A profile is a multiset of positive citation counts where every occurrence
keeps its own identity (dense ids 0..n-1 in input order). A merge partition
groups item ids into merged articles; the value of a partition is the
h-index of its group sums.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from itertools import chain, islice
from typing import Iterable, Sequence


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_IO = 5

# solver defaults, here so that the CLI parser can show them without loading a solver
DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_ORACLE_CAP = 11  # Bell(11) = 678,570 partitions


class HmergeError(Exception):
    """Base of every hmerge error; subclasses also keep a builtin base and set the CLI `exit_code`."""

    exit_code = EXIT_INFEASIBLE


class ParseError(HmergeError, ValueError):
    """A profile or partition cannot be built from its input."""

    exit_code = EXIT_PARSE


class InvalidParametersError(HmergeError, ValueError):
    """Parameters of a generator or solver call are out of domain."""


class InvalidPartitionError(HmergeError, ValueError):
    """A partition does not match its profile.

    `reason` is one of "empty-group", "unknown-id", "duplicate-id",
    "uncovered-id" (the partition itself), or, for a certificate,
    "few-witnesses" (fewer than k witness ids) and "weak-witness" (a
    witness id naming no group, or a group whose sum is below k);
    `group_index` / `item_id` point at the first violation (None where not
    applicable).
    """

    exit_code = EXIT_CHECK_FAILED

    def __init__(self, reason: str, message: str, group_index=None, item_id=None):
        super().__init__(message)
        self.reason = reason
        self.group_index = group_index
        self.item_id = item_id


_set = object.__setattr__  # how a record's __init__ stores its fields past the frozen __setattr__


class Record:
    """Base of hmerge's immutable records.

    A record lists its fields in `__slots__` (a slot whose name starts with
    "_" is a private cache, not a field) and stores each in its own
    `__init__` with `_set(self, name, value)`, after which any check on the
    new record runs. Equality, hashing and the repr go over the fields in
    slot order, and a record cannot be assigned to after construction.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()  # for copy and pickle, which would otherwise assign the slots

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Profile(Record):
    """A multiset of citation counts with per-occurrence identities.

    Item ids are array positions, so duplicates of the same citation count
    remain distinguishable. Citation counts must be >= 1. `value_counts`,
    the (value, count) pairs by value descending, is built once per
    profile, on first use; it is not a field.
    """

    __slots__ = ("citations", "_value_counts")

    def __init__(self, citations: tuple[int, ...]):
        _set(self, "citations", citations)
        if set(map(type, citations)) <= {int} and min(citations, default=1) >= 1:
            return  # plain positive ints, checked in C; anything else gets the scan that names it
        for pos, c in enumerate(citations):
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ParseError(f"citation count at position {pos} must be a positive integer, got {_shown(c)}")

    @classmethod
    def from_citations(cls, counts: Iterable[int]) -> "Profile":
        return cls(tuple(counts))

    def __len__(self) -> int:
        return len(self.citations)

    @property
    def total(self) -> int:
        return sum(self.citations)

    @property
    def value_counts(self) -> tuple[tuple[int, int], ...]:
        """(value, number of items with that value) for each distinct value, by value descending."""
        try:
            return self._value_counts
        except AttributeError:
            _set(self, "_value_counts", tuple(sorted(Counter(self.citations).items(), reverse=True)))
            return self._value_counts

    def canonical_order(self) -> tuple[int, ...]:
        """Item ids sorted by citations descending, ties by ascending id (reverse sorts are stable)."""
        return tuple(sorted(range(len(self.citations)), key=self.citations.__getitem__, reverse=True))


class MergePartition(Record):
    """Disjoint nonempty groups of item ids; each group is a merged article."""

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[frozenset[int], ...]):
        _set(self, "groups", groups)

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[int]]) -> "MergePartition":
        return cls(tuple(frozenset(g) for g in groups))

    def __len__(self) -> int:
        return len(self.groups)


class AchievabilityCertificate(Record):
    """A partition whose witness groups prove the target value is reachable.

    Every group indexed by `witness_group_ids` has a merged citation count
    of at least k, and there are at least k of them; `check_certificate`
    checks both.
    """

    __slots__ = ("partition", "k", "witness_group_ids")

    def __init__(self, partition: MergePartition, k: int, witness_group_ids: frozenset[int]):
        _set(self, "partition", partition)
        _set(self, "k", k)
        _set(self, "witness_group_ids", witness_group_ids)


def _h_index_descending(ranked: Sequence[int]) -> int:
    """h-index of values already in descending order: the first 0-based rank r with ranked[r] <= r."""
    h = 0
    for v in ranked:
        if v <= h:
            break
        h += 1
    return h


def h_index_of_values(values: Iterable[int]) -> int:
    """Largest t such that at least t of the values are >= t."""
    return _h_index_descending(sorted(values, reverse=True))


def h_index(profile: Profile) -> int:
    """The h-index of the unmerged profile; 0 for an empty profile.

    One walk down `profile.value_counts`: while the next value v is above
    the h reached so far, its c items raise h to min(v, h + c).
    """
    h = 0
    for v, c in profile.value_counts:
        if v <= h:
            break
        h = min(v, h + c)
    return h


def _plain_ids_below(ids, n: int) -> bool:
    """True when every id is a plain int in [0, n)."""
    return not ids or (set(map(type, ids)) <= {int} and min(ids) >= 0 and max(ids) < n)


def validate_partition(profile: Profile, partition: MergePartition) -> None:
    """Check partition invariants against the profile; raise on the first violation.

    Violations are reported distinctly: empty group, unknown item id,
    duplicate item id (group overlap), uncovered item id. A partition of
    plain int ids within [0, n) that is nonempty group by group and whose
    sizes add up to n is accepted in C passes when its ids are distinct:
    the largest group, if it is a set, is checked in place against the
    union of the others (so it is never copied); otherwise all groups are
    unioned. Any other input gets the ordered scan, which names the first
    violation.
    """
    n = len(profile)
    groups = partition.groups
    try:
        if all(groups) and sum(map(len, groups)) == n:
            big = max(groups, key=len, default=None)
            if isinstance(big, (set, frozenset)):
                at = groups.index(big)
            else:  # len() of a list or tuple counts a repeated id twice: only a set's size is its distinct ids
                big, at = frozenset(), len(groups)
            others = set(chain.from_iterable(islice(groups, at)))
            others.update(chain.from_iterable(islice(groups, at + 1, None)))
            if len(others) == n - len(big) and others.isdisjoint(big):
                if _plain_ids_below(big, n) and _plain_ids_below(others, n):
                    return
    except TypeError:
        pass  # unsized groups or unhashable ids: the scan reports them as before
    seen: set[int] = set()
    for gi, group in enumerate(groups):
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


def group_sums(profile: Profile, partition: MergePartition) -> tuple[int, ...]:
    """Merged citation count of each group, in group order."""
    validate_partition(profile, partition)
    count = profile.citations.__getitem__
    return tuple(sum(map(count, group)) for group in partition.groups)


def partition_value(profile: Profile, partition: MergePartition) -> AchievabilityCertificate:
    """Value of a merge partition, as a certificate: k is the h-index of its group sums.

    The witness is the canonical maximum good subset: groups ranked by sum
    descending, ties by lowest group index.
    """
    sums = group_sums(profile, partition)
    value = h_index_of_values(sums)
    ranked = sorted(range(len(sums)), key=lambda g: (-sums[g], g))
    return AchievabilityCertificate(partition, value, frozenset(ranked[:value]))


def check_certificate(profile: Profile, certificate: AchievabilityCertificate) -> tuple[int, ...]:
    """Group sums of the certificate's partition, once the certificate is shown to prove its k.

    The partition must pass `validate_partition` (its errors are raised as
    they are), there must be at least k witness ids, and each must name a
    group whose sum is at least k. Otherwise InvalidPartitionError with
    reason "few-witnesses", or "weak-witness" for the lowest bad witness id.
    """
    sums = group_sums(profile, certificate.partition)
    k, witness = certificate.k, certificate.witness_group_ids
    if len(witness) < k:
        raise InvalidPartitionError("few-witnesses", f"{len(witness)} witness groups, fewer than k = {k}")
    weak = [g for g in witness if not (0 <= g < len(sums) and sums[g] >= k)]
    if weak:
        g = min(weak)
        if 0 <= g < len(sums):
            message = f"witness group {g} sums to {sums[g]}, below k = {k}"
        else:
            message = f"witness group {g} is out of range: the partition has {len(sums)} groups"
        raise InvalidPartitionError("weak-witness", message, group_index=g)
    return sums


# --- text / JSON interchange -------------------------------------------------

def _shown(value) -> str:
    """repr of a value from the input for an error message, cut to its first 40 characters.

    An int past the interpreter's digit limit has no repr; it is shown as that limit.
    """
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return _too_many_digits()
    return text if len(text) <= 40 else text[:40] + "..."


def _too_many_digits() -> str:
    return f"integer with more than {sys.get_int_max_str_digits()} digits"


def _parse_ints(tokens: list[str]) -> tuple[int, ...]:
    """The tokens as ints; ParseError naming the first token that is not one."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        for tok in tokens:  # rescan to name the first bad token
            try:
                int(tok)
            except ValueError:
                if re.fullmatch(r"[+-]?\d+(?:_\d+)*", tok):  # well formed, so past the digit limit
                    raise ParseError(f"{_too_many_digits()}: {_shown(tok)}") from None
                raise ParseError(f"not an integer: {_shown(tok)}") from None
        raise


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # json's int() past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {_too_many_digits()}") from None


def parse_profile_text(text: str) -> Profile:
    """Whitespace/newline-separated positive integers; empty input is an empty profile."""
    return Profile(_parse_ints(text.split()))


def profile_to_text(profile: Profile) -> str:
    return " ".join(str(c) for c in profile.citations)


def parse_profile_json(text: str) -> Profile:
    """JSON document with a "citations" array; item ids are array positions."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "citations" not in doc:
        raise ParseError('expected a JSON object with a "citations" field')
    counts = doc["citations"]
    if not isinstance(counts, list):
        raise ParseError('"citations" must be an array')
    return Profile.from_citations(counts)


def partition_to_lists(partition: MergePartition) -> list[list[int]]:
    """Array-of-arrays form (ids ascending within each group)."""
    return [sorted(g) for g in partition.groups]


def parse_partition_json(text: str) -> MergePartition:
    """Array of arrays of item ids."""
    doc = _load_json(text)
    if not isinstance(doc, list) or not all(isinstance(g, list) for g in doc):
        raise ParseError("expected an array of arrays of item ids")
    for g in doc:
        for x in g:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ParseError(f"item id must be an integer, got {_shown(x)}")
    return MergePartition.from_groups(doc)
