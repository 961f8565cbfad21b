"""3-partition instances, their mapping to achievability, and generators.

A 3-partition instance (M, m, b) asks for m submultisets of M summing to b
each. Shifting every number by m and padding with b+2m items of value
k = b+3m turns it into an h-index achievability instance (profile, k) that
is a YES exactly when the original is, provided every number lies strictly
between b/4 and b/2 (the range that forces blocks of three). The solver
here is the same covering search as achievability: the numbers sum to
exactly m*b, so m disjoint blocks that each reach b place every number and
each sum to exactly b. Generated instances can thus be machine-checked end
to end.
"""

from __future__ import annotations

import math
import random

from .achievability import MaxResult, OracleCapExceededError, max_achievable
from .covering import cover_bins
from .model import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_ORACLE_CAP,
    AchievabilityCertificate,
    HmergeError,
    InvalidParametersError,
    MergePartition,
    ParseError,
    Profile,
    Record,
    _parse_ints,
    _set,
    profile_to_text,
)


class MalformedInstanceError(HmergeError, ValueError):
    """The numbers do not form a 3-partition instance for the given m and b."""


class OutOfRangeInstanceError(HmergeError, ValueError):
    """Instance numbers are not strictly between b/4 and b/2."""


class InfeasibleParametersError(HmergeError, ValueError):
    """No in-range instance exists for the requested parameters."""


class ThreePartitionInstance(Record):
    """3m positive integers summing to m*b, with positional identities."""

    __slots__ = ("numbers", "m", "b")

    def __init__(self, numbers: tuple[int, ...], m: int, b: int):
        _set(self, "numbers", numbers)
        _set(self, "m", m)
        _set(self, "b", b)
        if m < 1 or b < 1:
            raise MalformedInstanceError(f"m and b must be positive, got m={m}, b={b}")
        if len(numbers) != 3 * m:
            raise MalformedInstanceError(f"expected {3 * m} numbers for m={m}, got {len(numbers)}")
        if any(x < 1 for x in numbers):
            raise MalformedInstanceError("all numbers must be positive")
        if sum(numbers) != m * b:
            raise MalformedInstanceError(f"numbers sum to {sum(numbers)}, expected m*b = {m * b}")

    @property
    def in_range(self) -> bool:
        """True iff every number is strictly between b/4 and b/2."""
        return all(4 * x > self.b and 2 * x < self.b for x in self.numbers)


class ReducedInstance(Record):
    """Achievability instance produced from a 3-partition instance.

    The profile lists the shifted numbers (each original plus m, item ids
    0..3m-1) followed by padding_count = k-m items of value k = b+3m.
    """

    __slots__ = ("profile", "k", "shifted", "padding_count")

    def __init__(self, profile: Profile, k: int, shifted: tuple[int, ...], padding_count: int):
        _set(self, "profile", profile)
        _set(self, "k", k)
        _set(self, "shifted", shifted)
        _set(self, "padding_count", padding_count)


class ReductionReport(Record):
    """Agreement record between the 3-partition solver and achievability."""

    __slots__ = ("instance", "reduced", "yes_3partition", "max_result", "agree", "witness_blocks",
                 "constructed_certificate")

    def __init__(self, instance: ThreePartitionInstance, reduced: ReducedInstance, yes_3partition: bool,
                 max_result: MaxResult, agree: bool, witness_blocks: tuple[tuple[int, ...], ...] | None,
                 constructed_certificate: AchievabilityCertificate | None):
        _set(self, "instance", instance)
        _set(self, "reduced", reduced)
        _set(self, "yes_3partition", yes_3partition)
        _set(self, "max_result", max_result)
        _set(self, "agree", agree)
        _set(self, "witness_blocks", witness_blocks)
        _set(self, "constructed_certificate", constructed_certificate)


def reduce_3partition(instance: ThreePartitionInstance) -> ReducedInstance:
    """Map (M, m, b) to the achievability instance (profile, k=b+3m).

    The mapping is total; the YES/NO equivalence is only guaranteed for
    in-range instances (see verify_reduction).
    """
    k = instance.b + 3 * instance.m
    shifted = tuple(x + instance.m for x in instance.numbers)
    padding_count = k - instance.m  # = b + 2m, always positive
    profile = Profile.from_citations(shifted + (k,) * padding_count)
    return ReducedInstance(profile=profile, k=k, shifted=shifted, padding_count=padding_count)


def solve_3partition(
    instance: ThreePartitionInstance,
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[tuple[int, ...], ...] | None:
    """Exact search for a split of the numbers into m blocks each summing to b.

    `cover_bins` with m bins of demand b: the numbers sum to exactly m*b,
    so its groups partition instance.numbers and each sums to exactly b,
    and a number above b makes the answer None. Returns index blocks into
    instance.numbers, or None. Block cardinalities are unconstrained; for
    in-range instances any solution necessarily uses blocks of three.
    InvalidParametersError when oracle_cap < 0.
    """
    if oracle_cap < 0:
        raise InvalidParametersError(f"oracle_cap must be >= 0, got {oracle_cap}")
    if len(instance.numbers) > oracle_cap:
        raise OracleCapExceededError(len(instance.numbers), oracle_cap)
    blocks, _ = cover_bins(instance.numbers, instance.m, demand=instance.b, node_budget=node_budget)
    if blocks is None:
        return None
    return tuple(tuple(sorted(block)) for block in blocks)


def certificate_from_3partition(
    reduced: ReducedInstance,
    blocks: tuple[tuple[int, ...], ...],
) -> AchievabilityCertificate:
    """Turn a 3-partition witness into an achievability certificate.

    The certificate is the k-m padding singletons plus the m solution
    blocks mapped onto the shifted items: k groups, each summing to
    exactly k.
    """
    shifted_count = len(reduced.shifted)
    groups = [frozenset((shifted_count + j,)) for j in range(reduced.padding_count)]
    groups.extend(frozenset(block) for block in blocks)
    partition = MergePartition(tuple(groups))
    return AchievabilityCertificate(
        partition=partition, k=reduced.k,
        witness_group_ids=frozenset(range(len(groups))),
    )


def verify_reduction(
    instance: ThreePartitionInstance,
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReductionReport:
    """Machine-check the YES/NO equivalence on one in-range instance.

    Solves the 3-partition side exactly, solves the reduced achievability
    side exactly, and reports whether the answers agree; the YES report
    carries both witnesses. InvalidParametersError when oracle_cap < 0.
    """
    if not instance.in_range:
        raise OutOfRangeInstanceError(
            f"equivalence requires every number strictly between b/4 and b/2 (b={instance.b})")
    reduced = reduce_3partition(instance)
    blocks = solve_3partition(instance, oracle_cap=oracle_cap, node_budget=node_budget)
    result = max_achievable(reduced.profile, node_budget=node_budget)
    yes = blocks is not None
    return ReductionReport(
        instance=instance,
        reduced=reduced,
        yes_3partition=yes,
        max_result=result,
        agree=yes == (result.value >= reduced.k),
        witness_blocks=blocks,
        constructed_certificate=certificate_from_3partition(reduced, blocks) if yes else None,
    )


def gen_3partition_instance(m: int, b: int, seed: int) -> ThreePartitionInstance:
    """Draw 3m in-range numbers summing to m*b, reproducibly from the seed.

    One uniform in-range draw, then repaired to the target sum by random
    moves, each of one number by a random amount that keeps it in range
    and never passes the target sum. Instances are unlabeled: YES/NO comes
    from the solver, never from construction.
    """
    if m < 1 or b < 1:
        raise InfeasibleParametersError(f"m and b must be positive, got m={m}, b={b}")
    lo = b // 4 + 1          # smallest integer strictly above b/4
    hi = (b - 1) // 2        # largest integer strictly below b/2
    if lo > hi or not (3 * lo <= b <= 3 * hi):
        raise InfeasibleParametersError(
            f"no multiset of 3*{m} integers strictly between {b}/4 and {b}/2 sums to {m}*{b}")
    rng = random.Random(seed)
    target = m * b
    values = [rng.randint(lo, hi) for _ in range(3 * m)]
    gap = target - sum(values)
    while gap:  # 3*m*lo <= target <= 3*m*hi, so the numbers have room for the gap
        i = rng.randrange(len(values))
        room = min(abs(gap), hi - values[i] if gap > 0 else values[i] - lo)
        if room:
            step = rng.randint(1, room) if gap > 0 else -rng.randint(1, room)
            values[i] += step
            gap -= step
    return ThreePartitionInstance(numbers=tuple(values), m=m, b=b)


def gen_profile(n: int, dist: str, seed: int) -> Profile:
    """Random citation profile, reproducible from the seed.

    dist is "uniform:LO:HI" (counts uniform on [LO, HI]) or "zipf:S:MAX"
    (counts 1..MAX with probability proportional to 1/v**S).
    """
    if n < 0:
        raise InvalidParametersError(f"profile size must be >= 0, got {n}")
    parts = dist.split(":")
    rng = random.Random(seed)
    if parts[0] == "uniform" and len(parts) == 3:
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise InvalidParametersError(f"bad uniform bounds in {dist!r}") from None
        if not 1 <= lo <= hi:
            raise InvalidParametersError(f"uniform bounds must satisfy 1 <= lo <= hi, got {dist!r}")
        return Profile.from_citations(rng.randint(lo, hi) for _ in range(n))
    if parts[0] == "zipf" and len(parts) == 3:
        try:
            s, vmax = float(parts[1]), int(parts[2])
        except ValueError:
            raise InvalidParametersError(f"bad zipf parameters in {dist!r}") from None
        if vmax < 1 or not 0 <= s < math.inf:  # a NaN fails both comparisons
            raise InvalidParametersError(f"zipf needs MAX >= 1 and a finite S >= 0, got {dist!r}")
        support = range(1, vmax + 1)
        weights = [v ** -s for v in support]
        return Profile.from_citations(rng.choices(support, weights=weights, k=n))
    raise InvalidParametersError(f"unknown distribution {dist!r}; use uniform:LO:HI or zipf:S:MAX")


# --- instance file interchange ------------------------------------------------

def parse_3partition_file(text: str) -> ThreePartitionInstance:
    """First line "m b", second line the 3m numbers (whitespace tolerant)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("expected an 'm b' header line")
    m, b, *numbers = _parse_ints(tokens)
    return ThreePartitionInstance(numbers=tuple(numbers), m=m, b=b)


def format_3partition_instance(instance: ThreePartitionInstance) -> str:
    return f"{instance.m} {instance.b}\n" + " ".join(str(x) for x in instance.numbers) + "\n"


def format_reduced_instance(reduced: ReducedInstance) -> str:
    """Profile text plus a "k=<value>" sidecar line."""
    return profile_to_text(reduced.profile) + f"\nk={reduced.k}\n"
