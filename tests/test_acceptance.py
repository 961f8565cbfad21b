"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a "[acceptance] ..." PASS line with its elapsed time;
a pytest failure on any assert is the corresponding FAIL signal. Oracle
values come from exhaustive partition enumeration, never from the solver
under test.
"""

import random
import time

import pytest

from hmerge import (
    MergePartition,
    Profile,
    brute_force_max,
    can_improve,
    check_certificate,
    classify,
    gen_3partition_instance,
    h_index,
    improving_partition,
    is_achievable,
    iter_small_multisets,
    max_achievable,
    partition_value,
    reduce_3partition,
    verify_reduction,
    InfeasibleParametersError,
)

RANDOM_CORPUS_SEED = 20260809


@pytest.fixture(scope="session")
def oracle_values():
    """Brute-force maximum for every multiset with size <= 7 and values in 1..7."""
    started = time.perf_counter()
    values = {}
    for counts in iter_small_multisets(7, 7):
        values[counts] = brute_force_max(Profile.from_citations(counts)).value
    print(f"\n[acceptance] oracle corpus: {len(values)} multisets enumerated "
          f"in {time.perf_counter() - started:.2f}s (shared by criteria 2 and 3)")
    return values


def finish(label: str, started: float, limit_s: float):
    elapsed = time.perf_counter() - started
    line = f"[acceptance] {label}: PASS ({elapsed:.2f}s, limit {limit_s:g}s)"
    print(line)
    assert elapsed < limit_s, f"{label} exceeded its runtime limit: {elapsed:.2f}s >= {limit_s:g}s"


def values_of(profile, ids):
    return sorted(profile.citations[i] for i in ids)


def test_criterion_1_worked_examples_exact():
    started = time.perf_counter()
    assert h_index(Profile.from_citations((1, 1, 2, 3, 4, 4, 5, 5, 5))) == 4

    first = Profile.from_citations((5, 4, 3, 3, 3, 2))
    c1 = classify(first)
    assert c1.h == 3
    assert values_of(first, c1.critical_ids) == [3]
    assert values_of(first, c1.tail_ids) == [2]

    second = Profile.from_citations((5, 3, 3, 3, 3, 2))
    c2 = classify(second)
    assert c2.h == 3
    assert values_of(second, c2.critical_ids) == [3, 3]
    assert values_of(second, c2.tail_ids) == [2, 3]
    finish("criterion 1 (worked examples exact)", started, 1.0)


def test_criterion_2_improvement_oracle_equivalence(oracle_values):
    started = time.perf_counter()
    for counts, oracle_max in oracle_values.items():
        profile = Profile.from_citations(counts)
        h = h_index(profile)
        assert can_improve(profile) == (oracle_max > h), counts
        witness = improving_partition(profile)
        assert (witness is None) == (oracle_max <= h), counts
        if witness is not None:
            assert partition_value(profile, witness.partition).k > h, counts
    finish("criterion 2 (improvement == oracle on all |S|<=7, values<=7)", started, 120.0)


def test_criterion_3_maximization_oracle_equivalence(oracle_values):
    started = time.perf_counter()
    for counts, oracle_max in oracle_values.items():
        profile = Profile.from_citations(counts)
        result = max_achievable(profile)
        assert result.value == oracle_max, counts
        check_certificate(profile, result.certificate)

    rng = random.Random(RANDOM_CORPUS_SEED)
    for _ in range(200):
        counts = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 9)))
        profile = Profile.from_citations(counts)
        result = max_achievable(profile)
        assert result.value == brute_force_max(profile).value, counts
        check_certificate(profile, result.certificate)
    finish("criterion 3 (max == oracle, exhaustive + 200 random)", started, 300.0)


def test_criterion_4_intro_scenario():
    started = time.perf_counter()
    profile = Profile.from_citations([21] * 20 + [11, 11])
    assert h_index(profile) == 20
    result = max_achievable(profile)
    assert result.value == 21
    non_singletons = [sorted(g) for g in result.certificate.partition.groups if len(g) > 1]
    assert non_singletons == [[20, 21]], "witness must merge exactly the two 11-citation items"
    check_certificate(profile, result.certificate)
    finish("criterion 4 (intro scenario: 20x21 + 11 + 11 -> 21)", started, 1.0)


def test_criterion_5_reduction_equivalence():
    started = time.perf_counter()
    instances = []
    for m in (2, 3):
        for b in range(7, 21):
            for seed in (0, 1):
                try:
                    instances.append(gen_3partition_instance(m, b, seed))
                except InfeasibleParametersError:
                    continue
    assert len(instances) >= 50

    yes_count = 0
    for instance in instances:
        assert instance.in_range
        report = verify_reduction(instance)
        assert report.agree, (instance.m, instance.b, instance.numbers)
        k = report.reduced.k
        if not report.yes_3partition:
            assert report.max_result.value < k
            continue
        yes_count += 1
        padding = instance.b + 2 * instance.m
        for certificate in (report.max_result.certificate, report.constructed_certificate):
            sums = check_certificate(report.reduced.profile, certificate)
            assert len(certificate.partition.groups) == k
            assert all(s == k for s in sums)
            singles = [g for g in certificate.partition.groups if len(g) == 1]
            blocks = [g for g in certificate.partition.groups if len(g) > 1]
            assert len(singles) == padding
            assert all(report.reduced.profile.citations[next(iter(g))] == k for g in singles)
            assert len(blocks) == instance.m
            assert all(len(g) == 3 for g in blocks)
    assert yes_count > 0  # the corpus must exercise the YES direction
    finish(f"criterion 5 (reduction equivalence on {len(instances)} in-range instances, {yes_count} YES)",
           started, 300.0)


def test_criterion_6_property_suite():
    started = time.perf_counter()
    rng = random.Random(RANDOM_CORPUS_SEED + 1)
    for _ in range(1000):
        counts = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 9)))
        profile = Profile.from_citations(counts)
        h = h_index(profile)

        assert partition_value(profile, MergePartition.from_groups([i] for i in range(len(profile)))).k == h

        result = max_achievable(profile)
        assert result.value ** 2 <= profile.total
        assert result.value >= h

        extra = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 3)))
        grown = Profile.from_citations(counts + extra)
        assert max_achievable(grown).value >= result.value

        k = rng.randint(1, 12)
        if is_achievable(profile, k) is not None:
            assert is_achievable(profile, k - 1) is not None
    finish("criterion 6 (property suite over 1000 seeded profiles)", started, 120.0)
