"""Exact achievability/maximization solvers and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_certificate
from hmerge import (
    NodeBudgetExceededError,
    OracleCapExceededError,
    Profile,
    brute_force_max,
    enumerate_partitions,
    gen_profile,
    greedy_lower_bound,
    h_index,
    is_achievable,
    iter_small_multisets,
    max_achievable,
    partition_value,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]

profiles = st.builds(
    Profile.from_citations,
    st.lists(st.integers(min_value=1, max_value=12), max_size=9),
)


def P(*counts):
    return Profile.from_citations(counts)


class TestEnumeratePartitions:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_match_bell_numbers(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_n0_single_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_n3_in_growth_string_order(self):
        assert list(enumerate_partitions(3)) == [
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0, 2), (1,)),
            ((0,), (1, 2)),
            ((0,), (1,), (2,)),
        ]

    def test_each_partition_once_and_complete(self):
        seen = set()
        for blocks in enumerate_partitions(5):
            key = frozenset(frozenset(b) for b in blocks)
            assert key not in seen
            seen.add(key)
            assert sorted(i for b in blocks for i in b) == list(range(5))
        assert len(seen) == BELL[5]


class TestBruteForceMax:
    def test_six_item_example(self):
        result = brute_force_max(P(5, 4, 3, 3, 3, 2))
        assert result.value == 4
        assert result.nodes_explored == BELL[6]

    def test_merging_equal_pairs(self):
        assert brute_force_max(P(3, 3)).value == 2  # singletons beat the merge
        assert brute_force_max(P(1, 1)).value == 1  # merge and singletons tie

    def test_empty_profile(self):
        assert brute_force_max(P()).value == 0

    def test_oracle_cap(self):
        with pytest.raises(OracleCapExceededError):
            brute_force_max(Profile.from_citations([1] * 12))
        brute_force_max(Profile.from_citations([1] * 12), oracle_cap=12)

    @given(profiles.filter(lambda p: len(p) <= 6))
    @settings(max_examples=30, deadline=None)
    def test_certificate_proves_the_value(self, profile):
        result = brute_force_max(profile)
        assert_certificate(profile, result.certificate)
        assert partition_value(profile, result.certificate.partition).value == result.value


class TestIsAchievable:
    def test_h_index_level_by_singletons(self):
        p = P(1, 1, 2, 3, 4, 4, 5, 5, 5)
        certificate = is_achievable(p, 4)
        assert certificate is not None
        assert_certificate(p, certificate)

    def test_absent_above_mass_bound(self):
        assert is_achievable(P(5, 4, 3, 3, 3, 2), 5) is None  # 5 groups of 5 need mass 25 > 20

    def test_reachable_by_merging(self):
        p = P(5, 4, 3, 3, 3, 2)
        certificate = is_achievable(p, 4)
        assert certificate is not None
        assert_certificate(p, certificate)
        assert certificate.k == 4

    def test_k_zero_trivially_achievable(self):
        assert is_achievable(P(), 0) is not None
        assert is_achievable(P(), 1) is None
        certificate = is_achievable(P(2, 1), 0)
        assert certificate is not None
        assert_certificate(P(2, 1), certificate)

    def test_leftovers_land_in_one_garbage_group(self):
        p = P(9, 9, 1, 1, 1)
        certificate = is_achievable(p, 2)
        assert certificate is not None
        groups = [sorted(g) for g in certificate.partition.groups]
        assert groups == [[0], [1], [2, 3, 4]]
        assert sorted(certificate.witness_group_ids) == [0, 1]

    @given(profiles, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_k_monotone(self, profile, k):
        if is_achievable(profile, k) is not None:
            assert is_achievable(profile, k - 1) is not None

    def test_budget_exhaustion_raises(self):
        p = Profile.from_citations([2] * 8)
        with pytest.raises(NodeBudgetExceededError):
            is_achievable(p, 3, node_budget=2)


class TestMaxAchievable:
    def test_six_item_example(self):
        assert max_achievable(P(5, 4, 3, 3, 3, 2)).value == 4

    def test_empty(self):
        result = max_achievable(P())
        assert result.value == 0
        assert result.certificate.partition.groups == ()

    def test_no_improvement_possible(self):
        assert max_achievable(P(5, 3, 3, 3, 3, 2)).value == 3

    def test_intro_scenario(self):
        p = Profile.from_citations([21] * 20 + [11, 11])
        result = max_achievable(p)
        assert result.value == 21
        non_singletons = [sorted(g) for g in result.certificate.partition.groups if len(g) > 1]
        assert non_singletons == [[20, 21]]

    def test_budget_error_propagates(self):
        with pytest.raises(NodeBudgetExceededError):
            max_achievable(Profile.from_citations([2] * 8), node_budget=2)

    def test_budget_error_reports_the_configured_budget(self):
        # earlier k steps spend part of the budget; the error must still name the whole of it
        with pytest.raises(NodeBudgetExceededError, match="300000") as exc:
            max_achievable(gen_profile(100, "uniform:1:100", 3), node_budget=300_000)
        assert exc.value.budget == 300_000

    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_certificate(self, profile):
        result = max_achievable(profile)
        assert result.value >= h_index(profile)
        assert result.value ** 2 <= profile.total
        assert result.value <= len(profile)
        assert_certificate(profile, result.certificate)
        assert is_achievable(profile, result.value + 1) is None

    @given(profiles, st.lists(st.integers(min_value=1, max_value=12), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_superset_monotone(self, profile, extra):
        grown = Profile.from_citations(profile.citations + tuple(extra))
        assert max_achievable(grown).value >= max_achievable(profile).value


class TestGreedyLowerBound:
    def test_one_round_reaches_four(self):
        value, partition = greedy_lower_bound(P(5, 4, 3, 3, 3, 2))
        assert value == 4
        assert partition_value(P(5, 4, 3, 3, 3, 2), partition).value == 4

    def test_never_below_h_index(self):
        value, _ = greedy_lower_bound(P(1, 1, 2, 3, 4, 4, 5, 5, 5))
        assert value >= 4

    def test_single_item(self):
        assert greedy_lower_bound(P(1))[0] == 1

    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_sandwiched_between_h_and_max(self, profile):
        value, partition = greedy_lower_bound(profile)
        assert value == partition_value(profile, partition).value
        assert h_index(profile) <= value <= max_achievable(profile).value


def test_solver_agrees_with_oracle_on_random_profiles():
    rng = random.Random(7)
    for _ in range(60):
        counts = [rng.randint(1, 12) for _ in range(rng.randint(0, 8))]
        profile = Profile.from_citations(counts)
        assert max_achievable(profile).value == brute_force_max(profile).value, counts


def test_iter_small_multisets_counts():
    assert sum(1 for _ in iter_small_multisets(3, 3)) == 1 + 3 + 6 + 10
    assert next(iter(iter_small_multisets(2, 2))) == ()
