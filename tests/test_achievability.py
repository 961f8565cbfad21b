"""Exact achievability/maximization solvers and the brute-force oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hmerge import (
    InvalidParametersError,
    NodeBudgetExceededError,
    OracleCapExceededError,
    Profile,
    ThreePartitionInstance,
    achievability,
    brute_force_max,
    check_certificate,
    enumerate_partitions,
    gen_profile,
    h_index,
    is_achievable,
    iter_small_multisets,
    max_achievable,
    partition_value,
    reduce_3partition,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]

profiles = st.builds(
    Profile.from_citations,
    st.lists(st.integers(min_value=1, max_value=12), max_size=9),
)


def P(*counts):
    return Profile.from_citations(counts)


# The reduced NO instance of 3-partition (5, 7, 8, 8, 5, 5), m=2, b=19: value
# k=25 passes every counting bound and defeats the greedy, so only the
# search settles it (6 nodes).
SEARCH_ONLY = reduce_3partition(ThreePartitionInstance(numbers=(5, 7, 8, 8, 5, 5), m=2, b=19))


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

    def test_negative_oracle_cap_is_an_hmerge_error(self):
        # not an oversized instance: the cap itself is invalid, as a negative node budget is
        with pytest.raises(InvalidParametersError, match="oracle_cap must be >= 0"):
            brute_force_max(P(), oracle_cap=-1)

    @given(profiles.filter(lambda p: len(p) <= 6))
    @settings(max_examples=30, deadline=None)
    def test_certificate_proves_the_value(self, profile):
        result = brute_force_max(profile)
        check_certificate(profile, result.certificate)
        assert partition_value(profile, result.certificate.partition).k == result.value


class TestIsAchievable:
    def test_h_index_level_by_singletons(self):
        p = P(1, 1, 2, 3, 4, 4, 5, 5, 5)
        certificate = is_achievable(p, 4)
        assert certificate is not None
        check_certificate(p, certificate)

    def test_absent_above_mass_bound(self):
        assert is_achievable(P(5, 4, 3, 3, 3, 2), 5) is None  # 5 groups of 5 need mass 25 > 20

    def test_counting_bound_refuses_before_the_id_sort(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Profile.canonical_order called for a k the counting bound refuses")

        monkeypatch.setattr(Profile, "canonical_order", refuse)
        assert is_achievable(P(5, 4, 3, 3, 3, 2), 7) is None  # k > n
        assert is_achievable(P(5, 4, 3, 3, 3, 2), 5) is None  # mass 20 < 25
        assert achievability._achieve(P(30, 1), 2, 0) == (None, 0)  # one big item, one small: 1 + 1//2 < 2

    def test_reachable_by_merging(self):
        p = P(5, 4, 3, 3, 3, 2)
        certificate = is_achievable(p, 4)
        assert certificate is not None
        check_certificate(p, certificate)
        assert certificate.k == 4

    def test_k_zero_trivially_achievable(self):
        assert is_achievable(P(), 0) is not None
        assert is_achievable(P(), 1) is None
        certificate = is_achievable(P(2, 1), 0)
        assert certificate is not None
        check_certificate(P(2, 1), certificate)

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
        with pytest.raises(NodeBudgetExceededError):
            is_achievable(SEARCH_ONLY.profile, SEARCH_ONLY.k, node_budget=2)
        assert is_achievable(SEARCH_ONLY.profile, SEARCH_ONLY.k) is None

    def test_negative_k_is_an_hmerge_error(self):
        with pytest.raises(InvalidParametersError, match="k must be >= 0"):
            is_achievable(P(3, 2), -1)

    def test_negative_node_budget_is_an_hmerge_error(self):
        with pytest.raises(InvalidParametersError, match="node_budget must be >= 0"):
            achievability._achieve(P(3, 2), 1, -1)
        with pytest.raises(InvalidParametersError, match="node_budget must be >= 0"):
            is_achievable(P(3, 2), 0, node_budget=-1)


class TestMaxAchievable:
    def test_six_item_example(self):
        assert max_achievable(P(5, 4, 3, 3, 3, 2)).value == 4

    def test_empty(self):
        result = max_achievable(P())
        assert result.value == 0
        assert result.certificate.partition.groups == ()

    def test_no_improvement_possible(self):
        assert max_achievable(P(5, 3, 3, 3, 3, 2)).value == 3

    def test_negative_node_budget_is_an_hmerge_error(self):
        # no probe runs on [1] (h = bound = 1), so only the call's own check can reject it
        for counts in ((5, 4, 3, 3, 3, 2), (1,)):
            with pytest.raises(InvalidParametersError, match="node_budget must be >= 0"):
                max_achievable(P(*counts), node_budget=-3)

    def test_intro_scenario(self):
        p = Profile.from_citations([21] * 20 + [11, 11])
        result = max_achievable(p)
        assert result.value == 21
        non_singletons = [sorted(g) for g in result.certificate.partition.groups if len(g) > 1]
        assert non_singletons == [[20, 21]]

    def test_budget_error_propagates(self):
        with pytest.raises(NodeBudgetExceededError):
            max_achievable(SEARCH_ONLY.profile, node_budget=2)

    def test_budget_error_reports_the_configured_budget(self):
        # a search of 22 nodes refutes k=67, the greedy certifies k=58, 62,
        # 64 and 65, and the search for k=66 runs out of what is left of the
        # 50 nodes: the error must still name the whole budget
        profile = gen_profile(100, "uniform:1:100", 24)
        with pytest.raises(NodeBudgetExceededError, match="node budget of 50 exceeded") as exc:
            max_achievable(profile, node_budget=50)
        assert exc.value.budget == 50
        assert (exc.value.lower, exc.value.upper) == (65, 66)
        check_certificate(profile, exc.value.certificate)
        assert exc.value.certificate.k == 65
        assert max_achievable(profile).value == 66

    def test_budget_error_brackets_from_the_h_index(self):
        with pytest.raises(NodeBudgetExceededError, match=r"within \[23, 25\]") as exc:
            max_achievable(SEARCH_ONLY.profile, node_budget=2)
        assert (exc.value.lower, exc.value.upper) == (h_index(SEARCH_ONLY.profile), SEARCH_ONLY.k)
        check_certificate(SEARCH_ONLY.profile, exc.value.certificate)

    def test_settled_by_names_how_each_k_was_decided(self):
        result = max_achievable(SEARCH_ONLY.profile)
        assert result.value == 24
        assert result.settled_by == ((26, "bound"), (25, "search"), (24, "greedy"))
        assert result.nodes_explored == 6

    def test_free_probe_settles_one_below_a_failed_cap(self):
        # The reduced NO instance of 3-partition (5, 8, 6, 5, 7, 8, 8, 5, 5),
        # m=3, b=19: the search refutes the cap k=28 in 13 nodes, and the
        # greedy certifies 27 with no node. Bisection from h=25 would probe 26
        # first; the answer, the nodes and the certificate stay the same.
        reduced = reduce_3partition(ThreePartitionInstance(numbers=(5, 8, 6, 5, 7, 8, 8, 5, 5), m=3, b=19))
        assert (reduced.k, h_index(reduced.profile)) == (28, 25)
        result = max_achievable(reduced.profile)
        assert (result.value, result.nodes_explored) == (27, 13)
        assert result.settled_by == ((29, "bound"), (28, "search"), (27, "greedy"))
        assert result.certificate == is_achievable(reduced.profile, 27)

    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_certificate(self, profile):
        result = max_achievable(profile)
        assert result.value >= h_index(profile)
        assert result.value ** 2 <= profile.total
        assert result.value <= len(profile)
        check_certificate(profile, result.certificate)
        assert is_achievable(profile, result.value + 1) is None

    @given(profiles, st.lists(st.integers(min_value=1, max_value=12), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_superset_monotone(self, profile, extra):
        grown = Profile.from_citations(profile.citations + tuple(extra))
        assert max_achievable(grown).value >= max_achievable(profile).value


BASELINE = [
    (lambda: gen_profile(100, "uniform:1:100", 3), 69),
    (lambda: gen_profile(1000, "zipf:1.5:50", 3), 73),
    (lambda: gen_profile(1000, "uniform:1:100", 3), 224),
    (lambda: Profile.from_citations([1] * 3000), 54),
]


@pytest.mark.parametrize("make, value", BASELINE, ids=["uniform-100", "zipf-1000", "uniform-1000", "ones-3000"])
def test_baseline_instances_are_exact(make, value, monkeypatch):
    # these ran out of budget or recursion depth when each k was searched in turn
    profile = make()
    probes = []
    original = achievability._achieve

    def counting(*args):
        probes.append(args[1])
        return original(*args)

    monkeypatch.setattr(achievability, "_achieve", counting)
    result = max_achievable(profile)
    assert result.value == value
    check_certificate(profile, result.certificate)
    assert result.certificate.k == value
    upper = result.settled_by[0][0] - 1
    assert len(probes) <= 2 + math.log2(upper - h_index(profile) + 1)
    assert is_achievable(profile, value + 1) is None


def test_solver_agrees_with_oracle_on_random_profiles():
    rng = random.Random(7)
    for _ in range(60):
        counts = [rng.randint(1, 12) for _ in range(rng.randint(0, 8))]
        profile = Profile.from_citations(counts)
        assert max_achievable(profile).value == brute_force_max(profile).value, counts


def test_iter_small_multisets_counts():
    assert sum(1 for _ in iter_small_multisets(3, 3)) == 1 + 3 + 6 + 10
    assert next(iter(iter_small_multisets(2, 2))) == ()
