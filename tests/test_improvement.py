"""Improvement detection and the explicit witness construction."""

import json
import random

import pytest
from helpers import reference_classify, reference_improving_partition
from hypothesis import given, strategies as st

from hmerge import cli
from hmerge import (
    Profile,
    brute_force_max,
    can_improve,
    classify,
    h_index,
    improving_partition,
    iter_small_multisets,
    partition_value,
)

profiles = st.builds(
    Profile.from_citations,
    st.lists(st.integers(min_value=1, max_value=15), max_size=10),
)


def P(*counts):
    return Profile.from_citations(counts)


def values_of(profile, ids):
    return sorted(profile.citations[i] for i in ids)


class TestClassify:
    def test_one_critical_item(self):
        p = P(5, 4, 3, 3, 3, 2)
        c = classify(p)
        assert c.h == 3
        assert values_of(p, c.supercritical_ids) == [4, 5]
        assert values_of(p, c.critical_ids) == [3]
        assert values_of(p, c.tail_ids) == [2]
        assert values_of(p, c.rest_ids) == [3, 3]
        assert c.rest_sum == 6
        assert not c.overlap

    def test_two_critical_items(self):
        p = P(5, 3, 3, 3, 3, 2)
        c = classify(p)
        assert c.h == 3
        assert values_of(p, c.supercritical_ids) == [5]
        assert values_of(p, c.critical_ids) == [3, 3]
        assert values_of(p, c.tail_ids) == [2, 3]
        assert values_of(p, c.rest_ids) == [3]
        assert c.rest_sum == 3
        assert not c.overlap

    def test_single_item_overlaps(self):
        c = classify(P(1))
        assert c.h == 1
        assert c.supercritical_ids == frozenset()
        assert c.critical_ids == frozenset({0})
        assert c.tail_ids == frozenset({0})
        assert c.overlap

    def test_empty_profile(self):
        c = classify(P())
        assert c.h == 0 and not c.overlap and c.rest_sum == 0

    @given(profiles)
    def test_consistency(self, profile):
        c = classify(profile)
        assert len(c.supercritical_ids) + len(c.critical_ids) == c.h
        assert all(profile.citations[i] > c.h for i in c.supercritical_ids)
        assert all(profile.citations[i] == c.h for i in c.critical_ids)
        assert all(profile.citations[i] <= c.h for i in c.rest_ids)
        assert len(c.tail_ids) == len(c.critical_ids) or c.overlap
        assert c.rest_sum == sum(profile.citations[i] for i in c.rest_ids)
        assert c.overlap == (len(profile) < len(c.supercritical_ids) + 2 * len(c.critical_ids))
        if not c.overlap:
            parts = [c.supercritical_ids, c.critical_ids, c.tail_ids, c.rest_ids]
            assert sum(len(s) for s in parts) == len(profile)
            assert frozenset().union(*parts) == frozenset(range(len(profile)))


class TestCanImprove:
    def test_positive_example(self):
        assert can_improve(P(5, 4, 3, 3, 3, 2))

    def test_rest_sum_too_small(self):
        assert not can_improve(P(5, 3, 3, 3, 3, 2))

    def test_empty_profile(self):
        assert not can_improve(P())

    def test_single_item(self):
        assert not can_improve(P(1))


class TestImprovingPartition:
    def test_constructs_the_pairing_witness(self):
        p = P(5, 4, 3, 3, 3, 2)
        w = improving_partition(p)
        assert w is not None
        assert sorted(sorted(g) for g in w.partition.groups) == [[0], [1], [2, 5], [3, 4]]
        assert w.achieved == 4

    def test_absent_when_condition_fails(self):
        assert improving_partition(P(5, 3, 3, 3, 3, 2)) is None

    def test_intro_scenario_merges_the_two_elevens(self):
        p = Profile.from_citations([21] * 20 + [11, 11])
        w = improving_partition(p)
        assert w is not None
        assert w.achieved == 21
        non_singletons = [sorted(g) for g in w.partition.groups if len(g) > 1]
        assert non_singletons == [[20, 21]]

    @given(profiles)
    def test_soundness(self, profile):
        w = improving_partition(profile)
        if w is not None:
            assert partition_value(profile, w.partition).k > h_index(profile)
            assert w.achieved == partition_value(profile, w.partition).k
            assert w.achieved >= classify(profile).h + 1

    @given(profiles)
    def test_absent_iff_cannot_improve(self, profile):
        assert (improving_partition(profile) is None) == (not can_improve(profile))

    @given(profiles)
    def test_witness_structure(self, profile):
        w = improving_partition(profile)
        if w is None:
            return
        c = classify(profile)
        expected = len(c.supercritical_ids) + len(c.critical_ids) + (1 if c.rest_ids else 0)
        assert len(w.partition.groups) == expected
        core_groups = [g for g in w.partition.groups if not g & c.rest_ids]
        assert sorted(len(g) for g in core_groups) == [1] * len(c.supercritical_ids) + [2] * len(c.critical_ids)
        for group in core_groups:
            if len(group) == 2:
                assert len(group & c.critical_ids) == 1
                assert len(group & c.tail_ids) == 1
            assert sum(profile.citations[i] for i in group) >= c.h + 1

    @given(st.lists(st.integers(min_value=1, max_value=15), max_size=10), st.randoms(use_true_random=False))
    def test_decision_invariant_under_input_order(self, counts, rng):
        shuffled = list(counts)
        rng.shuffle(shuffled)
        a, b = P(*counts), P(*shuffled)
        assert can_improve(a) == can_improve(b)
        ca, cb = classify(a), classify(b)
        for field in ("supercritical_ids", "critical_ids", "tail_ids", "rest_ids"):
            assert values_of(a, getattr(ca, field)) == values_of(b, getattr(cb, field))
        wa, wb = improving_partition(a), improving_partition(b)
        if wa is not None:
            assert wa.achieved == wb.achieved


def test_matches_brute_force_on_tiny_corpus():
    # the full corpus up to size 7 runs in the acceptance suite
    for counts in iter_small_multisets(5, 5):
        profile = Profile.from_citations(counts)
        oracle = brute_force_max(profile)
        assert can_improve(profile) == (oracle.value > h_index(profile)), counts


def random_counts(rng, kind, n):
    if kind == "uniform":
        return [rng.randint(1, 100) for _ in range(n)]
    if kind == "zipf":
        return rng.choices(range(1, 201), weights=[v ** -1.2 for v in range(1, 201)], k=n)
    if kind == "equal":
        return [rng.randint(1, 60)] * n
    return [rng.randint(1, 3) for _ in range(n)]


def assert_matches_reference(profile):
    assert classify(profile) == reference_classify(profile)
    got, want = improving_partition(profile), reference_improving_partition(profile)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.partition.groups == want.partition.groups  # group order included
        assert got.achieved == want.achieved
        assert got.h == want.h
        assert got.group_sums == want.group_sums


class TestMatchesSortingReference:
    """The linear-pass test gives the id-sorting test's sets, sums and witness, group order included."""

    @pytest.mark.parametrize("kind", ["uniform", "zipf", "equal", "one-to-three"])
    def test_seeded_profiles(self, kind):
        rng = random.Random(f"improvement/{kind}")
        for _ in range(80):
            n = rng.choice((0, 1, 2, 3, 4, 5, 7, 12, 40, 150, 600)) if rng.random() < 0.9 else rng.randint(1, 3000)
            assert_matches_reference(P(*random_counts(rng, kind, n)))

    @pytest.mark.parametrize("counts", [(1,), (2, 2), (3, 3, 3)])
    def test_overlap_profiles(self, counts):
        assert classify(P(*counts)).overlap
        assert_matches_reference(P(*counts))

    def test_large_zipf_profile(self):
        rng = random.Random(5)
        support = range(1, 10001)
        counts = rng.choices(support, weights=[v ** -1.2 for v in support], k=100_000)
        assert improving_partition(P(*counts)) is not None
        assert_matches_reference(P(*counts))


def test_improve_path_sorts_no_item_ids(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("Profile.canonical_order called on the improve path")

    monkeypatch.setattr(Profile, "canonical_order", refuse)
    profile = P(5, 4, 3, 3, 3, 2)
    assert classify(profile).h == 3
    assert improving_partition(profile).achieved == 4
    assert cli.main(["improve", "5 4 3 3 3 2", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["achieved"] == 4


def test_improve_prints_what_the_witness_carries(monkeypatch, capsys):
    argv = ["improve", "5 4 3 3 3 2", "--format", "structured"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("the improve path recomputed a fact the witness carries")

    monkeypatch.setattr(cli, "h_index", refuse)
    monkeypatch.setattr(cli, "check_certificate", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    doc = json.loads(expected)
    assert doc["h_index"] == 3 and doc["group_sums"] == [5, 4, 5, 6]
