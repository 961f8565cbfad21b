"""Profile/partition model and the two value functions."""

import copy
import pickle
import sys
from collections import Counter

import pytest
from helpers import reference_h_index, reference_validate_partition
from hypothesis import given, strategies as st

from hmerge import (
    AchievabilityCertificate,
    InvalidPartitionError,
    MaxResult,
    MergePartition,
    ParseError,
    Profile,
    check_certificate,
    group_sums,
    h_index,
    h_index_of_values,
    parse_partition_json,
    parse_profile_json,
    parse_profile_text,
    partition_value,
    profile_to_text,
    validate_partition,
)

profiles = st.builds(
    Profile.from_citations,
    st.lists(st.integers(min_value=1, max_value=30), max_size=12),
)


def P(*counts):
    return Profile.from_citations(counts)


class TestHIndex:
    def test_nine_publication_example(self):
        assert h_index(P(1, 1, 2, 3, 4, 4, 5, 5, 5)) == 4

    def test_empty_profile(self):
        assert h_index(P()) == 0

    def test_six_publication_example(self):
        assert h_index(P(5, 4, 3, 3, 3, 2)) == 3

    @pytest.mark.parametrize("counts,expected", [
        ((1,), 1),
        ((1, 1, 1), 1),
        ((10,), 1),
        ((2, 2), 2),
        ((7, 7, 7, 7, 7, 7, 7), 7),
    ])
    def test_small_cases(self, counts, expected):
        assert h_index(P(*counts)) == expected

    @given(profiles)
    def test_bounded_by_size_and_max(self, profile):
        h = h_index(profile)
        assert h <= len(profile)
        assert h <= max(profile.citations, default=0)

    @given(profiles, st.integers(min_value=1, max_value=30))
    def test_monotone_in_new_items(self, profile, extra):
        grown = Profile.from_citations(profile.citations + (extra,))
        assert h_index(grown) >= h_index(profile)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
           st.data())
    def test_monotone_in_citation_bumps(self, counts, data):
        i = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
        bumped = list(counts)
        bumped[i] += data.draw(st.integers(min_value=1, max_value=10))
        assert h_index(P(*bumped)) >= h_index(P(*counts))


class TestValueCounts:
    @given(st.lists(st.integers(min_value=1, max_value=8), max_size=30))
    def test_match_a_sort_and_a_count(self, counts):
        for profile in (Profile.from_citations(counts), parse_profile_text(" ".join(map(str, counts)))):
            assert h_index(profile) == reference_h_index(counts)
            assert profile.value_counts == tuple(sorted(Counter(counts).items(), reverse=True))

    def test_equal_tokens_are_one_value(self):
        parsed, built = parse_profile_text("7 07 +7 3 7"), P(7, 7, 7, 3, 7)
        assert parsed == built
        assert parsed.value_counts == built.value_counts == ((7, 4), (3, 1))

    def test_are_not_a_field(self):
        seen, fresh = P(3, 1, 3), P(3, 1, 3)
        assert seen.value_counts == ((3, 2), (1, 1))
        assert seen == fresh and hash(seen) == hash(fresh)
        assert repr(seen) == "Profile(citations=(3, 1, 3))"


def test_records_are_immutable_values():
    partition = MergePartition.from_groups([[0], [1, 2]])
    cert = AchievabilityCertificate(partition, 2, frozenset({0, 1}))
    assert cert == AchievabilityCertificate(partition=MergePartition(partition.groups), k=2,
                                            witness_group_ids=frozenset({1, 0}))
    assert hash(cert) == hash(AchievabilityCertificate(partition, 2, frozenset({0, 1})))
    assert cert != AchievabilityCertificate(partition, 1, frozenset({0, 1}))
    assert partition != P(1, 2) and partition.groups != partition
    assert repr(partition) == "MergePartition(groups=(frozenset({0}), frozenset({1, 2})))"
    with pytest.raises(AttributeError):
        cert.k = 3
    with pytest.raises(AttributeError):
        del cert.k
    with pytest.raises(AttributeError):
        cert.extra = 1
    assert copy.copy(cert) == cert and pickle.loads(pickle.dumps(cert)) == cert
    assert MaxResult(2, cert, 0).settled_by == ()


def test_profile_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        P(3, 0, 2)
    with pytest.raises(ValueError):
        P(-1)


def test_canonical_order_breaks_ties_by_id():
    assert P(3, 5, 3, 7).canonical_order() == (3, 1, 0, 2)


class TestValidatePartition:
    def test_ok(self):
        validate_partition(P(5, 4), MergePartition.from_groups([[0], [1]]))

    def test_uncovered_item(self):
        with pytest.raises(InvalidPartitionError) as exc:
            validate_partition(P(5, 4), MergePartition.from_groups([[0]]))
        assert exc.value.reason == "uncovered-id"
        assert exc.value.item_id == 1

    def test_duplicate_id(self):
        with pytest.raises(InvalidPartitionError) as exc:
            validate_partition(P(5, 4), MergePartition.from_groups([[0, 1], [1]]))
        assert exc.value.reason == "duplicate-id"
        assert exc.value.item_id == 1

    def test_unknown_id(self):
        with pytest.raises(InvalidPartitionError) as exc:
            validate_partition(P(5, 4), MergePartition.from_groups([[0], [1], [7]]))
        assert exc.value.reason == "unknown-id"
        assert exc.value.group_index == 2

    def test_empty_group(self):
        with pytest.raises(InvalidPartitionError) as exc:
            validate_partition(P(5, 4), MergePartition.from_groups([[0, 1], []]))
        assert exc.value.reason == "empty-group"


class TestGroupSums:
    def test_pairing_example(self):
        sums = group_sums(P(5, 4, 3, 3, 3, 2), MergePartition.from_groups([[0], [1], [2, 5], [3, 4]]))
        assert sums == (5, 4, 5, 6)

    def test_merging_two_elevens(self):
        assert group_sums(P(11, 11), MergePartition.from_groups([[0, 1]])) == (22,)

    @given(profiles)
    def test_singletons_reproduce_counts(self, profile):
        assert group_sums(profile, MergePartition.from_groups([i] for i in range(len(profile)))) == profile.citations

    def test_rejects_invalid_partition(self):
        with pytest.raises(InvalidPartitionError):
            group_sums(P(5, 4), MergePartition.from_groups([[0]]))


class TestPartitionValue:
    def test_singletons_match_h_index(self):
        p = P(1, 1, 2, 3, 4, 4, 5, 5, 5)
        assert partition_value(p, MergePartition.from_groups([i] for i in range(len(p)))).k == 4

    def test_pairing_example_reaches_four(self):
        p = P(5, 4, 3, 3, 3, 2)
        report = partition_value(p, MergePartition.from_groups([[0], [1], [2, 5], [3, 4]]))
        assert report.k == 4

    def test_small_merge(self):
        report = partition_value(P(2, 3, 4), MergePartition.from_groups([[0, 1], [2]]))
        assert report.k == 2
        assert report.witness_group_ids == frozenset({0, 1})

    def test_witness_prefers_larger_sums_then_lower_index(self):
        p = P(3, 3, 3, 1)
        # sums: 3, 3, 4 -> value 3 needs all three groups
        report = partition_value(p, MergePartition.from_groups([[0], [1], [2, 3]]))
        assert report.k == 3
        assert report.witness_group_ids == frozenset({0, 1, 2})
        # sums: 6, 3, 1 -> value 2, canonical witness = groups 0 and 1
        report = partition_value(p, MergePartition.from_groups([[0, 1], [2], [3]]))
        assert report.k == 2
        assert report.witness_group_ids == frozenset({0, 1})

    @given(profiles)
    def test_singleton_identity(self, profile):
        singletons = MergePartition.from_groups([i] for i in range(len(profile)))
        assert partition_value(profile, singletons).k == h_index(profile)

    @given(profiles, st.randoms(use_true_random=False))
    def test_value_is_h_index_of_group_sums(self, profile, rng):
        if len(profile) == 0:
            partition = MergePartition(())
        else:
            labels = [rng.randrange(len(profile)) for _ in range(len(profile))]
            groups = {}
            for item, label in enumerate(labels):
                groups.setdefault(label, []).append(item)
            partition = MergePartition.from_groups(groups.values())
        report = partition_value(profile, partition)
        assert report.k == h_index(Profile.from_citations(group_sums(profile, partition)))
        assert len(report.witness_group_ids) == report.k
        assert check_certificate(profile, report) == group_sums(profile, partition)


class TestCheckCertificate:
    PROFILE = P(5, 4, 3, 3, 3, 2)
    GROUPS = [[0], [1], [2, 5], [3, 4]]  # sums 5, 4, 5, 6

    def certificate(self, k=4, witness=(0, 1, 2, 3), groups=GROUPS):
        return AchievabilityCertificate(MergePartition.from_groups(groups), k, frozenset(witness))

    def test_returns_the_group_sums(self):
        assert check_certificate(self.PROFILE, self.certificate()) == (5, 4, 5, 6)
        assert check_certificate(self.PROFILE, self.certificate(k=0, witness=())) == (5, 4, 5, 6)

    @pytest.mark.parametrize("k, witness, reason, group_index, message", [
        (4, (0, 1, 2), "few-witnesses", None, "3 witness groups, fewer than k = 4"),
        (5, (0, 1, 2, 3), "few-witnesses", None, "4 witness groups, fewer than k = 5"),
        (4, (0, 1, 2, 3, 7), "weak-witness", 7, "witness group 7 is out of range: the partition has 4 groups"),
        (4, (-1, 0, 1, 2), "weak-witness", -1, "witness group -1 is out of range: the partition has 4 groups"),
        # groups 1 (sum 4) and 4 (no such group) both fail: the lowest is named
        (5, (0, 1, 2, 3, 4), "weak-witness", 1, "witness group 1 sums to 4, below k = 5"),
    ], ids=["short", "short-for-k", "out-of-range", "negative", "below-k"])
    def test_witness_failures(self, k, witness, reason, group_index, message):
        with pytest.raises(InvalidPartitionError) as exc:
            check_certificate(self.PROFILE, self.certificate(k, witness))
        assert (exc.value.reason, exc.value.group_index, str(exc.value)) == (reason, group_index, message)

    @pytest.mark.parametrize("groups, reason", [
        ([[0], [], [1, 2, 3, 4, 5]], "empty-group"),
        ([[0], [1], [2, 5], [3, 4, 6]], "unknown-id"),
        ([[0], [1], [2, 5], [3, 4, 0]], "duplicate-id"),
        ([[0], [1], [2, 5], [3]], "uncovered-id"),
    ])
    def test_partition_failures_come_first(self, groups, reason):
        with pytest.raises(InvalidPartitionError) as exc:
            check_certificate(self.PROFILE, self.certificate(k=9, witness=(), groups=groups))
        assert exc.value.reason == reason


class TestTextAndJsonFormats:
    def test_text_round_trip(self):
        p = parse_profile_text("5 4 3\n3 3 2")
        assert p.citations == (5, 4, 3, 3, 3, 2)
        assert parse_profile_text(profile_to_text(p)) == p

    def test_empty_text(self):
        assert parse_profile_text("") == P()

    def test_text_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_profile_text("5 four 3")
        with pytest.raises(ParseError):
            parse_profile_text("5 0 3")

    def test_json_ids_are_positions(self):
        p = parse_profile_json('{"citations": [5, 4, 5]}')
        assert p.citations == (5, 4, 5)

    @pytest.mark.parametrize("doc", ["[1, 2]", '{"cites": [1]}', '{"citations": "5"}', "not json"])
    def test_json_rejects_wrong_shapes(self, doc):
        with pytest.raises(ParseError):
            parse_profile_json(doc)


@pytest.mark.parametrize("parse, doc", [(parse_partition_json, "[[%s]]"), (parse_profile_json, '{"citations": [%s]}')],
                         ids=["partition", "profile"])
def test_json_integer_past_the_digit_limit_is_a_parse_error(parse, doc):
    # json's int() refuses it with a plain ValueError, not a JSONDecodeError
    with pytest.raises(ParseError) as exc:
        parse(doc % ("9" * 5000))
    assert str(exc.value) == f"invalid JSON: integer with more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("parse, doc", [(parse_profile_text, "5 %s 3"), (parse_profile_json, '{"citations": ["%s"]}'),
                                        (parse_partition_json, '[["%s"]]')], ids=["text", "profile", "partition"])
def test_a_bad_value_is_echoed_as_a_short_prefix(parse, doc):
    with pytest.raises(ParseError) as exc:
        parse(doc % ("x" * 100_000))
    assert str(exc.value).endswith(" '" + "x" * 39 + "...")


def test_h_index_of_values_ignores_order():
    assert h_index_of_values([2, 9, 1, 4, 4]) == 3
    assert h_index_of_values([]) == 0


# Long inputs with one bad entry at the end: the C-pass fast paths must fall
# back to the ordered scans and report exactly what the scans report.
N = 100_000


@pytest.mark.parametrize("bad", [0, -1, True, 2.0])
def test_profile_names_a_bad_last_entry(bad):
    with pytest.raises(ParseError) as exc:
        Profile.from_citations([3] * (N - 1) + [bad])
    assert str(exc.value) == f"citation count at position {N - 1} must be a positive integer, got {bad!r}"


def test_profile_names_a_count_past_the_digit_limit():
    with pytest.raises(ParseError) as exc:
        Profile((-(10 ** 5000),))
    assert str(exc.value) == ("citation count at position 0 must be a positive integer, "
                              f"got integer with more than {sys.get_int_max_str_digits()} digits")


def test_profile_accepts_int_subclasses():
    class Count(int):
        pass

    profile = Profile.from_citations([Count(3)] * 4 + [5])
    assert h_index(profile) == 3


def test_parse_names_a_bad_last_token():
    with pytest.raises(ParseError) as exc:
        parse_profile_text("5 " * (N - 1) + "x7")
    assert str(exc.value) == "not an integer: 'x7'"
    with pytest.raises(ParseError) as exc:
        parse_profile_text("5 " * (N - 1) + "0")
    assert str(exc.value) == f"citation count at position {N - 1} must be a positive integer, got 0"


def test_parse_names_the_first_bad_token_among_repeats():
    with pytest.raises(ParseError) as exc:
        parse_profile_text("3 x 3 y x")
    assert str(exc.value) == "not an integer: 'x'"


def test_parse_refuses_a_repeated_integer_past_the_digit_limit():
    big = "9" * 5000
    with pytest.raises(ParseError) as exc:
        parse_profile_text(f"1 {big} 2 {big}")
    assert str(exc.value) == f"integer with more than {sys.get_int_max_str_digits()} digits: '{'9' * 39}..."


def _pairs():
    return [[2 * i, 2 * i + 1] for i in range(N // 2)]


def _replace_last(new):
    return _pairs()[:-1] + [[N - 2, new]]


# name -> (groups or a partition built as given, expected reason, or "ok", or the exception type name)
PARTITIONS = {
    "valid": (_pairs(), "ok"),
    "empty-group": (_pairs()[:7] + [[]] + _pairs()[7:], "empty-group"),
    "unknown-id": (_pairs()[:-1] + [[N - 2, N - 1, N]], "unknown-id"),
    "negative-id": (_pairs()[:3] + [[-1]] + _pairs()[3:], "unknown-id"),
    "duplicate-id": (_pairs() + [[5]], "duplicate-id"),
    "duplicate-id-same-size": (_replace_last(0), "duplicate-id"),
    "uncovered-id": (_pairs()[:-1] + [[N - 2]], "uncovered-id"),
    "float-id-in-range": (_replace_last(float(N - 1)), "ok"),
    "float-id-out-of-range": (_replace_last(float(N)), "unknown-id"),
    "nan-id": (_replace_last(float("nan")), "unknown-id"),
    "bool-id": ([[0, True]] + _pairs()[1:], "ok"),
    "string-id": (_replace_last("x"), "TypeError"),
    # built without from_groups: a list's size counts its repeated id, one set object stands twice
    "duplicate-in-largest-list": (MergePartition(([0] + list(range(N - 2)), [N - 2])), "duplicate-id"),
    "repeated-frozenset": (MergePartition((frozenset(range(N // 2)),) * 2), "duplicate-id"),
}


def _outcome(check, profile, partition):
    try:
        check(profile, partition)
    except InvalidPartitionError as exc:
        return exc.reason, exc.group_index, repr(exc.item_id), str(exc)
    except TypeError:
        return "TypeError"
    return "ok"


@pytest.mark.parametrize("name", list(PARTITIONS))
def test_validate_partition_reports_what_the_scan_reports(name):
    groups, expected = PARTITIONS[name]
    profile = Profile.from_citations([1] * N)
    partition = groups if isinstance(groups, MergePartition) else MergePartition.from_groups(groups)
    got = _outcome(validate_partition, profile, partition)
    assert got == _outcome(reference_validate_partition, profile, partition)
    assert (got if isinstance(got, str) else got[0]) == expected
