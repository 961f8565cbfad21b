"""3-partition instances, the achievability mapping, and generators."""

import pytest
from helpers import reference_3partition

from hmerge import (
    InfeasibleParametersError,
    InvalidParametersError,
    MalformedInstanceError,
    OracleCapExceededError,
    OutOfRangeInstanceError,
    ParseError,
    ThreePartitionInstance,
    certificate_from_3partition,
    check_certificate,
    format_3partition_instance,
    format_reduced_instance,
    gen_3partition_instance,
    gen_profile,
    parse_3partition_file,
    parse_profile_text,
    reduce_3partition,
    solve_3partition,
    verify_reduction,
)


class TestInstanceInvariants:
    def test_wrong_count(self):
        with pytest.raises(MalformedInstanceError):
            ThreePartitionInstance((10,), 1, 10)

    def test_wrong_sum(self):
        with pytest.raises(MalformedInstanceError):
            ThreePartitionInstance((3, 3, 3), 1, 10)

    def test_nonpositive_number(self):
        with pytest.raises(MalformedInstanceError):
            ThreePartitionInstance((0, 5, 5), 1, 10)

    def test_in_range_flag(self):
        assert ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10).in_range
        assert not ThreePartitionInstance((1, 1, 1, 1, 1, 7), 2, 6).in_range
        # boundary values are excluded: b/2 = 5 and b/4 = 2.5 for b = 10
        assert not ThreePartitionInstance((5, 3, 3, 3, 3, 3), 2, 10).in_range


class TestReduceMapping:
    def test_two_block_instance(self):
        reduced = reduce_3partition(ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10))
        assert reduced.shifted == (5, 5, 6, 5, 5, 6)
        assert reduced.k == 16
        assert reduced.padding_count == 14
        assert reduced.profile.citations == reduced.shifted + (16,) * 14

    def test_single_block_instance(self):
        reduced = reduce_3partition(ThreePartitionInstance((3, 3, 4), 1, 10))
        assert reduced.shifted == (4, 4, 5)
        assert reduced.k == 13
        assert reduced.padding_count == 12

    def test_mapping_is_total_for_out_of_range_instances(self):
        instance = ThreePartitionInstance((1, 1, 1, 1, 1, 7), 2, 6)
        reduced = reduce_3partition(instance)
        assert reduced.shifted == (3, 3, 3, 3, 3, 9)
        assert reduced.k == 12
        assert reduced.padding_count == 10
        assert not instance.in_range

    def test_shift_arithmetic(self):
        for m, b, seed in [(2, 10, 0), (3, 11, 1), (2, 19, 4)]:
            instance = gen_3partition_instance(m, b, seed)
            reduced = reduce_3partition(instance)
            assert sum(reduced.shifted) == m * reduced.k
            assert len(reduced.profile) == 3 * m + b + 2 * m


class TestSolve3Partition:
    def test_solvable(self):
        instance = ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10)
        blocks = solve_3partition(instance)
        assert blocks is not None
        assert len(blocks) == 2
        assert sorted(sorted(instance.numbers[i] for i in block) for block in blocks) == [[3, 3, 4], [3, 3, 4]]

    def test_oversized_number_makes_it_unsolvable(self):
        assert solve_3partition(ThreePartitionInstance((1, 1, 1, 1, 1, 7), 2, 6)) is None
        assert solve_3partition(ThreePartitionInstance((15, 1, 1, 1, 1, 1), 2, 10)) is None

    def test_cardinality_unconstrained_without_range(self):
        # out-of-range values force block sizes other than three: 1+5, 2+4, 1+1+1+1+2
        instance = ThreePartitionInstance((1, 5, 2, 4, 1, 1, 1, 1, 2), 3, 6)
        blocks = solve_3partition(instance)
        assert blocks is not None
        assert all(sum(instance.numbers[i] for i in block) == 6 for block in blocks)
        assert sorted(len(block) for block in blocks) != [3, 3, 3]

    def test_matches_an_independent_triple_search(self):
        # in-range instances at m 3-12, b 13-40: the same answer as a search
        # that shares no code with the solver, blocks that split the numbers,
        # and the reduction's two sides in agreement
        answers = []
        for i in range(1000):
            m, b = 3 + i % 10, 13 + 11 * i % 28
            instance = gen_3partition_instance(m, b, seed=i)
            blocks = solve_3partition(instance, oracle_cap=3 * m)
            yes = reference_3partition(instance.numbers, b)
            assert (blocks is not None) == yes, instance
            if yes:
                assert sorted(p for block in blocks for p in block) == list(range(3 * m))
                assert all(sum(instance.numbers[i] for i in block) == b for block in blocks)
            assert verify_reduction(instance, oracle_cap=3 * m).agree
            answers.append(yes)
        assert 200 <= sum(answers) <= 800, sum(answers)  # both answers well represented

    def test_desk_scale_cap(self):
        instance = gen_3partition_instance(4, 10, 0)
        with pytest.raises(OracleCapExceededError):
            solve_3partition(instance)
        assert solve_3partition(instance, oracle_cap=12) is not None

    def test_negative_oracle_cap_is_an_hmerge_error(self):
        instance = gen_3partition_instance(4, 10, 0)
        for solve in (solve_3partition, verify_reduction):
            with pytest.raises(InvalidParametersError, match="oracle_cap must be >= 0"):
                solve(instance, oracle_cap=-1)


class TestVerifyReduction:
    def test_yes_instance_agrees(self):
        report = verify_reduction(ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10))
        assert report.yes_3partition and report.agree
        assert report.max_result.value == 16
        sums = check_certificate(report.reduced.profile, report.constructed_certificate)
        assert set(sums) == {16} and len(sums) == 16

    def test_no_instance_agrees(self):
        # only multiset over {4,5,6} with sum 26 containing no 13-sum submultiset
        instance = ThreePartitionInstance((4, 4, 4, 4, 4, 6), 2, 13)
        report = verify_reduction(instance)
        assert not report.yes_3partition
        assert report.agree
        assert report.max_result.value < report.reduced.k
        assert report.witness_blocks is None and report.constructed_certificate is None

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeInstanceError):
            verify_reduction(ThreePartitionInstance((1, 1, 1, 1, 1, 7), 2, 6))

    def test_in_range_witness_blocks_have_three_elements(self):
        for seed in range(6):
            instance = gen_3partition_instance(3, 13, seed)
            blocks = solve_3partition(instance)
            if blocks is not None:
                assert all(len(block) == 3 for block in blocks)


class TestCertificateFrom3Partition:
    def test_padding_singletons_plus_blocks(self):
        instance = ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10)
        reduced = reduce_3partition(instance)
        blocks = solve_3partition(instance)
        certificate = certificate_from_3partition(reduced, blocks)
        assert len(certificate.partition.groups) == reduced.k
        assert len(certificate.witness_group_ids) == reduced.k
        check_certificate(reduced.profile, certificate)
        singles = [g for g in certificate.partition.groups if len(g) == 1]
        assert len(singles) == reduced.padding_count


class TestGen3Partition:
    def test_two_value_window(self):
        instance = gen_3partition_instance(2, 10, seed=42)
        assert set(instance.numbers) <= {3, 4}
        assert sum(instance.numbers) == 20
        assert instance.in_range

    def test_unique_multiset_for_m1_b10(self):
        assert sorted(gen_3partition_instance(1, 10, seed=9).numbers) == [3, 3, 4]

    def test_single_value_window(self):
        assert gen_3partition_instance(2, 6, seed=0).numbers == (2,) * 6

    def test_infeasible_window(self):
        # only integer strictly between 2 and 4 is 3, and 9m != 8m
        with pytest.raises(InfeasibleParametersError):
            gen_3partition_instance(2, 8, seed=0)

    def test_deterministic_per_seed(self):
        a = gen_3partition_instance(3, 17, seed=5)
        b = gen_3partition_instance(3, 17, seed=5)
        assert a == b
        assert gen_3partition_instance(3, 17, seed=6) != a

    @pytest.mark.parametrize("m,b", [(2, 7), (2, 13), (3, 10), (3, 19), (2, 20)])
    def test_always_in_range(self, m, b):
        for seed in range(5):
            instance = gen_3partition_instance(m, b, seed)
            assert instance.in_range
            assert sum(instance.numbers) == m * b

    def test_large_m_is_one_draw_and_a_repair(self):
        for seed in range(3):
            instance = gen_3partition_instance(1000, 1000, seed)
            assert len(instance.numbers) == 3000 and instance.in_range
            assert sum(instance.numbers) == 1000 * 1000

    def test_sum_repair_does_not_step_through_b(self):
        # at this b the repair moves the sum by up to b/4 a step; one unit per step would never end
        b = 10**12
        for seed in range(3):
            instance = gen_3partition_instance(2, b, seed)
            assert instance.in_range
            assert sum(instance.numbers) == 2 * b


class TestGenProfile:
    def test_uniform_window(self):
        profile = gen_profile(6, "uniform:1:5", seed=1)
        assert len(profile) == 6
        assert all(1 <= c <= 5 for c in profile.citations)

    def test_empty(self):
        assert len(gen_profile(0, "uniform:1:5", seed=1)) == 0

    def test_deterministic_per_seed(self):
        assert gen_profile(8, "zipf:1.5:40", seed=3) == gen_profile(8, "zipf:1.5:40", seed=3)

    def test_zipf_support(self):
        profile = gen_profile(50, "zipf:2.0:6", seed=0)
        assert all(1 <= c <= 6 for c in profile.citations)

    @pytest.mark.parametrize("dist", ["uniform:0:5", "uniform:5:1", "zipf:2:0", "normal:1:5", "uniform:1", "uniform:a:b",
                                      "zipf:nan:5", "zipf:inf:5"])
    def test_bad_parameters(self, dist):
        with pytest.raises(InvalidParametersError):
            gen_profile(4, dist, seed=0)

    def test_negative_size(self):
        with pytest.raises(InvalidParametersError):
            gen_profile(-1, "uniform:1:5", seed=0)


class TestFileFormats:
    def test_instance_round_trip(self):
        instance = ThreePartitionInstance((3, 3, 4, 3, 3, 4), 2, 10)
        assert parse_3partition_file(format_3partition_instance(instance)) == instance

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_3partition_file("2 ten\n3 3 4 3 3 4")
        with pytest.raises(ParseError):
            parse_3partition_file("")

    def test_parse_error_names_only_the_first_bad_token(self):
        text = "2 10\n" + "3 " * 100_000 + "x7 4 y8\n"
        with pytest.raises(ParseError) as exc:
            parse_3partition_file(text)
        assert str(exc.value) == "not an integer: 'x7'"

    def test_parse_length_mismatch_is_malformed(self):
        with pytest.raises(MalformedInstanceError):
            parse_3partition_file("2 10\n3 3 4")

    def test_reduced_format_has_sidecar_line(self):
        reduced = reduce_3partition(ThreePartitionInstance((3, 3, 4), 1, 10))
        text = format_reduced_instance(reduced)
        profile_line, sidecar = text.strip().split("\n")
        assert parse_profile_text(profile_line) == reduced.profile
        assert sidecar == "k=13"
