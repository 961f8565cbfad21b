"""h-index merge manipulation: detection, construction, and exact solving.

Citation profiles are multisets of positive citation counts; merging
articles replaces a group of counts by their sum. The library answers, for
a given profile: can merging raise the h-index at all (polynomial time,
with an explicit witness), can it reach a target k, and what is the exact
maximum (NP-hard in general; solved exactly at desk scale). A verified
3-partition reduction and instance generators support testing the hard
case end to end.
"""

from .achievability import (
    DEFAULT_ORACLE_CAP,
    AchievabilityCertificate,
    MaxResult,
    OracleCapExceededError,
    brute_force_max,
    enumerate_partitions,
    is_achievable,
    iter_small_multisets,
    max_achievable,
)
from .covering import DEFAULT_NODE_BUDGET, NodeBudgetExceededError, cover_bins
from .improvement import Classification, ImprovementWitness, can_improve, classify, improving_partition
from .model import (
    HmergeError,
    InvalidParametersError,
    InvalidPartitionError,
    MergePartition,
    ParseError,
    Profile,
    ValueReport,
    group_sums,
    h_index,
    h_index_of_values,
    parse_partition_json,
    parse_profile_json,
    parse_profile_text,
    partition_to_lists,
    partition_value,
    profile_to_text,
    singleton_partition,
    validate_partition,
)
from .reduction import (
    InfeasibleParametersError,
    MalformedInstanceError,
    OutOfRangeInstanceError,
    ReducedInstance,
    ReductionReport,
    ThreePartitionInstance,
    certificate_from_3partition,
    format_3partition_instance,
    format_reduced_instance,
    gen_3partition_instance,
    gen_profile,
    parse_3partition_file,
    reduce_3partition,
    solve_3partition,
    verify_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityCertificate",
    "Classification",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_ORACLE_CAP",
    "HmergeError",
    "ImprovementWitness",
    "InfeasibleParametersError",
    "InvalidParametersError",
    "InvalidPartitionError",
    "MalformedInstanceError",
    "MaxResult",
    "MergePartition",
    "NodeBudgetExceededError",
    "OracleCapExceededError",
    "OutOfRangeInstanceError",
    "ParseError",
    "Profile",
    "ReducedInstance",
    "ReductionReport",
    "ThreePartitionInstance",
    "ValueReport",
    "brute_force_max",
    "can_improve",
    "certificate_from_3partition",
    "classify",
    "cover_bins",
    "enumerate_partitions",
    "format_3partition_instance",
    "format_reduced_instance",
    "gen_3partition_instance",
    "gen_profile",
    "group_sums",
    "h_index",
    "h_index_of_values",
    "improving_partition",
    "is_achievable",
    "iter_small_multisets",
    "max_achievable",
    "parse_3partition_file",
    "parse_partition_json",
    "parse_profile_json",
    "parse_profile_text",
    "partition_to_lists",
    "partition_value",
    "profile_to_text",
    "reduce_3partition",
    "singleton_partition",
    "solve_3partition",
    "validate_partition",
    "verify_reduction",
]
