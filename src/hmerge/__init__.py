"""h-index merge manipulation: detection, construction, and exact solving.

Citation profiles are multisets of positive citation counts; merging
articles replaces a group of counts by their sum. The library answers, for
a given profile: can merging raise the h-index at all (polynomial time,
with an explicit witness), can it reach a target k, and what is the exact
maximum (NP-hard in general; solved exactly at desk scale). A verified
3-partition reduction and instance generators support testing the hard
case end to end.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it. A module loads when one of its names is first read,
# and the name is then bound here, as an import at the top would have bound it; so a name first
# read while its module's attribute is patched keeps the patched value.
_SOURCES = {
    name: module
    for module, names in {
        "achievability": (
            "MaxResult", "OracleCapExceededError", "brute_force_max", "enumerate_partitions", "is_achievable",
            "iter_small_multisets", "max_achievable",
        ),
        "covering": ("NodeBudgetExceededError", "cover_bins"),
        "improvement": ("Classification", "ImprovementWitness", "can_improve", "classify", "improving_partition"),
        "model": (
            "AchievabilityCertificate", "DEFAULT_NODE_BUDGET", "DEFAULT_ORACLE_CAP", "HmergeError",
            "InvalidParametersError", "InvalidPartitionError", "MergePartition", "ParseError", "Profile",
            "check_certificate", "group_sums", "h_index", "h_index_of_values", "parse_partition_json",
            "parse_profile_json", "parse_profile_text", "partition_to_lists", "partition_value", "profile_to_text",
            "validate_partition",
        ),
        "reduction": (
            "InfeasibleParametersError", "MalformedInstanceError", "OutOfRangeInstanceError", "ReducedInstance",
            "ReductionReport", "ThreePartitionInstance", "certificate_from_3partition",
            "format_3partition_instance", "format_reduced_instance", "gen_3partition_instance", "gen_profile",
            "parse_3partition_file", "reduce_3partition", "solve_3partition", "verify_reduction",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it here and skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
