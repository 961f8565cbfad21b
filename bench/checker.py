"""Answer checks that share no code with hmerge.

Each check recomputes what it needs from the raw citation counts with plain
Python (sorting, summing, a seen-array), and never calls hmerge's
`validate_partition`, `partition_value` or `h_index`. A failed check raises
WrongAnswer; the benchmark then records the op as `wrong`.
"""

from __future__ import annotations

from math import isqrt


class WrongAnswer(Exception):
    """The program's answer contradicts an independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def plain_h(values) -> int:
    """h-index by a plain descending sort."""
    ranked = sorted(values, reverse=True)
    h = 0
    while h < len(ranked) and ranked[h] >= h + 1:
        h += 1
    return h


def check_value_range(citations: list[int], value: int) -> int:
    """h <= value <= min(n, isqrt(total)); returns h."""
    h = plain_h(citations)
    upper = min(len(citations), isqrt(sum(citations)))
    require(h <= value <= upper, f"value {value} outside [h={h}, {upper}]")
    return h


def check_partition(citations: list[int], groups, value: int, witness=None) -> list[int]:
    """Every id covered exactly once and at least `value` groups summing to >= value.

    `witness`, when given, names the groups claimed to reach the value; they
    must be distinct, at least `value` many, and each reach it. Returns the
    group sums.
    """
    n = len(citations)
    seen = bytearray(n)
    sums = []
    for gi, group in enumerate(groups):
        require(len(group) > 0, f"group {gi} is empty")
        total = 0
        for item in group:
            require(isinstance(item, int) and 0 <= item < n, f"group {gi} has unknown id {item!r}")
            require(not seen[item], f"id {item} is in two groups")
            seen[item] = 1
            total += citations[item]
        sums.append(total)
    require(seen.count(0) == 0, f"{seen.count(0)} ids are not covered")
    require(sum(1 for s in sums if s >= value) >= value, f"fewer than {value} groups reach {value}")
    if witness is not None:
        witness = list(witness)
        require(len(set(witness)) == len(witness) >= value, f"fewer than {value} witness groups")
        for g in witness:
            require(0 <= g < len(sums) and sums[g] >= value, f"witness group {g} does not reach {value}")
    return sums


def greedy_reaches(citations: list[int], k: int) -> bool:
    """Sufficient test that value k is reachable: items >= k alone, the rest merged in order."""
    bins = sum(1 for c in citations if c >= k)
    acc = 0
    for c in sorted((c for c in citations if c < k), reverse=True):
        acc += c
        if acc >= k:
            bins += 1
            acc = 0
    return bins >= k


def check_hindex_doc(citations: list[int], doc: dict) -> int:
    h = plain_h(citations)
    require(doc.get("h_index") == h, f"h_index {doc.get('h_index')!r} != {h}")
    return h


def check_improve_doc(citations: list[int], doc: dict) -> int:
    """`hmerge improve --format structured` output; returns the value reached."""
    h = check_hindex_doc(citations, doc)
    if not doc.get("improvable"):
        require(not greedy_reaches(citations, h + 1), f"reported not improvable, but {h + 1} is reachable")
        return h
    achieved = doc["achieved"]
    require(isinstance(achieved, int) and achieved > h, f"achieved {achieved!r} is not above h={h}")
    sums = check_partition(citations, doc["partition"], achieved)
    require(doc.get("group_sums") == sums, "reported group sums differ from recomputed ones")
    check_value_range(citations, achieved)
    return achieved


def check_max_result(citations: list[int], result) -> int:
    """A MaxResult: its certificate proves its value, which lies in [h, upper bound]."""
    value = result.value
    certificate = result.certificate
    require(certificate.k == value, f"certificate k={certificate.k} != value {value}")
    check_partition(citations, [sorted(g) for g in certificate.partition.groups], value,
                    certificate.witness_group_ids)
    check_value_range(citations, value)
    return value


def check_oracle_op(citations: list[int], oracle, solver, improving) -> int:
    """Brute force, exact solver and improvement test must agree, each with a valid certificate."""
    value = check_max_result(citations, oracle)
    require(check_max_result(citations, solver) == value, f"solver {solver.value} != oracle {value}")
    h = plain_h(citations)
    require((improving is not None) == (value > h),
            f"improvable={improving is not None} but oracle max {value} vs h={h}")
    if improving is not None:
        require(h < improving.achieved <= value, f"improvement reaches {improving.achieved}, h={h}, max={value}")
        check_partition(citations, [sorted(g) for g in improving.partition.groups], improving.achieved)
    return value


def check_blocks(numbers: list[int], m: int, b: int, blocks) -> None:
    """m disjoint blocks covering all 3m numbers, each summing to exactly b."""
    require(len(blocks) == m, f"{len(blocks)} blocks for m={m}")
    seen = bytearray(len(numbers))
    for block in blocks:
        for i in block:
            require(0 <= i < len(numbers) and not seen[i], f"block index {i} unknown or reused")
            seen[i] = 1
        require(sum(numbers[i] for i in block) == b, f"block {list(block)} does not sum to {b}")
    require(seen.count(0) == 0, "blocks leave numbers uncovered")


def check_3p_op(numbers: list[int], m: int, b: int, report, blocks) -> bool:
    """verify_reduction report plus a direct solve_3partition answer; returns YES/NO."""
    k = b + 3 * m
    reduced = [x + m for x in numbers] + [k] * (b + 2 * m)
    require(list(report.reduced.profile.citations) == reduced, "reduced profile differs from the construction")
    yes = report.yes_3partition
    require(report.agree is True, "verify_reduction reports disagreement")
    require((blocks is not None) == yes, "solve_3partition and verify_reduction differ")
    value = check_max_result(reduced, report.max_result)
    require((value >= k) == yes, f"reduced max {value} vs k={k} contradicts 3-partition answer {yes}")
    if yes:
        check_blocks(numbers, m, b, report.witness_blocks)
        check_blocks(numbers, m, b, blocks)
        certificate = report.constructed_certificate
        check_partition(reduced, [sorted(g) for g in certificate.partition.groups], k,
                        certificate.witness_group_ids)
    return yes
