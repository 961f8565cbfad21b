"""Command-line front end: hmerge <subcommand>.

Profiles are given inline ("5 4 3 3 3 2"), as a file path, or as "-" for
stdin; both the plain text format and the JSON {"citations": [...]} form
are accepted. --format structured switches every subcommand to a JSON
document mirroring the library's certificate types. --format is on every
subcommand; --seed, --node-budget and --oracle-cap are only on those that
read them (`hmerge <subcommand> --help` lists each one's options).

Exit codes: 0 success, 1 failed check, 2 parse error, 3 infeasible or
oversized instance (including recursion or memory exhaustion), 4 node
budget exceeded, 5 I/O error. Every failure prints one "error:" line. A
reader that closes standard output early (`hmerge gen profile ... | head`)
is not a failure: the command stops silently with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Solvers load inside the subcommands that run them, so that `hindex` and
# `improve` import neither the search nor the reduction.
from .model import (  # the EXIT_* codes are also read from here by callers
    DEFAULT_NODE_BUDGET,
    DEFAULT_ORACLE_CAP,
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    HmergeError,
    InvalidPartitionError,
    ParseError,
    Profile,
    check_certificate,
    h_index,
    parse_profile_json,
    parse_profile_text,
    partition_to_lists,
    profile_to_text,
)


def _read_source(value: str) -> str:
    # undecodable bytes become U+FFFD, which every parser rejects with a ParseError
    if value == "-":
        return sys.stdin.buffer.read().decode("utf-8", errors="replace")
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()
    return value


def _load_profile(value: str) -> Profile:
    text = _read_source(value)
    if text.lstrip().startswith("{"):
        return parse_profile_json(text)
    return parse_profile_text(text)


def _emit(args, human_lines: list[str], structured: dict) -> None:
    """Print the human lines, or the structured document.

    The document has one top-level key per line, each value compact (json's
    C encoder runs only without indent). It is written line by line, so the
    whole text is never held at once.
    """
    if args.format == "structured":
        out = sys.stdout
        out.write("{\n")
        sep = ""
        for key, value in structured.items():
            out.write(f"{sep}  {json.dumps(key)}: ")
            out.write(json.dumps(value, separators=(",", ":")))
            sep = ",\n"
        out.write("\n}\n")
    else:
        for line in human_lines:
            print(line)


def _certificate_doc(profile: Profile, certificate) -> dict:
    """The certificate's fields and group sums; an invalid certificate raises InvalidPartitionError (exit 1)."""
    sums = check_certificate(profile, certificate)
    return {
        "k": certificate.k,
        "partition": partition_to_lists(certificate.partition),
        "witness_groups": sorted(certificate.witness_group_ids),
        "group_sums": list(sums),
    }


def cmd_hindex(args) -> int:
    h = h_index(_load_profile(args.input))
    _emit(args, [str(h)], {"h_index": h})
    return EXIT_OK


def cmd_improve(args) -> int:
    from .improvement import improving_partition

    profile = _load_profile(args.input)
    witness = improving_partition(profile)
    if witness is None:
        _emit(args, ["not improvable"], {"improvable": False, "h_index": h_index(profile)})
        return EXIT_OK
    groups = partition_to_lists(witness.partition)
    h, achieved, sums = witness.h, witness.achieved, list(witness.group_sums)
    del witness  # its frozensets: the sorted lists now hold every id
    _emit(
        args,
        [
            f"improvable: h-index {h} -> {achieved}",
            f"partition (item ids): {groups}",
            f"group sums: {sums}",
        ],
        {
            "improvable": True,
            "h_index": h,
            "achieved": achieved,
            "partition": groups,
            "group_sums": sums,
        },
    )
    return EXIT_OK


def cmd_achieve(args) -> int:
    from .achievability import _achieve

    if args.k < 0:
        raise ParseError("--k must be >= 0")
    profile = _load_profile(args.input)
    start = time.perf_counter()
    certificate, nodes = _achieve(profile, args.k, args.node_budget)
    elapsed = time.perf_counter() - start
    if certificate is None:
        _emit(
            args,
            ["NO", f"nodes explored: {nodes}, wall time: {elapsed:.3f}s"],
            {"achievable": False, "k": args.k, "nodes_explored": nodes, "wall_time_s": elapsed},
        )
        return EXIT_OK
    doc = _certificate_doc(profile, certificate)
    doc.update({"achievable": True, "nodes_explored": nodes, "wall_time_s": elapsed})
    _emit(
        args,
        [
            "YES",
            f"partition (item ids): {doc['partition']}",
            f"witness groups: {doc['witness_groups']}",
            f"group sums: {doc['group_sums']}",
            f"nodes explored: {nodes}, wall time: {elapsed:.3f}s",
        ],
        doc,
    )
    return EXIT_OK


def cmd_maximize(args) -> int:
    from collections import Counter

    from .achievability import max_achievable

    profile = _load_profile(args.input)
    start = time.perf_counter()
    result = max_achievable(profile, node_budget=args.node_budget)
    elapsed = time.perf_counter() - start
    doc = _certificate_doc(profile, result.certificate)
    doc.update({
        "value": result.value,
        "nodes_explored": result.nodes_explored,
        "settled_by": [list(step) for step in result.settled_by],
        "wall_time_s": elapsed,
    })
    settled = Counter(how for _, how in result.settled_by)
    _emit(
        args,
        [
            f"max achievable h-index: {result.value}",
            f"partition (item ids): {doc['partition']}",
            f"witness groups: {doc['witness_groups']}",
            f"group sums: {doc['group_sums']}",
            "k values settled by: " + ", ".join(f"{how} {settled[how]}" for how in ("bound", "greedy", "search")),
            f"nodes explored: {result.nodes_explored}, wall time: {elapsed:.3f}s",
        ],
        doc,
    )
    return EXIT_OK


def cmd_reduce3p(args) -> int:
    from .reduction import format_reduced_instance, parse_3partition_file, reduce_3partition

    instance = parse_3partition_file(_read_source(args.instance))
    reduced = reduce_3partition(instance)
    text = format_reduced_instance(reduced)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    structured = {
        "citations": list(reduced.profile.citations),
        "k": reduced.k,
        "shifted": list(reduced.shifted),
        "padding_count": reduced.padding_count,
        "in_range": instance.in_range,
    }
    if args.output:
        _emit(args, [f"wrote reduced instance to {args.output} (k={reduced.k})"], structured)
    else:
        _emit(args, [text.rstrip("\n")], structured)
    return EXIT_OK


def cmd_verify3p(args) -> int:
    from .reduction import parse_3partition_file, verify_reduction

    instance = parse_3partition_file(_read_source(args.instance))
    report = verify_reduction(instance, oracle_cap=args.oracle_cap, node_budget=args.node_budget)
    answer = "YES" if report.yes_3partition else "NO"
    lines = [
        f"3-partition: {answer}",
        f"max achievable on reduced profile: {report.max_result.value} (target k={report.reduced.k})",
        f"agreement: {'OK' if report.agree else 'MISMATCH'}",
    ]
    structured = {
        "three_partition": report.yes_3partition,
        "max_value": report.max_result.value,
        "k": report.reduced.k,
        "agree": report.agree,
    }
    if report.witness_blocks is not None:
        blocks_by_value = [[instance.numbers[i] for i in block] for block in report.witness_blocks]
        lines.insert(1, f"3-partition blocks (values): {blocks_by_value}")
        structured["witness_blocks"] = [list(block) for block in report.witness_blocks]
        structured["certificate"] = _certificate_doc(report.reduced.profile, report.constructed_certificate)
    _emit(args, lines, structured)
    return EXIT_OK if report.agree else EXIT_CHECK_FAILED


def cmd_oracle_check(args) -> int:
    import random

    from .achievability import OracleCapExceededError, brute_force_max, iter_small_multisets, max_achievable
    from .improvement import can_improve

    if args.count < 0 or args.max_size < 0 or args.max_value < 1:
        raise ParseError("--count and --max-size must be >= 0 and --max-value >= 1")
    if args.max_size > args.oracle_cap:  # refused before any enumeration, not at the first profile that large
        raise OracleCapExceededError(args.max_size, args.oracle_cap)
    rng = random.Random(args.seed)
    if args.count > 0:
        corpus = []
        for _ in range(args.count):
            size = rng.randint(0, args.max_size)
            corpus.append(tuple(rng.randint(1, args.max_value) for _ in range(size)))
    else:
        corpus = list(iter_small_multisets(args.max_size, args.max_value))

    checked = 0
    mismatches = []
    for counts in corpus:
        profile = Profile.from_citations(counts)
        oracle = brute_force_max(profile, oracle_cap=args.oracle_cap)
        result = max_achievable(profile, node_budget=args.node_budget)
        h = h_index(profile)
        problems = []
        if result.value != oracle.value:
            problems.append(f"max {result.value} != oracle {oracle.value}")
        improvable = can_improve(profile)
        if improvable != (oracle.value > h):
            problems.append(f"improvability {improvable} != oracle {oracle.value > h}")
        if result.certificate.k != result.value:
            problems.append(f"certificate k {result.certificate.k} != max {result.value}")
        try:
            check_certificate(profile, result.certificate)
        except InvalidPartitionError as exc:
            problems.append(f"invalid certificate: {exc}")
        checked += 1
        if problems:
            mismatches.append({"citations": list(counts), "problems": problems})

    passed = not mismatches
    mode = f"randomized count={args.count} seed={args.seed}" if args.count > 0 else "exhaustive"
    lines = [
        f"oracle check ({mode}, size <= {args.max_size}, values <= {args.max_value}): "
        f"{checked} instances, {len(mismatches)} disagreements -> {'PASS' if passed else 'FAIL'}"
    ]
    for bad in mismatches[:10]:
        lines.append(f"  disagreement on {bad['citations']}: {'; '.join(bad['problems'])}")
    _emit(args, lines, {
        "mode": mode,
        "checked": checked,
        "disagreements": mismatches,
        "pass": passed,
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_gen_profile(args) -> int:
    from .reduction import gen_profile

    profile = gen_profile(args.n, args.dist, args.seed)
    _emit(args, [profile_to_text(profile)], {"citations": list(profile.citations)})
    return EXIT_OK


def cmd_gen_3p(args) -> int:
    from .reduction import format_3partition_instance, gen_3partition_instance

    instance = gen_3partition_instance(args.m, args.b, args.seed)
    _emit(
        args,
        [format_3partition_instance(instance).rstrip("\n")],
        {"m": instance.m, "b": instance.b, "numbers": list(instance.numbers), "in_range": instance.in_range},
    )
    return EXIT_OK


# options that several subcommands read; each subcommand names those it takes
_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=0, help="seed for randomized commands (default 0)"),
    "--node-budget": dict(type=int, default=DEFAULT_NODE_BUDGET,
                          help="max search states before giving up with an error"),
    "--oracle-cap": dict(type=int, default=DEFAULT_ORACLE_CAP,
                         help="max instance size for exhaustive enumeration"),
}


def _add_command(subparsers, name: str, func, summary: str, *options: str) -> argparse.ArgumentParser:
    p = subparsers.add_parser(name, help=summary)
    p.add_argument("--format", choices=("human", "structured"), default="human",
                   help="output style; structured is stable JSON, human is for reading")
    for option in options:
        p.add_argument(option, **_SHARED_OPTIONS[option])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmerge", description="h-index merge manipulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "hindex", cmd_hindex, "h-index of a profile")
    p.add_argument("input", help="profile: inline counts, file path, or - for stdin")

    p = _add_command(sub, "improve", cmd_improve, "find a merge that beats the h-index, if any")
    p.add_argument("input")

    p = _add_command(sub, "achieve", cmd_achieve, "decide whether value k is reachable by merging", "--node-budget")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True, help="target value")

    p = _add_command(sub, "maximize", cmd_maximize, "exact maximum value over all merges", "--node-budget")
    p.add_argument("input")

    p = _add_command(sub, "reduce3p", cmd_reduce3p, "map a 3-partition instance file to a profile and k")
    p.add_argument("instance", help="instance file: 'm b' line then 3m numbers")
    p.add_argument("--output", help="write the reduced instance here instead of stdout")

    p = _add_command(sub, "verify3p", cmd_verify3p, "solve both sides of the reduction and report agreement",
                     "--node-budget", "--oracle-cap")
    p.add_argument("instance")

    p = _add_command(sub, "oracle-check", cmd_oracle_check,
                     "cross-check the solver against brute force on small profiles",
                     "--seed", "--node-budget", "--oracle-cap")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--max-value", type=int, default=6)
    p.add_argument("--count", type=int, default=0,
                   help="number of random profiles; 0 checks every multiset up to the caps")

    gensub = sub.add_parser("gen", help="generate test inputs").add_subparsers(dest="kind", required=True)
    p = _add_command(gensub, "profile", cmd_gen_profile, "random citation profile", "--seed")
    p.add_argument("-n", type=int, required=True, help="number of items")
    p.add_argument("--dist", default="uniform:1:100", help="uniform:LO:HI or zipf:S:MAX")
    p = _add_command(gensub, "3p", cmd_gen_3p, "random in-range 3-partition instance", "--seed")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-b", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if min(getattr(args, "node_budget", 0), getattr(args, "oracle_cap", 0)) < 0:  # not every subcommand has them
            raise ParseError("--node-budget and --oracle-cap must be >= 0")
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except HmergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (RecursionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: instance too large", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
