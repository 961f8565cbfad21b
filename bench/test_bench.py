"""Self-tests of the benchmark: determinism, tracing wrappers, answer checks.

    python3 -m pytest bench

These use small slices of each corpus so they run in well under a minute.
"""

import inspect
import shutil
import subprocess
import sys

import pytest

import checker
import run
import spans as spanlib
import workloads as wl

hm = run.load_program()

# Small slices of each corpus, including a baseline op that runs out of
# budget and one that overflows the stack.
PICK = {
    "improve-bulk": lambda op: op.path == "profile0.txt",
    "maximize-mix": lambda op: op.items <= 40 or "n=100 seed=3" in op.label or op.label.startswith("ones"),
    "crosscheck": lambda op: (op.kind == "oracle" and len(op.citations) == 8) or (op.kind == "3p" and op.m <= 5),
}
COUNTS = (
    "covering.nodes", "covering.cover_bins.calls", "achievability.k_steps", "achievability.partitions",
    "model.canonical_order.calls", "model.validate_partition.calls", "reduction.exact_cover_nodes",
    "achievability.budget_failures", "achievability.recursion_failures", "cli.stdout_bytes",
)


def traced_slice(name, seed, out_dir):
    work = run.Workload(hm, name, seed, out_dir)
    work.set_up()
    work.ops = [op for op in work.ops if PICK[name](op)]
    tracer = spanlib.Tracer()
    records = [work.traced_run(op, tracer) for op in work.ops]
    work.remove_files()
    metrics = spanlib.layer_metrics(tracer.spans, tracer.missing)
    metrics["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in records)
    answers = [(r["op"], r["outcome"], r["value"]) for r in records]
    return answers, {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_repeats_values_outcomes_and_counts(name, tmp_path):
    first = traced_slice(name, 7, tmp_path)
    second = traced_slice(name, 7, tmp_path)
    assert first == second
    answers, counts = first
    assert all(outcome != "wrong" for _, outcome, _ in answers)
    if name == "maximize-mix":
        outcomes = {outcome for _, outcome, _ in answers}
        assert {"ok", "budget", "recursion"} <= outcomes
        assert counts["covering.nodes"] > 0 and counts["achievability.k_steps"] > 0
    if name == "crosscheck":
        assert counts["achievability.partitions"] > 0 and counts["reduction.exact_cover_nodes"] > 0
    if name == "improve-bulk":
        assert counts["model.canonical_order.calls"] == 2  # improve sorts twice; hindex never


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_other_seed_gives_other_corpus(name):
    def inputs(seed):
        return [(op.citations, op.numbers) for op in wl.build_ops(name, seed)]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_baseline_instances_match_the_library_generator():
    for dist, n, seed in wl.MAXIMIZE_BASELINE:
        if dist != "ones":
            assert wl.gen_citations(n, dist, seed) == list(hm.gen_profile(n, dist, seed).citations)


def test_wrappers_keep_signatures_and_results():
    profile = hm.Profile.from_citations([5, 4, 3, 3, 3, 2, 7, 1, 1, 9])
    originals = {name: getattr(hm, name) for name in ("max_achievable", "cover_bins", "improving_partition")}
    expected = (hm.max_achievable(profile), hm.improving_partition(profile), profile.canonical_order())
    tracer = spanlib.Tracer()
    undo = spanlib.install(tracer)
    try:
        for name, original in originals.items():
            assert getattr(hm, name) is not original
            assert inspect.signature(getattr(hm, name)) == inspect.signature(original)
        got = (hm.max_achievable(profile), hm.improving_partition(profile), profile.canonical_order())
    finally:
        spanlib.uninstall(undo)
    assert got == expected
    assert all(getattr(hm, name) is original for name, original in originals.items())
    names = {span[0] for span in tracer.spans}
    assert {"achievability.max_achievable", "achievability._achieve", "covering.cover_bins",
            "model.canonical_order", "improvement.classify"} <= names
    assert tracer.missing == []


def test_missing_function_reads_not_measured(monkeypatch):
    monkeypatch.setattr(spanlib, "TARGETS", spanlib.TARGETS + (("covering", "no_such_function"),))
    tracer = spanlib.Tracer()
    spanlib.uninstall(spanlib.install(tracer))
    assert tracer.missing == ["covering.no_such_function"]
    metrics = spanlib.layer_metrics([], ["achievability._achieve"])
    assert metrics["achievability.k_steps"] is None
    assert metrics["achievability.yes_step_nodes_share"] is None
    assert metrics["covering.nodes"] == 0


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0, {}], ["model.h_index", 1.0, 3.0, 0, 0, {}],
             ["improvement.classify", 4.0, 8.0, 0, 0, {}], ["model.h_index", 5.0, 6.0, 2, 0, {}]]
    metrics = spanlib.layer_metrics(spans, [])
    assert metrics["cli.main.self_s"] == 4.0
    assert metrics["model.h_index.s"] == 3.0


def test_checker_rejects_wrong_answers():
    citations = [5, 4, 3, 3, 3, 2]
    result = hm.max_achievable(hm.Profile.from_citations(citations))
    assert checker.check_max_result(citations, result) == 4
    inflated = hm.MaxResult(value=5, certificate=hm.AchievabilityCertificate(
        result.certificate.partition, 5, result.certificate.witness_group_ids), nodes_explored=0)
    with pytest.raises(checker.WrongAnswer):
        checker.check_max_result(citations, inflated)
    doc = {"h_index": 3, "improvable": True, "achieved": 4,
           "partition": [[0], [1], [2, 5], [3, 4]], "group_sums": [5, 4, 5, 6]}
    assert checker.check_improve_doc(citations, doc) == 4
    for broken in ({"partition": [[0], [1], [2, 5], [3, 3]]}, {"partition": [[0], [1], [2, 5], [3]]},
                   {"achieved": 3}, {"h_index": 4}, {"improvable": False}):
        with pytest.raises(checker.WrongAnswer):
            checker.check_improve_doc(citations, {**doc, **broken})
    with pytest.raises(checker.WrongAnswer):
        checker.check_blocks([4, 5, 4, 4, 4, 5], 2, 13, [(0, 1, 5), (2, 3, 4)])
    checker.check_blocks([4, 5, 4, 4, 4, 5], 2, 13, [(0, 1, 2), (3, 4, 5)])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
