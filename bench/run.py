"""hmerge benchmark: seeded workloads, independent answer checks, metrics.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy, and the run stops with exit code 2
if that source tree is missing.

Workloads (corpus recipes in workloads.py), each a closed loop with one
client that runs one op at a time:

- improve-bulk: `hmerge improve|hindex --format structured FILE` as a
  subprocess on profiles of 1e5 to 1e6 items; exercises model, improvement
  and cli.
- maximize-mix: in-process `max_achievable` with a fixed node budget over
  desk-scale profiles plus the solver's known budget/recursion failures;
  exercises covering and achievability.
- crosscheck: oracle ops (brute force vs. solver vs. improvement test on
  n = 8..10) and 3-partition ops (`verify_reduction` and
  `solve_3partition`); the only workload running the enumeration oracle
  and exact-sum covering.

The process is pinned to one core, and times are reported in reference
seconds (see `Gauge`); run.json keeps the wall-clock figures beside them.
A run sets up three times (generate the corpus, write or build the
inputs, warm up on the smallest op of each kind) and reports the median
as `setup_s`. It then runs at least three whole passes over the corpus,
and more while the op time stays below --seconds by more than half a
pass. An op's latency is the median of its runs; `ok_share` counts every
run. Every answer is checked by checker.py; a wrong answer makes the run
exit 1.

--trace 1 instead runs exactly one pass in which every op runs twice, once
with layer spans (spans.py) and once without, and reports the per-layer
metrics and the tracing overhead (traced minus untraced op time); its
counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `failed` counts ops that
ended `wrong` or `error`; ops that end `budget` or `recursion` are known,
expected give-ups of the solver and count against `ok_share` instead.
Per-op records, spans and the run record go to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import checker
import spans as spanlib
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
MIN_PASSES = 3
STARTUP_REPEATS = 5
OUTCOMES = ("ok", "budget", "recursion", "error", "wrong")
EXIT_BUDGET = 4  # hmerge's exit code for an exhausted node budget
PROBE_NOMINAL_S = 0.001
PROBE_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "items_per_s": "1/s", "op_p50_s": "s",
    "op_tail_s": "s", "ok_share": "share", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "model.parse_profile_text.s": "s", "model.h_index.s": "s",
    "model.validate_partition.calls": "count", "model.validate_partition.s": "s",
    "model.canonical_order.calls": "count", "model.canonical_order.s": "s", "model.peak_mb": "MB",
    "improvement.classify.s": "s", "improvement.improving_partition.s": "s", "improvement.peak_mb": "MB",
    "cli.startup_s": "s", "cli.main.self_s": "s", "cli.stdout_bytes": "bytes",
    "covering.cover_bins.calls": "count", "covering.cover_bins.s": "s", "covering.nodes": "count",
    "covering.nodes_per_s": "1/s", "covering.yes_share": "share",
    "achievability.max_achievable.s": "s", "achievability.k_steps": "count",
    "achievability.yes_step_nodes_share": "share", "achievability.budget_failures": "count",
    "achievability.recursion_failures": "count", "achievability.brute_force_max.s": "s",
    "achievability.partitions": "count", "achievability.partitions_per_s": "1/s",
    "reduction.verify_reduction.s": "s", "reduction.solve_3partition.s": "s",
    "reduction.exact_cover_nodes": "count", "reduction.agree_share": "share",
    "trace.overhead_s": "s", "trace.overhead_share": "share",
}


def probe() -> float:
    """Wall seconds of a fixed pure-Python task of about 1 ms."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for v in sorted((i * 7919) % 1009 for i in range(3000)):
        counts[v] = counts.get(v, 0) + 1
    return time.perf_counter() - start


class Gauge:
    """The machine's momentary speed, from a probe taken after every op.

    On a shared machine a core can run half again slower for seconds at a
    time, and the slowdown hits all interpreter-bound work alike. An
    interval's wall time times PROBE_NOMINAL_S / (probe time at its edges:
    the mean of the median probe in the PROBE_WINDOW_S before it and the one
    in the PROBE_WINDOW_S after it) is what it takes on a machine whose
    probe takes PROBE_NOMINAL_S: its time in reference seconds.
    """

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def mark(self) -> float:
        """Take a probe; returns the clock reading after it."""
        duration = probe()
        now = time.perf_counter()
        self.times.append(now)
        self.probes.append(duration)
        return now

    def edge(self, lo_time: float, hi_time: float, before: bool) -> float:
        """Median probe time in [lo_time, hi_time], else the nearest probe on that side."""
        lo = bisect.bisect_left(self.times, lo_time)
        hi = bisect.bisect_right(self.times, hi_time)
        if lo < hi:
            return statistics.median(self.probes[lo:hi])
        return self.probes[max(hi - 1, 0)] if before else self.probes[min(lo, len(self.probes) - 1)]

    def reference(self, wall: float, start: float, end: float) -> tuple[float, float]:
        """(reference seconds, probe seconds) for an interval of the run."""
        speed = (self.edge(start - PROBE_WINDOW_S, start, True) + self.edge(end, end + PROBE_WINDOW_S, False)) / 2
        return wall * PROBE_NOMINAL_S / speed, speed


def load_program():
    """Import hmerge from this checkout's src/ or stop with exit code 2."""
    if not (SRC / "hmerge" / "__init__.py").is_file():
        print(f"error: no hmerge source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hmerge

    if SRC.resolve() not in Path(hmerge.__file__).resolve().parents:
        print(f"error: hmerge was imported from {hmerge.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return hmerge


def read_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Workload:
    """Inputs of one workload and the runner for its ops."""

    def __init__(self, hm, name: str, seed: int, out_dir: Path):
        self.hm, self.name, self.seed, self.out_dir = hm, name, seed, out_dir
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.ops: list[wl.Op] = []
        self.inputs: dict[int, object] = {}
        self.gauge = Gauge()

    # --- set-up --------------------------------------------------------------

    def set_up(self) -> tuple[float, float, float]:
        """Generate the corpus, prepare the inputs and warm up.

        Returns the wall seconds taken and the clock at start and end.
        """
        start = self.gauge.mark()
        self.ops = wl.build_ops(self.name, self.seed)
        hm = self.hm
        for op in self.ops:
            if op.path:
                (self.out_dir / op.path).write_text(" ".join(map(str, op.citations)))
            elif op.kind == "3p":
                self.inputs[op.id] = hm.ThreePartitionInstance(numbers=tuple(op.numbers), m=op.m, b=op.b)
            else:
                self.inputs[op.id] = hm.Profile.from_citations(op.citations)
        smallest: dict[str, wl.Op] = {}
        for op in self.ops:
            if op.kind not in smallest or op.items < smallest[op.kind].items:
                smallest[op.kind] = op
        for op in smallest.values():
            self.run(op)
        end = time.perf_counter()
        self.gauge.mark()
        return end - start, start, end

    def remove_files(self) -> None:
        for op in self.ops:
            if op.path:
                (self.out_dir / op.path).unlink(missing_ok=True)

    # --- ops -----------------------------------------------------------------

    def run(self, op: wl.Op, spans_file: Path | None = None) -> dict:
        """Run one op, check its answer, and return its record.

        `wall_s` is the op's wall time and `start` the clock when it began;
        `latency_s`, its time in reference seconds, is set by `finish`.
        """
        gc.collect()
        record = self._run_cli(op, spans_file) if op.path else self._run_inprocess(op)
        self.gauge.mark()
        return record

    def finish(self, records: list[dict]) -> None:
        """Convert every record's wall time to reference seconds."""
        for r in records:
            r["latency_s"], r["probe_s"] = self.gauge.reference(r["wall_s"], r["start"], r["start"] + r["wall_s"])

    def _run_inprocess(self, op: wl.Op) -> dict:
        hm, inp = self.hm, self.inputs[op.id]
        outcome, detail, result = "ok", "", None
        start = time.perf_counter()
        try:
            if op.kind == "maximize":
                result = hm.max_achievable(inp, node_budget=wl.MAXIMIZE_NODE_BUDGET)
            elif op.kind == "oracle":
                result = (hm.brute_force_max(inp),
                          hm.max_achievable(inp, node_budget=wl.CROSSCHECK_NODE_BUDGET),
                          hm.improving_partition(inp))
            else:
                result = (hm.verify_reduction(inp, oracle_cap=wl.ORACLE_CAP_OFF,
                                              node_budget=wl.CROSSCHECK_NODE_BUDGET),
                          hm.solve_3partition(inp, oracle_cap=wl.ORACLE_CAP_OFF,
                                              node_budget=wl.CROSSCHECK_NODE_BUDGET))
        except hm.NodeBudgetExceededError as exc:
            outcome, detail = "budget", str(exc)
        except RecursionError:
            outcome = "recursion"
        except Exception as exc:  # any other failure is recorded as the op's outcome
            outcome, detail = "error", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        value = None
        if outcome == "ok":
            try:
                if op.kind == "maximize":
                    value = checker.check_max_result(op.citations, result)
                elif op.kind == "oracle":
                    value = checker.check_oracle_op(op.citations, *result)
                else:
                    value = checker.check_3p_op(op.numbers, op.m, op.b, *result)
            except (checker.WrongAnswer, AttributeError, TypeError, KeyError) as exc:
                outcome, detail = "wrong", f"{type(exc).__name__}: {exc}"
        return {"op": op.id, "kind": op.kind, "label": op.label, "items": op.items,
                "start": start, "wall_s": latency, "outcome": outcome, "value": value, "detail": detail}

    def _run_cli(self, op: wl.Op, spans_file: Path | None) -> dict:
        argv = [op.kind, "--format", "structured", str(self.out_dir / op.path)]
        if spans_file is None:
            cmd = [sys.executable, "-m", "hmerge.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), str(op.id), "--", *argv]
        err_path = self.out_dir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                latency = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        code = proc.returncode
        outcome, detail, value = "ok", "", None
        if code == EXIT_BUDGET:
            outcome = "budget"
        elif code != 0:
            stderr = err_path.read_text(errors="replace").strip()
            outcome = "recursion" if "RecursionError" in stderr else "error"
            detail = f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}"
        else:
            try:
                doc = json.loads(out)
                if op.kind == "improve":
                    value = checker.check_improve_doc(op.citations, doc)
                else:
                    value = checker.check_hindex_doc(op.citations, doc)
            except (checker.WrongAnswer, ValueError, KeyError, TypeError) as exc:
                outcome, detail = "wrong", f"{type(exc).__name__}: {exc}"
        return {"op": op.id, "kind": op.kind, "label": op.label, "items": op.items,
                "start": start, "wall_s": latency, "outcome": outcome, "value": value, "detail": detail,
                "rss_mb": usage.ru_maxrss / 1024, "stdout_bytes": len(out)}

    def one_pass(self) -> list[dict]:
        """Every op once, in corpus order."""
        return [self.run(op) for op in self.ops]

    def traced_run(self, op: wl.Op, tracer: spanlib.Tracer) -> dict:
        """Run one op with spans recorded into `tracer`."""
        if not op.path:
            tracer.op = op.id
            undo = spanlib.install(tracer)
            try:
                return self.run(op)
            finally:
                spanlib.uninstall(undo)
        spans_file = self.out_dir / f"spans-op{op.id}.json"
        record = self.run(op, spans_file)
        with open(spans_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans_file.unlink()
        offset = len(tracer.spans)
        for span in doc["spans"]:
            if span[3] >= 0:
                span[3] += offset
            tracer.spans.append(span)
        tracer.missing = sorted(set(tracer.missing) | set(doc["missing"]))
        return record

    def paired_pass(self, tracer: spanlib.Tracer) -> tuple[list[dict], list[dict]]:
        """Every op once traced and once untraced, back to back.

        The order alternates from op to op, so that running second (warmer)
        favours neither side of the tracing-overhead difference.
        """
        traced, plain = [], []
        for op in self.ops:
            if op.id % 2:
                plain.append(self.run(op))
                traced.append(self.traced_run(op, tracer))
            else:
                traced.append(self.traced_run(op, tracer))
                plain.append(self.run(op))
        return traced, plain

    # --- per-layer probes ----------------------------------------------------

    def cli_startup(self) -> float:
        """Median wall time of a one-item `hindex` subprocess."""
        times = []
        for _ in range(STARTUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "hmerge.cli", "hindex", "1"], env=self.env, cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def peak_mb(self, with_improvement: bool) -> tuple[float, float]:
        """tracemalloc peaks of the model calls and of improving_partition on the largest profile."""
        hm = self.hm
        op = max(self.ops, key=lambda o: o.items)
        citations = op.citations or [x + op.m for x in op.numbers] + [op.b + 3 * op.m] * (op.b + 2 * op.m)
        text = " ".join(map(str, citations))
        profile = hm.Profile.from_citations(citations)
        singletons = hm.MergePartition.from_groups([i] for i in range(len(citations)))

        def peak(call):
            gc.collect()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        model_calls = [
            lambda: hm.parse_profile_text(text),
            lambda: hm.h_index(profile),
            lambda: profile.canonical_order(),
            lambda: hm.validate_partition(profile, singletons),
        ]
        model = max(peak(call) for call in model_calls)
        improvement = peak(lambda: hm.improving_partition(profile)) if with_improvement else 0.0
        return model, improvement


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples above it.

    Returns (value, percentile, samples beyond); with 10 samples or fewer it
    falls back to the maximum, with fewer than 10 beyond.
    """
    ranked = sorted(latencies)
    index = len(ranked) - 11 if len(ranked) > 10 else len(ranked) - 1
    return ranked[index], 100.0 * (index + 1) / len(ranked), len(ranked) - index - 1


def end_to_end(work: Workload, setups: list[float], records: list[dict], key: str) -> tuple[dict, dict]:
    """End-to-end metrics from the `key` time of each record.

    An op's latency is the median over its runs in the passes, which drops a
    run disturbed by the machine without favouring runs that got lucky.
    """
    runs: dict[int, list[dict]] = {}
    for r in records:
        runs.setdefault(r["op"], []).append(r)
    latencies = [statistics.median(r[key] for r in rs) for rs in runs.values()]
    busy = sum(latencies)
    done = [rs[0] for rs in runs.values() if all(r["outcome"] == "ok" for r in rs)]
    tail_value, tail_pct, beyond = tail(latencies)
    if any(op.path for op in work.ops):
        rss = max(r["rss_mb"] for r in records)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(done) / busy,
        "items_per_s": sum(r["items"] for r in done) / busy,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ok_share": sum(r["outcome"] == "ok" for r in records) / len(records),
        "peak_rss_mb": rss,
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {len(latencies)} ops, {beyond} beyond",
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "largest CLI child" if any(op.path for op in work.ops) else "benchmark process"}
    return metrics, notes


def per_layer(work: Workload, tracer: spanlib.Tracer, traced: list[dict], plain: list[dict]) -> dict:
    metrics = spanlib.layer_metrics(tracer.spans, tracer.missing)
    uses_cli = any(op.path for op in work.ops)
    uses_improvement = any(s[0] == "improvement.improving_partition" for s in tracer.spans)
    metrics["model.peak_mb"], metrics["improvement.peak_mb"] = work.peak_mb(uses_improvement)
    metrics["cli.startup_s"] = work.cli_startup() if uses_cli else 0.0
    metrics["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in traced)
    traced_s = sum(r["latency_s"] for r in traced)
    plain_s = sum(r["latency_s"] for r in plain)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hm = load_program()
    # One core for the whole run, CLI children included, so that the probe
    # gauges the core the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    work = Workload(hm, args.workload, args.seed, out_dir)
    try:
        setups = [work.set_up() for _ in range(1 if args.trace else SETUP_REPEATS)]
        setup_ref = [work.gauge.reference(*setup)[0] for setup in setups]
        gc.freeze()  # the corpus stays alive all run: keep it out of the per-op collections
        wall_metrics = None
        if args.trace:
            tracer = spanlib.Tracer()
            traced, plain = work.paired_pass(tracer)
            records = traced + plain
            work.finish(records)
            passes = 1
            tracer.dump(out_dir / "spans.json")
            metrics = per_layer(work, tracer, traced, plain)
            units, notes = PER_LAYER_UNITS, {name: "not measured" for name, v in metrics.items() if v is None}
        else:
            records, passes, measured = [], 0, 0.0
            while True:
                records += work.one_pass()
                passes += 1
                measured = sum(r["wall_s"] for r in records)
                if passes >= MIN_PASSES and measured + measured / passes / 2 >= args.seconds:
                    break
            work.finish(records)
            metrics, notes = end_to_end(work, setup_ref, records, "latency_s")
            wall_metrics, _ = end_to_end(work, [wall for wall, _, _ in setups], records, "wall_s")
            units = END_TO_END_UNITS
    finally:
        work.remove_files()

    counts = Counter(r["outcome"] for r in records)
    with open(out_dir / "ops.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": wl.LOOP, "recipe": wl.recipe(args.workload), "ops_per_pass": len(work.ops),
        "passes": passes, "outcomes": {o: counts.get(o, 0) for o in OUTCOMES},
        "failed_share": 1 - counts.get("ok", 0) / len(records),
        "nproc": os.cpu_count(), "python": platform.python_version(), "commit": read_commit(),
        "metrics": metrics, "wall_metrics": wall_metrics, "notes": notes,
    }
    with open(out_dir / "probes.json", "w", encoding="utf-8") as fh:
        json.dump({"times": work.gauge.times, "probes": work.gauge.probes}, fh)
    with open(out_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(work.ops)} ops per pass x {passes}, {wl.LOOP}; "
          f"nproc {run_record['nproc']}, Python {run_record['python']}, commit {run_record['commit'][:12]}")
    print("outcomes: " + ", ".join(f"{o} {counts.get(o, 0)}" for o in OUTCOMES)
          + f" (failed_share {run_record['failed_share']:.4f})")
    for record in records:
        if record["outcome"] in ("wrong", "error"):
            print(f"  {record['outcome']}: op {record['op']} {record['label']}: {record['detail']}")
    for name, value in metrics.items():
        shown = "not measured" if value is None else f"{value:.6g} {units[name]}"
        if wall_metrics and units[name] in ("s", "1/s"):
            shown += f" (wall clock {wall_metrics[name]:.6g})"
        print(f"  {name:38s} {shown}" + (f"  ({notes[name]})" if name in notes and value is not None else ""))
    wrong = counts.get("wrong", 0)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": wrong + counts.get("error", 0),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
