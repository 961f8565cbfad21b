"""Seeded corpora for the three benchmark workloads.

Every input is generated here, from the workload name and the seed, so the
program under test only ever sees generated profiles and instances. The
generators follow the recipe language of `hmerge gen` ("uniform:LO:HI",
"zipf:S:MAX"; 3m in-range numbers summing to m*b) but live in the
benchmark, so a change to the program's own generators cannot change the
corpus it is measured on.

Sizes are fixed per workload and only the values depend on the seed: the
cost of an op is driven mostly by its size, so fixed sizes keep the runs of
different seeds comparable while the instances themselves differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# One fixed node budget for maximize-mix: running it out costs about one
# second of search at n around 100 on a 2-core x86 box with CPython 3.11.
MAXIMIZE_NODE_BUDGET = 200_000
# crosscheck ops must all finish; this is the library default at the time the
# benchmark was written, fixed here so a change of default does not change
# the workload.
CROSSCHECK_NODE_BUDGET = 10_000_000
# Passed through the public `oracle_cap` keyword so that 3-partition ops with
# 3m > 11 numbers run whether or not the library keeps that gate.
ORACLE_CAP_OFF = 1_000_000

LOOP = "closed loop, 1 client, one op at a time"

# improve-bulk: profiles (dist, n); each gets one `improve` and one `hindex`
# op. The median op falls among the four `improve` ops at n=1e5; the 1e6
# profile carries most of the items and a partition of about 1e6 ids.
IMPROVE_PROFILES = [
    ("zipf:1.2:10000", 100_000),
    ("uniform:1:1000", 100_000),
    ("zipf:1.2:10000", 100_000),
    ("uniform:1:1000", 100_000),
    ("uniform:1:1000", 200_000),
    ("zipf:1.2:10000", 1_000_000),
]
IMPROVE_OPS = [(command, i) for command in ("improve", "hindex") for i in range(len(IMPROVE_PROFILES))]

# maximize-mix: (dist, n, count) strata drawn fresh for each seed. The four
# distributions differ in duplicate structure (20 to 200 distinct values) and
# in the gap between h and the maximum, which is what memo keys,
# multiplicity counting and bound-first search are sensitive to.
# Two strata are large on purpose, so that the order statistics land in a
# block of similar ops whatever the seed: 60 ops at zipf:1.5:50 n=50 hold the
# median, and 40 at uniform:1:20 n=200 hold the 11th-slowest op, which sits
# just below the baseline failures and the n=700 op.
MAXIMIZE_STRATA = [
    ("uniform:1:100", 20, 6), ("uniform:1:100", 30, 4), ("uniform:1:100", 40, 4),
    ("uniform:1:20", 20, 4), ("uniform:1:20", 100, 2), ("uniform:1:20", 200, 40), ("uniform:1:20", 700, 1),
    ("zipf:1.5:50", 50, 60), ("zipf:1.5:50", 200, 2),
    ("zipf:1.2:200", 20, 4), ("zipf:1.2:200", 50, 4), ("zipf:1.2:200", 100, 2), ("zipf:1.2:200", 200, 2),
]
# Known failures of the solver, kept in every corpus whatever the seed: they
# end in `budget` or `recursion` until the search core is fixed.
MAXIMIZE_BASELINE = [
    ("uniform:1:100", 100, 3),
    ("zipf:1.5:50", 1000, 3),
    ("uniform:1:100", 1000, 3),
    ("ones", 3000, 0),
]

# crosscheck: oracle ops (n, count) with values 1..12, and 3-partition ops
# with m cycling through 3..10 and b uniform on [13, 40]. The 14 oracle ops
# at n=9 (Bell(9) = 21,147 partitions each) hold the 11th-slowest op; the
# 3-partition ops take about a third of the op time. Larger b at m=10 gives
# single ops of 0.1 s and more, whose count would then swing with the seed.
ORACLE_SIZES = [(8, 3), (9, 14), (10, 1)]
ORACLE_MAX_VALUE = 12
THREEP_COUNT = 1200
THREEP_M = (3, 10)
THREEP_B = (13, 40)

WORKLOADS = ("improve-bulk", "maximize-mix", "crosscheck")


@dataclass
class Op:
    """One benchmark operation and the generated input it runs on."""

    id: int
    kind: str            # improve | hindex | maximize | oracle | 3p
    label: str
    citations: list[int] = field(default_factory=list)
    numbers: list[int] = field(default_factory=list)   # 3p only
    m: int = 0
    b: int = 0
    path: str = ""       # CLI ops: the profile file

    @property
    def items(self) -> int:
        """Profile items the op processes (the reduced profile for 3p)."""
        if self.kind == "3p":
            return len(self.numbers) + self.b + 2 * self.m
        return len(self.citations)


def gen_citations(n: int, dist: str, seed: int) -> list[int]:
    """Citation counts from a "uniform:LO:HI" or "zipf:S:MAX" recipe ("ones" gives n ones)."""
    kind, *params = dist.split(":")
    rng = random.Random(seed)
    if kind == "ones":
        return [1] * n
    if kind == "uniform":
        lo, hi = int(params[0]), int(params[1])
        return [rng.randint(lo, hi) for _ in range(n)]
    if kind == "zipf":
        s, vmax = float(params[0]), int(params[1])
        support = range(1, vmax + 1)
        return rng.choices(support, weights=[v ** -s for v in support], k=n)
    raise ValueError(f"unknown distribution {dist!r}")


def gen_3partition(m: int, b: int, seed: int) -> list[int]:
    """3m integers strictly between b/4 and b/2 summing to m*b.

    Uniform in-range draws, then +1/-1 nudges at random positions that stay
    in range until the sum is m*b.
    """
    lo, hi = b // 4 + 1, (b - 1) // 2
    if lo > hi or not 3 * lo <= b <= 3 * hi:
        raise ValueError(f"no in-range instance for b={b}")
    rng = random.Random(seed)
    values = [rng.randint(lo, hi) for _ in range(3 * m)]
    target = m * b
    while sum(values) < target:
        values[rng.choice([i for i, v in enumerate(values) if v < hi])] += 1
    while sum(values) > target:
        values[rng.choice([i for i, v in enumerate(values) if v > lo])] -= 1
    return values


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass over the workload's corpus for this seed."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []

    def add(kind, label, **fields):
        ops.append(Op(id=len(ops), kind=kind, label=label, **fields))

    if workload == "improve-bulk":
        profiles = []
        for dist, n in IMPROVE_PROFILES:
            s = rng.getrandbits(32)
            profiles.append((f"{dist} n={n} seed={s}", gen_citations(n, dist, s)))
        for command, index in IMPROVE_OPS:
            label, citations = profiles[index]
            add(command, label, citations=citations, path=f"profile{index}.txt")
    elif workload == "maximize-mix":
        for dist, n, count in MAXIMIZE_STRATA:
            for _ in range(count):
                s = rng.getrandbits(32)
                add("maximize", f"{dist} n={n} seed={s}", citations=gen_citations(n, dist, s))
        for dist, n, s in MAXIMIZE_BASELINE:
            add("maximize", f"{dist} n={n} seed={s} (baseline)", citations=gen_citations(n, dist, s))
    elif workload == "crosscheck":
        for n, count in ORACLE_SIZES:
            for _ in range(count):
                citations = [rng.randint(1, ORACLE_MAX_VALUE) for _ in range(n)]
                add("oracle", f"oracle n={n}", citations=citations)
        m_low, m_high = THREEP_M
        for i in range(THREEP_COUNT):
            m, b, s = m_low + i % (m_high - m_low + 1), rng.randint(*THREEP_B), rng.getrandbits(32)
            add("3p", f"3p m={m} b={b} seed={s}", numbers=gen_3partition(m, b, s), m=m, b=b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def recipe(workload: str) -> dict:
    """Generator recipe and fixed settings of a workload, for the run record."""
    if workload == "improve-bulk":
        return {"profiles": IMPROVE_PROFILES, "ops": IMPROVE_OPS,
                "cli": "hmerge <improve|hindex> --format structured FILE"}
    if workload == "maximize-mix":
        return {"strata": MAXIMIZE_STRATA, "baseline": MAXIMIZE_BASELINE,
                "node_budget": MAXIMIZE_NODE_BUDGET}
    return {"oracle_sizes": ORACLE_SIZES, "oracle_max_value": ORACLE_MAX_VALUE,
            "3p_count": THREEP_COUNT, "3p_m": THREEP_M, "3p_b": THREEP_B,
            "node_budget": CROSSCHECK_NODE_BUDGET, "oracle_cap": ORACLE_CAP_OFF}
