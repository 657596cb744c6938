"""The four benchmark workloads: the ops each runs and the check on each answer.

A workload is a list of rounds.  A round is a fixed op mix whose inputs come
from ``Random("<workload>:<seed>:<round>")``, so the same seed gives the same
inputs.  Every op is one call (or, for ``exact-count``, one parse-count-
serialize request) into ramseykit; its check runs outside the timed region
and compares the answer with an independent computation or a pinned value.

``probe`` runs only in the traced run, after the op and outside its timing.
It repeats, as separate calls, sub-steps the op's public call does inside
(copy masks, witness recount, class generation), so their time can be
subtracted from the enclosing call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random
from typing import Callable

from ramseykit.coloring import (
    BLUE,
    RED,
    ColorView,
    EdgeColoring,
    canonical_key,
    pair_count,
    split_coloring,
)
from ramseykit.counting import (
    Pattern,
    copy_edge_masks,
    count_in_view,
    count_mono,
    formula_split_paths,
    parse_pattern,
    total_copies_in_complete,
)
from ramseykit.regularity import (
    VertexPartition,
    build_reduced,
    dichotomy_classify,
    eps_regular_exact,
    extremal_detect,
    pair_density,
    verify_count_bounds,
)
from ramseykit.search import (
    RAW_ENUM_MAX_N,
    SearchConfig,
    anneal_min,
    canonical_graph_reps,
    exhaustive_min,
)
from ramseykit.structure import (
    SimpleGraph,
    disjoint_short_paths,
    max_matching,
    well_connected_check,
)
from ramseykit.verify import SUITES, run_suite

import reference
from tracing import Tracer

SPAN_BY_KIND = {
    "path": "counting.path_dp",
    "cycle": "counting.cycle_dp",
    "star": "counting.star",
    "clique": "counting.clique",
}


@dataclass
class Op:
    kind: str
    run: Callable[[Tracer], object]
    # None when the answer is right, otherwise the reason it is wrong
    check: Callable[[object], str | None]
    probe: Callable[[Tracer, object], None] | None = None


@dataclass
class CliCall:
    argv: list[str]
    files: dict[str, bytes]
    check: Callable[[dict], str | None]


@dataclass
class Workload:
    name: str
    # a run does ceil(seconds / round_s) rounds, so its work is fixed per
    # --seconds; round_s is set so that --seconds 12 gives the round count
    # the op mix below is shaped for
    round_s: float
    build: Callable[[int, int], list[Op]]
    cli: Callable[[int], CliCall]


def mono_split(masks: list[int], bits: int) -> tuple[int, int]:
    """(red, blue) monochromatic copies among explicit copy masks."""
    red = blue = 0
    for m in masks:
        hit = m & bits
        if hit == m:
            red += 1
        elif hit == 0:
            blue += 1
    return red, blue


class MaskCache:
    """copy_edge_masks per (pattern, n), built outside any timed region."""

    def __init__(self) -> None:
        self._masks: dict[tuple[str, int], list[int]] = {}

    def get(self, pattern: Pattern, n: int) -> list[int]:
        key = (pattern.label, n)
        if key not in self._masks:
            self._masks[key] = copy_edge_masks(pattern, n)
        return self._masks[key]


def _recount(masks: MaskCache, pattern: Pattern, coloring: EdgeColoring) -> int:
    return sum(mono_split(masks.get(pattern, coloring.n), coloring.red_bits))


def interleave(ops: list[Op], cheap: list[Op]) -> list[Op]:
    """``ops`` with ``cheap`` spread evenly between them.

    The cheap ops set op_p50_s.  Run back to back they would all be timed
    within a few milliseconds, i.e. under the host contention of a single
    moment; spread out, they sample the whole run.
    """
    out = []
    for i, op in enumerate(ops):
        out.append(op)
        out += cheap[len(cheap) * i // len(ops) : len(cheap) * (i + 1) // len(ops)]
    return out


# ---------------------------------------------------------------------------
# anneal: the single-flip delta loop of anneal_min
# ---------------------------------------------------------------------------

# The three 60-copy instances appear twice so that the median op is one of
# them rather than the boundary between two instance classes; with four
# rounds op_tail_s (11th-slowest of 44 ops) is the second-fastest P_6/8 op,
# well apart from the C_5/9 ops below and the C_4/12 ops above.
ANNEAL_MIX = [("P_4", 5), ("S_3", 6), ("K3", 6)] * 2 + [
    ("C_5", 9),
    ("P_6", 8),
    ("K3", 12),
    ("C_4", 12),
    ("P_7", 9),
]


def _anneal_op(label: str, n: int, config_seed: int, masks: MaskCache) -> Op:
    pattern = parse_pattern(label)
    config = SearchConfig(seed=config_seed)
    ref, provenance = reference.ANNEAL_REFERENCE[(label, n)]
    exact_min = ref if provenance == "exact" else 0

    def run(tr: Tracer):
        res = tr.call("search.anneal_min", anneal_min, pattern, n, config)
        tr.count("search.anneal.ops")
        tr.count("search.anneal.proposals", res.explored)
        tr.count("search.anneal.solution_gap", res.best_count - ref)
        tr.count("search.anneal.hits", res.best_count <= ref)
        return res

    def check(res) -> str | None:
        recount = _recount(masks, pattern, res.witness)
        if res.witness.n != n or recount != res.best_count:
            return f"witness recounts to {recount}, reported {res.best_count}"
        if res.best_count < exact_min:
            return f"{res.best_count} is below the exact minimum {exact_min}"
        return None

    def probe(tr: Tracer, res) -> None:
        tr.call("counting.copy_edge_masks", copy_edge_masks, pattern, n)
        tr.call(SPAN_BY_KIND[pattern.kind], count_mono, res.witness, pattern)

    return Op(f"anneal {label}/{n}", run, check, probe)


def anneal_ops(seed: int, rounds: int) -> list[Op]:
    masks = MaskCache()
    ops = []
    for r in range(rounds):
        rng = Random(f"anneal:{seed}:{r}")
        ops += [_anneal_op(label, n, rng.getrandbits(32), masks) for label, n in ANNEAL_MIX]
    return ops


def anneal_cli(seed: int) -> CliCall:
    # a fixed annealing seed: the command, like every cli_s command, is the
    # same in every run, so cli_s varies only with the program's speed
    masks = MaskCache()
    pattern = parse_pattern("P_6")
    argv = ["search", "--pattern", "P_6", "--n", "8", "--anneal", "--seed", "1"]

    def check(report: dict) -> str | None:
        best = int(report["results"]["best_count"])
        witness = EdgeColoring.parse(report["results"]["witness"].encode())
        if _recount(masks, pattern, witness) != best:
            return "CLI witness does not recount to best_count"
        if best < reference.ANNEAL_REFERENCE[("P_6", 8)][0]:
            return f"CLI best_count {best} is below the exact minimum"
        return None

    return CliCall(argv, {}, check)


# ---------------------------------------------------------------------------
# exhaustive: raw sweeps, canonical class sweeps, canonical labeling
# ---------------------------------------------------------------------------

# Per round: three n = 7 canonical sweeps (the slowest ops), then twelve
# builds of the 156 graph classes on 6 vertices, so op_tail_s (11th-slowest
# op) is a class build, and raw n = 6 sweeps below them.
EXHAUSTIVE_CANONICAL = ["P_5", "C_5", "S_4"]  # at n = 7
EXHAUSTIVE_RAW = ["P_4", "C_4", "S_3", "K3", "P_5"]  # at n = 6
CLASS_BUILDS = 12
CLASSES_ON_6 = 156
# canonical_key ops per round by n, in random order between the ops above,
# most at n = 10 so that op_p50_s falls inside one cost class.  n = 11 and 12 are left out: their cost has a heavy
# tail (one coloring can take 20x the median) that would move throughput
# with the seed.
CANONICAL_KEYS = {8: 40, 9: 40, 10: 100}


def _exhaustive_op(label: str, n: int, masks: MaskCache, probe_reps: bool) -> Op:
    pattern = parse_pattern(label)
    expected = reference.EXHAUSTIVE_MIN[(label, n)]
    span = "search.exhaustive_raw" if n <= RAW_ENUM_MAX_N else "search.exhaustive_canonical"

    def run(tr: Tracer):
        res = tr.call(span, exhaustive_min, pattern, n)
        tr.count("search.exhaustive.explored", res.explored)
        return res

    def check(res) -> str | None:
        if not res.exact or res.best_count != expected:
            return f"minimum {res.best_count}, pinned {expected}"
        if _recount(masks, pattern, res.witness) != expected:
            return "witness does not recount to the minimum"
        return None

    def probe(tr: Tracer, res) -> None:
        tr.call("counting.copy_edge_masks", copy_edge_masks, pattern, n)
        tr.call(SPAN_BY_KIND[pattern.kind], count_mono, res.witness, pattern)
        if probe_reps:
            tr.call("search.canonical_graph_reps_n7", canonical_graph_reps, n)

    return Op(f"exhaustive {label}/{n}", run, check, probe)


def _class_build_op() -> Op:
    def run(tr: Tracer):
        reps = tr.call("search.canonical_graph_reps", canonical_graph_reps, 6)
        tr.count("search.classes", len(reps))
        return reps

    def check(reps) -> str | None:
        if len(set(reps)) != len(reps) or len(reps) != CLASSES_ON_6:
            return f"{len(set(reps))} distinct classes, want {CLASSES_ON_6}"
        return None

    return Op("canonical_graph_reps n=6", run, check)


def _canonical_key_op(coloring: EdgeColoring, perm: list[int]) -> Op:
    def run(tr: Tracer):
        return tr.call("coloring.canonical_key", canonical_key, coloring)

    def check(key) -> str | None:
        if key != canonical_key(coloring.relabeled(perm)):
            return "canonical key changed under relabeling"
        if EdgeColoring.parse(key).red_edge_count != coloring.red_edge_count:
            return "canonical key has a different red edge count"
        return None

    return Op(f"canonical_key n={coloring.n}", run, check)


def exhaustive_ops(seed: int, rounds: int) -> list[Op]:
    masks = MaskCache()
    ops = []
    for r in range(rounds):
        rng = Random(f"exhaustive:{seed}:{r}")
        heavy = [
            _exhaustive_op(label, 7, masks, probe_reps=r == 0 and i == 0)
            for i, label in enumerate(EXHAUSTIVE_CANONICAL)
        ]
        heavy += [_class_build_op() for _ in range(CLASS_BUILDS)]
        heavy += [_exhaustive_op(label, 6, masks, False) for label in EXHAUSTIVE_RAW]
        keys = []
        for n, count in CANONICAL_KEYS.items():
            for _ in range(count):
                perm = list(range(n))
                rng.shuffle(perm)
                keys.append(_canonical_key_op(EdgeColoring.random(n, rng), perm))
        rng.shuffle(keys)
        ops += interleave(heavy, keys)
    return ops


def exhaustive_cli(seed: int) -> CliCall:
    argv = ["search", "--pattern", "P_5", "--n", "7", "--exhaustive"]

    def check(report: dict) -> str | None:
        best = int(report["results"]["best_count"])
        if best != reference.EXHAUSTIVE_MIN[("P_5", 7)] or not report["results"]["exact"]:
            return f"CLI minimum {best}"
        return None

    return CliCall(argv, {}, check)


# ---------------------------------------------------------------------------
# exact-count: RMC1 parse, subset-DP counts in both colors, serialize
# ---------------------------------------------------------------------------

# Random hosts, each a (n, patterns) pair: P_k and C_k with k about n/2 and,
# up to n = 14, k = n (the subset DP), then cheap star and clique ops.  The
# star ops are over half of all ops, so op_p50_s is one of them.  The n = 18
# host, whose P_9 count is the slowest op and sets peak RSS, comes once per
# run; the others once per round.  With six rounds op_tail_s (11th-slowest
# op) is in the middle of the thirteen P_8/16 ops.
STARS = [f"S_{k}" for k in range(1, 11)]
RUN_HOSTS = [(18, ["P_9", "C_9", *STARS, "K3", "K4", "K5"])]
ROUND_HOSTS = [
    (12, ["P_6", "C_6", "P_12", "C_12", *STARS, "K3", "K4"]),
    (14, ["P_7", "C_7", "P_14", "C_14", *STARS, "K3", "K4"]),
    (16, ["P_8", "C_8", *STARS, "K3", "K4"]),
    (16, ["P_8", "C_8", *STARS, "K3", "K4"]),
]
ORACLE_N = 8
ORACLE_COUNTS = ["P_4", "C_5", "P_8", "C_8", "S_3", "K4"]
SPLIT_NS = (12, 14)
# fixed colorings whose counts are pinned, so that every seed checks k about
# n/2 at n = 14 and 16 and k = n at n = 12 and 14
PANEL = {12: ["P_12", "C_12"], 14: ["P_7", "C_7", "P_14", "C_14"], 16: ["P_8", "C_8"]}


def balanced_coloring(n: int, rng: Random) -> EdgeColoring:
    """Random coloring with exactly half the pairs red (rounded down).

    A fixed red density keeps the subset DP's state count, and so its time
    and memory, from swinging with the seed.
    """
    pairs = pair_count(n)
    return EdgeColoring(n, sum(1 << e for e in rng.sample(range(pairs), pairs // 2)))


def panel_coloring(n: int) -> EdgeColoring:
    return EdgeColoring.random(n, Random(f"panel:{n}"))


def independent_counts(coloring: EdgeColoring, pattern: Pattern, masks: MaskCache):
    """(red, blue) by a method that shares no code with the subset DP, or None."""
    n = coloring.n
    if n <= ORACLE_N:
        return mono_split(masks.get(pattern, n), coloring.red_bits)
    if pattern.kind == "star":
        red_deg = [sum(coloring.is_red(v, w) for w in range(n) if w != v) for v in range(n)]
        k = pattern.k
        return (
            sum(comb(d, k) for d in red_deg),
            sum(comb(n - 1 - d, k) for d in red_deg),
        )
    if pattern.kind == "clique":
        red = blue = 0
        for verts in combinations(range(n), pattern.k):
            colors = {coloring.is_red(u, v) for u, v in combinations(verts, 2)}
            if colors == {True}:
                red += 1
            elif colors == {False}:
                blue += 1
        return red, blue
    return None


def _count_op(label: str, coloring: EdgeColoring, pattern: Pattern, expect) -> Op:
    """One `count --color both` request; ``expect(red, blue)`` checks the answer."""
    data = coloring.serialize()
    span = SPAN_BY_KIND[pattern.kind]

    def run(tr: Tracer):
        c = tr.call("coloring.parse", EdgeColoring.parse, data)
        red = tr.call(span, count_in_view, ColorView(c, RED), pattern)
        blue = tr.call(span, count_in_view, ColorView(c, BLUE), pattern)
        out = tr.call("coloring.serialize", c.serialize)
        tr.count("coloring.bytes", len(data) + len(out))
        return red, blue, out

    def check(result) -> str | None:
        red, blue, out = result
        if out != data:
            return "RMC1 round trip changed the bytes"
        if not 0 <= red + blue <= total_copies_in_complete(coloring.n, pattern):
            return f"count {red}+{blue} outside [0, copies in K_n]"
        return expect(red, blue)

    return Op(f"count {label}", run, check)


def _expect_equal(want):
    def expect(red: int, blue: int) -> str | None:
        return None if (red, blue) == tuple(want) else f"got {(red, blue)}, want {tuple(want)}"

    return expect


def _expect_none(red: int, blue: int) -> str | None:
    return None


def exact_count_ops(seed: int, rounds: int) -> list[Op]:
    masks = MaskCache()
    ops = []
    for n, labels in PANEL.items():
        c = panel_coloring(n)
        for label in labels:
            want = reference.PANEL_COUNTS[(n, label)]
            ops.append(_count_op(f"panel {label}/{n}", c, parse_pattern(label), _expect_equal(want)))
    for r in range(rounds):
        rng = Random(f"exact-count:{seed}:{r}")
        c = EdgeColoring.random(ORACLE_N, rng)
        for label in ORACLE_COUNTS:
            p = parse_pattern(label)
            ops.append(
                _count_op(f"oracle {label}/{ORACLE_N}", c, p, _expect_equal(independent_counts(c, p, masks)))
            )
        n = rng.choice(SPLIT_NS)
        a = rng.randint(n // 2, n - 1)
        split = split_coloring(a, n - a)
        for k in (n // 2, n // 2 + 1):
            want = formula_split_paths(a, n - a, k)

            def expect(red: int, blue: int, want=want) -> str | None:
                return None if red + blue == want else f"split count {red + blue}, formula {want}"

            ops.append(_count_op(f"split P_{k}/{n}", split, parse_pattern(f"P_{k}"), expect))
        ops += _host_ops(f"r{r}", ROUND_HOSTS, rng, seed, masks)
    return ops + _host_ops("run", RUN_HOSTS, Random(f"exact-count:{seed}:run"), seed, masks)


def _host_ops(prefix: str, hosts, rng: Random, seed: int, masks: MaskCache) -> list[Op]:
    ops = []
    for h, (n, labels) in enumerate(hosts):
        c = balanced_coloring(n, rng)
        for label in labels:
            p = parse_pattern(label)
            op_label = f"{prefix}h{h} {label}/{n}"
            want = independent_counts(c, p, masks)
            if want is None and seed == 0:
                want = reference.SEED0_COUNTS.get(op_label)
            ops.append(_count_op(op_label, c, p, _expect_none if want is None else _expect_equal(want)))
    return ops


def exact_count_cli(seed: int) -> CliCall:
    c = panel_coloring(16)
    want = sum(reference.PANEL_COUNTS[(16, "P_8")])
    argv = ["count", "--in", "{panel16.rmc}", "--pattern", "P_8"]

    def check(report: dict) -> str | None:
        total = int(report["results"]["total"])
        return None if total == want else f"CLI total {total}, pinned {want}"

    return CliCall(argv, {"panel16.rmc": c.serialize()}, check)


# ---------------------------------------------------------------------------
# certify: verify suites, exact regularity, reduced graphs, structure, bounds
# ---------------------------------------------------------------------------

def _suite_op(name: str) -> Op:
    def run(tr: Tracer):
        checks = tr.call(f"verify.{name}", run_suite, name)
        tr.count("verify.checks_passed", sum(c.passed for c in checks))
        return checks

    def check(checks) -> str | None:
        failed = [c.name for c in checks if not c.passed]
        return f"suite {name} failed {failed}" if failed else None

    return Op(f"verify {name}", run, check)


def _random_bipartite(rng: Random, nx: int, ny: int, p: float) -> SimpleGraph:
    return SimpleGraph.from_edges(
        nx + ny, [(i, nx + j) for i in range(nx) for j in range(ny) if rng.random() < p]
    )


def _random_graph(rng: Random, n: int, p: float) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


# Per round: four exact regularity checks on 12x12 pairs (about 0.5 s each)
# next to the four suites, and once per run one on a 14x14 pair (about 2 s).
# With three rounds the slowest ops are the 14x14 check, the bounds suites
# (0.8 s) and then fifteen ops of 0.4 to 0.6 s, the stability suites and
# the 12x12 checks, so op_tail_s (11th-slowest) sits in the middle of those
# fifteen rather than on one op.
SMALL_PAIR = 12
SMALL_PAIRS_PER_ROUND = 4
LARGE_PAIR = 14


def _regular_pair_op(rng: Random, size: int) -> Op:
    g = _random_bipartite(rng, size, size, rng.choice([0.3, 0.5, 0.7]))
    xs, ys = list(range(size)), list(range(size, 2 * size))
    eps = Fraction(1, 4)

    def run(tr: Tracer):
        return tr.call("regularity.eps_regular_exact", eps_regular_exact, g, xs, ys, eps)

    def check(res) -> str | None:
        if res.base_density != pair_density(g, xs, ys):
            return "base density disagrees with pair_density"
        if res.regular != (res.deviation <= eps):
            return "verdict disagrees with the reported deviation"
        if not res.regular:
            us, vs = res.witness
            if len(us) < eps * size or len(vs) < eps * size:
                return "witness subsets are too small"
            if abs(pair_density(g, us, vs) - res.base_density) <= eps:
                return "witness does not refute regularity"
        return None

    return Op(f"eps_regular_exact {size}x{size}", run, check)


def _reduced_ops(rng: Random) -> list[Op]:
    a = rng.choice([12, 15, 18])
    split = split_coloring(a, a // 2)
    eps, d, lam = Fraction(1, 5), Fraction(1, 2), Fraction(1, 20)
    random24 = EdgeColoring.random(24, rng)
    random30 = EdgeColoring.random(30, rng)
    ops = []

    def reduced_op(coloring: EdgeColoring, size: int, is_split: bool) -> Op:
        partition = VertexPartition.of_size(coloring.n, size)

        def run(tr: Tracer):
            rg = tr.call("regularity.build_reduced", build_reduced, coloring, partition, eps, d)
            return rg, tr.call("regularity.dichotomy_classify", dichotomy_classify, rg, lam)

        def check(result) -> str | None:
            rg, verdict = result
            for (i, j), ann in rg.annotations.items():
                for color in (RED, BLUE):
                    if ((i, j) in rg.edges(color)) != ann.admits(color, d):
                        return f"pair {(i, j)} {color} edge disagrees with its annotation"
            if verdict.case1:
                g = rg.graph(verdict.color)
                if not all(g.has_edge(u, v) for u, v in verdict.matching):
                    return "dichotomy matching uses a non-edge"
            if is_split:
                a_parts = a // size
                cross = {(i, j) for i in range(a_parts) for j in range(a_parts, rg.M)}
                if rg.red_edges != cross or verdict.case1:
                    return "split host did not reduce to two blue clusters joined in red"
            return None

        return Op(f"build_reduced n={coloring.n}", run, check)

    ops.append(reduced_op(split, 3, True))
    ops.append(reduced_op(random24, 4, False))

    def extremal_op(coloring: EdgeColoring, alpha: Fraction, want_a_side) -> Op:
        def run(tr: Tracer):
            return tr.call("regularity.extremal_detect", extremal_detect, coloring, alpha)

        def check(v) -> str | None:
            if want_a_side is None:
                return "random coloring detected as near-split" if v.is_extremal else None
            if not v.is_extremal or v.a_side != want_a_side:
                return "split coloring not detected"
            return None

        return Op(f"extremal_detect n={coloring.n}", run, check)

    ops.append(extremal_op(split, Fraction(1, 10), tuple(range(a))))
    ops.append(extremal_op(random30, Fraction(1, 20), None))
    return ops


MATCHINGS_PER_ROUND = 48


def _structure_ops(rng: Random) -> list[Op]:
    ops = []
    half = rng.choice([6, 8])
    red = ColorView(split_coloring(half, half), RED).graph()

    def well_connected_run(tr: Tracer):
        return tr.call(
            "structure.well_connected_check", well_connected_check, red, range(2 * half), half - 1, 3
        )

    ops.append(
        Op(
            "well_connected_check",
            well_connected_run,
            lambda rep: None if rep.status == "certified" else f"split graph {rep.status}",
        )
    )
    for _ in range(3):
        g = _random_graph(rng, 12, rng.choice([0.4, 0.6]))
        u, v = rng.sample(range(12), 2)
        max_len = rng.choice([3, 4])

        def paths_run(tr: Tracer, g=g, u=u, v=v, max_len=max_len):
            return tr.call(
                "structure.disjoint_short_paths", disjoint_short_paths, g, u, v, max_len, method="exact"
            )

        def paths_check(cert, g=g, u=u, v=v, max_len=max_len) -> str | None:
            cert.validate(g)
            greedy = disjoint_short_paths(g, u, v, max_len, method="greedy")
            return "greedy beat the exact packing" if greedy.count > cert.count else None

        ops.append(Op("disjoint_short_paths exact", paths_run, paths_check))
    return ops


def _matching_ops(rng: Random) -> list[Op]:
    ops = []
    for _ in range(MATCHINGS_PER_ROUND):
        g = _random_graph(rng, 64, 0.1)

        def matching_run(tr: Tracer, g=g):
            return tr.call("structure.max_matching", max_matching, g)

        def matching_check(matching, g=g) -> str | None:
            covered = [x for e in matching for x in e]
            if len(set(covered)) != len(covered) or not all(g.has_edge(u, v) for u, v in matching):
                return "matching is not a set of disjoint edges"
            free = set(range(g.n)) - set(covered)
            if any(g.has_edge(u, v) for u, v in combinations(sorted(free), 2)):
                return "matching is not maximal"
            return None

        ops.append(Op("max_matching n=64", matching_run, matching_check))
    return ops


def _bound_ops(rng: Random) -> list[Op]:
    dense = _random_bipartite(rng, 12, 12, rng.choice([0.9, 0.95, 1.0]))
    us, vs = list(range(12)), list(range(12, 24))
    root = max(vs, key=dense.degree)
    a, b = rng.randint(3, 6), rng.randint(4, 9)
    complete = SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    cases = [
        (dense, us, vs, {"mode": "rooted", "eps": 0.29, "d": 0.85, "l": rng.choice([3, 5]), "v": root}),
        (dense, us, vs, {"mode": "endpoints", "eps": 0.3, "d": 0.5, "l": 5, "u": 0, "v": root}),
        (
            complete,
            list(range(a)),
            list(range(a, a + b)),
            {"mode": "dense-bipartite", "beta": 0, "delta": b, "k": rng.randint(2, min(6, 2 * a + 1, 4 * b // 3))},
        ),
    ]
    ops = []
    for g, xs, ys, params in cases:

        def run(tr: Tracer, g=g, xs=xs, ys=ys, params=params):
            return tr.call("regularity.verify_count_bounds", verify_count_bounds, g, xs, ys, params)

        def check(report) -> str | None:
            if report.verdict not in ("confirmed", "vacuous"):
                return f"bound verdict {report.verdict}"
            return None

        ops.append(Op(f"verify_count_bounds {params['mode']}", run, check))
    return ops


def certify_ops(seed: int, rounds: int) -> list[Op]:
    ops = []
    for r in range(rounds):
        rng = Random(f"certify:{seed}:{r}")
        heavy = [_suite_op(name) for name in SUITES]
        heavy += [_regular_pair_op(rng, SMALL_PAIR) for _ in range(SMALL_PAIRS_PER_ROUND)]
        if r == 0:
            heavy.append(_regular_pair_op(rng, LARGE_PAIR))
        heavy += _reduced_ops(rng)
        heavy += _structure_ops(rng)
        # the cheapest ops and three quarters of the round, so op_p50_s is one
        matchings = _matching_ops(rng)
        heavy += _bound_ops(rng)
        ops += interleave(heavy, matchings)
    return ops


def certify_cli(seed: int) -> CliCall:
    def check(report: dict) -> str | None:
        failed = report["results"]["failed"]
        return f"CLI verify reported {failed} failed checks" if failed else None

    return CliCall(["verify", "--suite", "bounds"], {}, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("anneal", 3.0, anneal_ops, anneal_cli),
        Workload("exhaustive", 12.0, exhaustive_ops, exhaustive_cli),
        Workload("exact-count", 2.0, exact_count_ops, exact_count_cli),
        Workload("certify", 4.0, certify_ops, certify_cli),
    )
}


def workdir_file(workdir: Path, argv: list[str], files: dict[str, bytes]) -> list[str]:
    """Write the call's input files to ``workdir`` and substitute their paths."""
    out = []
    for arg in argv:
        if arg.startswith("{") and arg.endswith("}"):
            path = workdir / arg[1:-1]
            path.write_bytes(files[arg[1:-1]])
            arg = str(path)
        out.append(arg)
    return out
