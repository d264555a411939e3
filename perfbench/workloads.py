"""The benchmark's four workloads: inputs from a seed, the timed job, the output checks.

`prepare` builds a workload's inputs (set-up); `Job.run` makes every call
of the fixed job and records when it and each unit ran; `Job.check` compares the
recorded outputs with answers from `reference`, which shares no code with
advlab.  Nothing here repeats an input inside one job, so each job starts
and stays as cold as a fresh CLI call on that input.

Why each workload exists:

- algebra: the adversary and processes layers take ~95% of self time; a
  faster alpha kernel shows here.  Structured fair families
  make the fairness scan visit every (P, Q); random families stop it at the
  first counterexample.  n = 7 is the largest n the seed commit finishes
  within one run (wait-free fairness takes 3.8 s at n = 7 and 27 s at n = 8
  on 2 cores with Python 3.11.7).
- campaign: seeded schedule generation, the executor, protocol generators,
  long completion tails and the checkers, through `advlab simulate`.  The
  adversary layer does almost no work, so a kernel change predicts no change.
- exhaustive: the same sim/protocol/checker layers through `advlab
  enumerate`: many short runs instead of seeded long ones.  Partial-order
  reduction of the exploration would show here; campaign bypasses it.
- bgg: the only workload that loads the selection layer; it asks the
  adversary layer many small warm questions instead of a few cold ones.

What the seed changes: campaign and exhaustive take their seed ranges and
inputs from it.  algebra and bgg draw their seeded live-set families from a
fixed stream, and the seed renames the processes (one permutation per n),
so every seed gives the program other masks of the same difficulty.  With
fresh families per seed, algebra's median family cost moved by up to 10%
from seed to seed, the same on repeated runs of one seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import reference as ref

WORKLOADS = ("algebra", "campaign", "exhaustive", "bgg")

# Job sizes.  "full" is what the benchmark measures; "tiny" is for the smoke test.
SIZES = {
    "full": {
        # Per n: the t of each t-resilient family, then how many seeded families
        # of each kind in SEEDED_KINDS.  Costs fall in tiers: the
        # deterministic families above 50 ms, the closures of all 35 single
        # 3-sets at n = 7 (~36 ms each, whatever the set) around the 90th
        # percentile, and every other seeded family well below that, so the
        # percentiles do not move with the seed.  The median falls among 280
        # random families of fixed size, enough that it moves little with the
        # seed.  Random families stay at n <= 5: from n = 6 on, their cost
        # swings past the closures' with the seed.
        "algebra": {
            4: {"t": (1, 2), "symmetric": 3, "upward": 3, "random-0.25": 80, "random-0.6": 80},
            5: {"t": (1, 2, 3), "symmetric": 3, "upward": 3, "random-0.25": 80, "random-0.6": 40},
            6: {"t": (1, 2, 3, 4), "upward": 2},
            7: {"t": (1, 2), "upward-of-3-set": 35},
        },
        "campaign": {"chunks": 40, "seeds_per_chunk": 50, "budget": 16},
        "exhaustive": {"round_robin_steps": 3, "adaptive_steps": 3, "safe_steps": (1, 2, 3, 4, 5, 6)},
        "bgg": {"n3_families": None, "larger": (4, 5)},
    },
    "tiny": {
        "algebra": {
            3: {"t": (1,), "symmetric": 1, "upward": 1, "random-0.25": 1, "random-0.6": 1},
            4: {"t": (1, 2), "upward-of-3-set": 1},
        },
        "campaign": {"chunks": 1, "seeds_per_chunk": 4, "budget": 16},
        "exhaustive": {"round_robin_steps": 2, "adaptive_steps": 2, "safe_steps": (1, 2, 3)},
        "bgg": {"n3_families": 3, "larger": (4,)},
    },
}


class Job:
    """A workload's fixed job: `units` counts what throughput is measured in.

    `run(clock)` sets `span`, the job's (start, end) on `clock`, and
    `unit_spans`, the (start, end, units) of each timed call in job order;
    `unit_spans` is None where the units run inside a few calls and only
    their mean is visible from outside.
    """

    units = 0
    span: tuple[float, float]
    unit_spans: list[tuple[float, float, int]] | None = None

    def run(self, clock) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, list[str]]:
        """(failed units, first failure messages)."""
        raise NotImplementedError

    def crosscheck(self) -> dict:
        """Untraced outputs the smoke test compares with traced counts."""
        return {}


def prepare(name: str, seed: int, size: str, workdir: Path) -> Job:
    rng = random.Random(f"{name}:{seed}")
    params = SIZES[size][name]
    if name == "algebra":
        return AlgebraJob(rng, params)
    if name == "campaign":
        return CampaignJob(seed, params, workdir)
    if name == "exhaustive":
        return ExhaustiveJob(rng, params, workdir)
    if name == "bgg":
        return BggJob(rng, params)
    raise ValueError(f"unknown workload {name!r}")


def _adversary(n: int, masks):
    from advlab import Adversary, ProcessSet

    return Adversary(n, tuple(ProcessSet(n, m) for m in sorted(masks)))


# Seeded live-set families: (rng, n) -> masks.
SEEDED_KINDS = {
    "symmetric": lambda rng, n: ref.sizes_masks(n, rng.sample(range(1, n + 1), rng.randint(1, n - 1))),
    "symmetric-2": lambda rng, n: ref.sizes_masks(n, rng.sample(range(1, n + 1), 2)),
    "upward": lambda rng, n: ref.upward_closure(n, [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 3))]),
    "upward-of-3-set": lambda rng, n: ref.upward_closure(n, [sum(1 << i for i in rng.sample(range(n), 3))]),
    # Random families of a fixed size, a quarter or 60% of all non-empty sets.
    "random-0.25": lambda rng, n: rng.sample(range(1, 1 << n), round(0.25 * ((1 << n) - 1))),
    "random-0.6": lambda rng, n: rng.sample(range(1, 1 << n), round(0.6 * ((1 << n) - 1))),
}


class _Families:
    """Distinct live-set families, so no input repeats inside a job."""

    def __init__(self):
        self.seen: set[tuple[int, frozenset]] = set()

    def add(self, n: int, masks) -> bool:
        key = (n, frozenset(masks))
        if not masks or key in self.seen:
            return False
        self.seen.add(key)
        return True


# ---------------------------------------------------------------- algebra


class AlgebraJob(Job):
    """Family reports as `advlab setcon`, `classify` and `alpha` compute them."""

    STRUCTURED = ("wait-free", "t-resilient", "symmetric", "upward", "upward-of-3-set")

    def __init__(self, rng: random.Random, params: dict):
        families = _Families()
        specs = []  # (n, kind, masks)
        # Seeded families come from a fixed stream; the seed renames their processes.
        draws = random.Random("algebra:families")
        for n, counts in params.items():
            specs.append((n, "wait-free", list(range(1, 1 << n))))
            families.add(n, specs[-1][2])
            for t in counts["t"]:
                masks = ref.sizes_masks(n, range(n - t, n + 1))
                families.add(n, masks)
                specs.append((n, f"t-resilient:{t}", masks))
            order = rng.sample(range(n), n)
            for kind, draw in SEEDED_KINDS.items():
                made = 0
                while made < counts.get(kind, 0):
                    masks = [_relabel(m, order) for m in draw(draws, n)]
                    if families.add(n, masks):
                        specs.append((n, kind, masks))
                        made += 1
        self.specs = _interleave(specs, key=lambda spec: spec[0])
        self.adversaries = [_adversary(n, masks) for n, _, masks in self.specs]
        self.units = len(specs)

    def run(self, clock) -> None:
        from advlab import adversary as adv

        spans, outputs = [], []
        start = clock()
        for a in self.adversaries:
            t = clock()
            value = adv.setcon(a)
            witness = adv.setcon_witness(a)
            fn = adv.agreement_function(a)
            pair = adv.fairness_counterexample(a)
            closed = adv.is_superset_closed(a)
            hitting = adv.csize(a) if closed else None
            symmetric = adv.is_symmetric(a)
            sizes = adv.symmetric_setcon(a) if symmetric else None
            outputs.append((value, witness, fn, pair, closed, hitting, symmetric, sizes))
            spans.append((t, clock(), 1))
        self.span = (start, clock())
        self.unit_spans, self.outputs = spans, outputs

    def check(self) -> tuple[int, list[str]]:
        from advlab import AgreementFunction, replay_witness

        failed, messages = 0, []
        for (n, kind, masks), a, out in zip(self.specs, self.adversaries, self.outputs):
            value, witness, fn, pair, closed, hitting, symmetric, sizes = out
            problems = []
            try:
                if replay_witness(a, witness) != value:
                    problems.append("witness length differs from setcon")
            except ValueError as exc:
                problems.append(f"witness does not replay: {exc}")
            if fn.table[(1 << n) - 1] != value:
                problems.append("table[full] differs from setcon")
            if not ref.is_monotonic(fn.table, n):
                problems.append("table is not monotonic")
            if kind == "wait-free" and fn.table != AgreementFunction.wait_free(n).table:
                problems.append("table differs from AgreementFunction.wait_free")
            if kind.startswith("t-resilient:"):
                t = int(kind.split(":")[1])
                if fn.table != AgreementFunction.t_resilient(n, t).table:
                    problems.append("table differs from AgreementFunction.t_resilient")
            if closed != ref.is_superset_closed(masks, n):
                problems.append("superset-closed classification is wrong")
            elif closed and not value == hitting == ref.min_hitting_set(masks, n):
                problems.append("setcon, csize and the minimum hitting set differ")
            if symmetric != ref.is_symmetric(masks, n):
                problems.append("symmetric classification is wrong")
            elif symmetric and not value == sizes == len({ref.popcount(m) for m in masks}):
                problems.append("setcon, symmetric_setcon and the distinct sizes differ")
            if kind.split(":")[0] in self.STRUCTURED and pair is not None:
                problems.append(f"structured family reported unfair at {pair}")
            if problems:
                failed += 1
                messages.append(f"algebra n={n} {kind} {sorted(masks)}: {'; '.join(problems)}")
        return failed, messages


def _relabel(mask: int, order: list[int]) -> int:
    """`mask` with process i renamed order[i]."""
    return sum(1 << order[i] for i in range(len(order)) if mask >> i & 1)


# ---------------------------------------------------------------- CLI jobs


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _table(n: int, level) -> dict:
    return {"n": n, "table": [level(bits) for bits in range(1 << n)]}


WAIT_FREE_3 = _table(3, ref.popcount)
K_CONCURRENT_3_2 = _table(3, lambda bits: min(2, ref.popcount(bits)))
UNFAIR_TRIPLE = [0b001, 0b110, 0b111]
FAIR_NONSTRUCTURED = [0b001, 0b010, 0b100, 0b101, 0b110, 0b111]
ONE_RESILIENT_3 = [0b011, 0b101, 0b110, 0b111]


class _CliJob(Job):
    """A list of `advlab` invocations made in-process through `advlab.cli.main`."""

    def __init__(self):
        self.calls: list[tuple[list[str], int]] = []  # (argv, units requested)

    def run(self, clock) -> None:
        from advlab import cli

        spans, outputs = [], []
        start = clock()
        for argv, units in self.calls:
            buf, err = io.StringIO(), io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            spans.append((t, clock(), units))
            outputs.append((code, buf.getvalue(), err.getvalue()))
        self.span = (start, clock())
        self.call_spans, self.outputs = spans, outputs

    def check(self) -> tuple[int, list[str]]:
        """Exit 0, `runs` equal to the units requested, every violation count 0.

        A call that fails any of these counts all its units as failed.
        """
        failed, messages = 0, []
        self.cli_runs = 0
        for (argv, requested), (code, out, err) in zip(self.calls, self.outputs):
            try:
                # `simulate` prints a `seed=...` line before its JSON even under --format json.
                obj = json.loads(out[out.index("{"):])
                runs, violations = obj["runs"], obj["violations"]
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unparseable output ({exc}): {out[:200]!r} {err[:200]!r}"
            else:
                self.cli_runs += runs
                problem = None
                if code != 0:
                    problem = f"exit code {code}"
                elif runs != requested:
                    problem = f"runs={runs}, expected {requested}"
                elif any(v != 0 for v in violations.values()):
                    problem = f"violations {violations}"
            if problem:
                failed += requested
                messages.append(f"{' '.join(argv)}: {problem}")
        return failed, messages

    def crosscheck(self) -> dict:
        return {"cli_runs": self.cli_runs}


class CampaignJob(_CliJob):
    """`advlab simulate` calls of `seeds_per_chunk` seeds each, on disjoint seed ranges.

    The protocols decide within about ten steps per process, so at the CLI's
    default budget of 96 the completion tail never runs; a budget of 16
    leaves a share of every run's decisions to the tail.
    """

    def __init__(self, seed: int, params: dict, workdir: Path):
        super().__init__()
        n3 = lambda masks: _table(3, lambda bits: ref.setcon_by_region(masks, 3)[bits])
        configs = [
            ("adaptive", "--alpha", _write_json(workdir / "unfair-triple.alpha.json", n3(UNFAIR_TRIPLE))),
            ("adaptive", "--alpha", _write_json(workdir / "fair-nonstructured.alpha.json", n3(FAIR_NONSTRUCTURED))),
            ("adaptive", "--alpha", _write_json(workdir / "one-resilient-3.alpha.json", n3(ONE_RESILIENT_3))),
            ("adaptive", "--alpha", _write_json(workdir / "wait-free-3.alpha.json", WAIT_FREE_3)),
            ("adaptive", "--alpha", _write_json(workdir / "t-resilient-3-1.alpha.json", _table(3, lambda b: max(0, ref.popcount(b) - 1)))),
            ("adaptive", "--alpha", _write_json(workdir / "wait-free-4.alpha.json", _table(4, ref.popcount))),
            ("alpha-setcons", "--alpha", _write_json(workdir / "k-concurrent-3-2.alpha.json", K_CONCURRENT_3_2)),
            ("cons23", "--adversary", _write_json(workdir / "unfair-triple.json", {"n": 3, "live_sets": [[1], [1, 2, 3], [2, 3]]})),
        ]
        per_chunk = params["seeds_per_chunk"]
        base = seed * 10_000_000
        for index, (protocol, flag, path) in enumerate(configs):
            for chunk in range(params["chunks"]):
                first = base + (index * params["chunks"] + chunk) * per_chunk
                argv = ["simulate", "--protocol", protocol, flag, path, "--seed", str(first),
                        "--seeds", str(per_chunk), "--budget", str(params["budget"]), "--tail", "400",
                        "--format", "json"]
                self.calls.append((argv, per_chunk))
        self.calls = _interleave(self.calls, key=lambda call: call[0][2])
        self.units = sum(units for _, units in self.calls)

    def run(self, clock) -> None:
        super().run(clock)
        self.unit_spans = self.call_spans


class ExhaustiveJob(_CliJob):
    """`advlab enumerate` over every schedule of the given (n, steps, halts)."""

    def __init__(self, rng: random.Random, params: dict, workdir: Path):
        super().__init__()
        runs = [
            ("alpha-setcons", 3, params["round_robin_steps"],
             _write_json(workdir / "k-concurrent-3-2.alpha.json", K_CONCURRENT_3_2)),
            ("adaptive", 3, params["adaptive_steps"], _write_json(workdir / "wait-free-3.alpha.json", WAIT_FREE_3)),
        ] + [("safe-agreement", 2, steps, None) for steps in params["safe_steps"]]
        for protocol, n, steps, alpha in runs:
            inputs = ",".join(str(v) for v in rng.sample(range(1, 1_000_000), n))
            argv = ["enumerate", "--n", str(n), "--steps", str(steps), "--halts", "1",
                    "--protocol", protocol, "--inputs", inputs, "--format", "json"]
            if alpha:
                argv += ["--alpha", alpha]
            self.calls.append((argv, ref.enumerated_space(n, steps, 1)))
        self.units = sum(units for _, units in self.calls)


# ---------------------------------------------------------------- bgg


class BggJob(Job):
    """Selection runs (history plus 4-property report) under the adaptive gate.

    The criterion-09 sweep (every fair 3-process family x halt pattern) plus
    fair structured 4- and 5-process families with power at most 3, which
    keeps each family at no more than 8 halt patterns.
    """

    def __init__(self, rng: random.Random, params: dict):
        families = _Families()
        picked = []  # (n, kind, masks, power)
        for masks in _all_families(3):
            power = ref.setcon_of(masks, 3)
            if power and ref.is_fair(masks, 3):
                families.add(3, masks)
                picked.append((3, "criterion-09", masks, power))
        if params["n3_families"] is not None:
            picked = picked[: params["n3_families"]]
        # Seeded families come from a fixed stream; the seed renames their processes.
        draws = random.Random("bgg:families")
        for n in params["larger"]:
            order = rng.sample(range(n), n)
            slots = (
                ("t-resilient-2", lambda rng, n: ref.sizes_masks(n, range(n - 2, n + 1)), 3),
                ("symmetric-2", SEEDED_KINDS["symmetric-2"], 2),
                ("upward", SEEDED_KINDS["upward"], 2),
            )
            for kind, draw, power in slots:
                while True:
                    masks = [_relabel(m, order) for m in draw(draws, n)]
                    got = ref.setcon_of(masks, n)
                    if got == power and families.add(n, masks):
                        picked.append((n, kind, masks, got))
                        break
        specs = []  # (n, kind, masks, power, pattern, budget)
        for n, kind, masks, power in picked:
            budget = 400 * n
            for rsize in range(power + 1):
                for halted in itertools.combinations(range(1, power + 1), rsize):
                    pattern = {s: budget // 6 + 3 * s for s in halted}
                    specs.append((n, kind, masks, power, pattern, budget))
        self.specs = _interleave(specs, key=lambda spec: spec[0])
        self.adversaries = [_adversary(n, masks) for n, _, masks, *_ in self.specs]
        self.units = len(self.specs)

    def run(self, clock) -> None:
        from advlab import bgg

        spans, outputs = [], []
        start = clock()
        for a, (_, _, _, _, pattern, budget) in zip(self.adversaries, self.specs):
            t = clock()
            history = bgg.run_bgg_selection(a, pattern=pattern, budget=budget, gate_mode=bgg.GATE_ADAPTIVE)
            verdicts = bgg.selection_report(history)
            spans.append((t, clock(), 1))
            outputs.append((history.sim_count, len(history.records), [(v.prop, v.passed) for v in verdicts]))
        self.span = (start, clock())
        self.unit_spans, self.outputs = spans, outputs

    def check(self) -> tuple[int, list[str]]:
        failed, messages = 0, []
        for (n, kind, masks, power, pattern, _), (sims, _, verdicts) in zip(self.specs, self.outputs):
            problems = [prop for prop, passed in verdicts if not passed]
            if len(verdicts) != 4:
                problems.append(f"{len(verdicts)} verdicts, expected 4")
            if sims != power:
                problems.append(f"{sims} simulators, expected {power}")
            if problems:
                failed += 1
                messages.append(f"bgg n={n} {kind} {sorted(masks)} halts={pattern}: {', '.join(problems)}")
        return failed, messages

    def crosscheck(self) -> dict:
        return {"bgg_records": sum(records for _, records, _ in self.outputs)}


def _interleave(items: list, key) -> list:
    """Spread each key's items evenly over the job, keeping their order.

    Timing noise here comes in phases of a few seconds; a group run in one
    stretch would see a single phase, so its latencies would swing with it.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    placed = [((i + 0.5) / len(group), rank, item)
              for rank, group in enumerate(groups.values()) for i, item in enumerate(group)]
    return [item for _, _, item in sorted(placed, key=lambda p: p[:2])]


def _all_families(n: int):
    candidates = range(1, 1 << n)
    for r in range(len(candidates) + 1):
        yield from (list(c) for c in itertools.combinations(candidates, r))
