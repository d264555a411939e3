"""Batch command-line front door.

Subcommands: setcon, classify, alpha, compare, simulate, enumerate, check,
bgg.  Exit codes are stable across subcommands: 0 means every check passed
or was not applicable, 1 means at least one property violation (a witness
file is written), 2 means an input error, an InputError raised by the
checks here.  Any other exception, a library ValueError on input that
passed them included, is a fault of the program and ends in a traceback.  All
randomness flows from an explicit seed, which is printed.  Each subcommand
declares only the flags it reads: `--out` belongs to the five that write
files (alpha, simulate, enumerate, check, bgg).  `enumerate` and `check`
take `--alpha` exactly where their protocol's policy reads an agreement
function (`_policy_alpha`); `simulate` draws its schedules from
`--adversary` or `--alpha`, so it takes either or both.

`run_campaign` is the one campaign engine: `simulate`, `enumerate` and the
test suite all check protocol runs through it.  A run's verdicts come from
its protocol's policy (`Policy.verdicts`), so `check --protocol P` gives a
trace that `simulate --protocol P` wrote the verdicts its campaign gave it.
The two campaign subcommands split a large campaign across the usable cores
(`_sharded_campaign`) and merge the shards into the result one process
would have given; if any shard fails, the campaign runs again in one
process, which gives its result or error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from . import adversary as adv_mod
from . import bgg as bgg_mod
from .alpha import AgreementFunction, admits_trace, compare_pointwise
from .checkers import (
    Verdict,
    check_alpha_agreement,
    check_k_agreement,
    check_termination,
    check_validity,
)
from .processes import ids_of
from .protocols import (
    AdaptiveSetConsensus,
    Cons23,
    EmbeddedAgreement,
    Protocol,
    RoundRobinSetConsensus,
    SafeAgreement,
    default_inputs,
    safe_agreement_unsafe_halt,
)
from .sim import (
    RunTrace,
    Schedule,
    TransitionMemo,
    check_schedulable,
    count_schedules,
    enumerate_schedules,
    generate_admissible_schedule,
    generate_schedule,
    run_to_quiescence,
    trace_from_json_obj,
    trace_to_json_obj,
)

DEFAULT_SEED = 1
DEFAULT_SIM_BUDGET = 96

# The fewest runs a campaign shard takes.  A worker costs its call 3.5-4 ms
# (fork, a cold first run, the pickled result, the reap; a bare fork and
# read-back took 1.7-2.4 ms), on 2 cores with Python 3.11.7.  A seeded run
# takes 40-160 us, and an enumerated run, whose shard reads repeated program
# transitions from its own memo, 25-50 us (35-70 us resuming every program),
# so a 500-run shard does 12-80 ms of work.  With 400-run shards safe
# agreement at n = 2 was at times slower on two processes than on one.  With
# the memo, a floor of 300 runs was not resolvably faster on the benchmark's
# enumerations, and one that split none of them made their job 20-25% slower
# in wall time.
MIN_SHARD_RUNS = 500


class InputError(Exception):
    pass


def _checked(call, *args):
    """call(*args), where a ValueError can only come from the user's input: it becomes an InputError."""
    try:
        return call(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: not UTF-8, not JSON, or an integer literal past the int-string limit;
    # RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_adversary(path: str):
    try:
        return adv_mod.adversary_from_json_obj(_load_json(path))
    except ValueError as exc:
        raise InputError(f"bad adversary file {path}: {exc}") from exc


def _load_alpha(path: str, strict: bool = True) -> AgreementFunction:
    try:
        return AgreementFunction.from_json_obj(_load_json(path), strict=strict)
    except ValueError as exc:
        raise InputError(f"bad agreement-function file {path}: {exc}") from exc


def _emit(args, obj: dict, lines: list[str]) -> None:
    """Print the report.  A reader that closed the pipe early does not change
    the exit code: stdout then points at devnull, so that the interpreter's
    own flush at exit does not fail again."""
    try:
        if args.format == "json":
            print(json.dumps(obj, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _set_text(ids: list[int]) -> str:
    return "{" + ",".join(map(str, ids)) + "}"


def _member_texts(n: int) -> list[str]:
    """The ids of every mask over {1..n}, ascending and comma-separated, indexed by mask.

    The masks that hold process i are those below 2**(i-1) plus its bit, so
    each of their texts is an earlier one with i appended.
    """
    texts = [""]
    for i in range(1, n + 1):
        texts += [f"{text},{i}" if text else str(i) for text in texts]
    return texts


def _out_dir(args) -> Path:
    path = Path(args.out) if args.out else Path("advlab-out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use {path} as the output directory: {exc}") from exc
    return path


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _report(args, obj: dict, lines: list[str], failures: list[dict]) -> int:
    """Write the witness file when anything failed, print the report, return the exit code."""
    if failures:
        path = _out_dir(args) / "witnesses.json"
        _write(path, json.dumps(failures, sort_keys=True, indent=2))
        obj["witness_file"] = str(path)
        lines.append(f"witness_file={path}")
    _emit(args, obj, lines)
    return 1 if failures else 0


def _parse_inputs(args, n: int) -> dict[int, int]:
    if args.inputs is None:
        return default_inputs(n)
    try:
        values = [int(x) for x in args.inputs.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --inputs value {args.inputs!r}") from exc
    if len(values) != n:
        raise InputError(f"--inputs needs {n} comma-separated values, got {len(values)}")
    return {i + 1: v for i, v in enumerate(values)}


def cmd_setcon(args) -> int:
    adversary = _load_adversary(args.adversary)
    witness = adv_mod.setcon_witness(adversary)
    value = witness.value
    links = [(ids_of(adversary.n, s), a) for s, a in witness.chain]
    obj: dict = {"setcon": value, "witness": [{"live_set": ids, "removed": a} for ids, a in links]}
    lines = [f"setcon={value}"]
    lines += [f"witness: pick {_set_text(ids)} drop {a}" for ids, a in links]
    hitting = adv_mod.csize(adversary)
    if hitting is not None:
        obj["csize"] = hitting
        lines.append(f"csize={hitting}")
    sizes = adv_mod.symmetric_setcon(adversary)
    if sizes:  # None for a family that is not symmetric, 0 for the empty one
        obj["distinct_sizes"] = sizes
        lines.append(f"distinct_sizes={sizes}")
    _emit(args, obj, lines)
    return 0


def cmd_classify(args) -> int:
    adversary = _load_adversary(args.adversary)
    closed = adv_mod.is_superset_closed(adversary)
    symmetric = adv_mod.is_symmetric(adversary)
    pair = adv_mod.fairness_counterexample(adversary)
    obj: dict = {"superset_closed": closed, "symmetric": symmetric, "fair": pair is None}
    lines = [
        f"superset_closed={str(closed).lower()}",
        f"symmetric={str(symmetric).lower()}",
        f"fair={str(pair is None).lower()}",
    ]
    if pair is not None:
        region, targets = (ids_of(adversary.n, m) for m in pair)
        # By the fairness criterion (`fairness_counterexample`), the reported
        # Q has |Q| = s(P), and α(Q, P) = |Q| - 1 at the first violating P.
        bound = len(targets)
        got = bound - 1
        obj["counterexample"] = {"P": region, "Q": targets, "setcon_PQ": got, "bound": bound}
        lines.append(
            f"counterexample: P={_set_text(region)} Q={_set_text(targets)} setcon_PQ={got} bound={bound}"
        )
    _emit(args, obj, lines)
    return 0


def cmd_alpha(args) -> int:
    adversary = _load_adversary(args.adversary)
    fn = adv_mod.agreement_function(adversary)
    obj = fn.to_json_obj()
    lines = []  # 2**n rows, printed only as text
    if args.format == "text":
        lines = [f"alpha({{{text}}})={level}" for text, level in zip(_member_texts(fn.n), fn.table)]
    if args.out:
        path = _out_dir(args) / (Path(args.adversary).stem + ".alpha.json")
        _write(path, json.dumps(obj, sort_keys=True))
        lines.append(f"wrote {path}")
    _emit(args, obj, lines)
    return 0


def cmd_compare(args) -> int:
    a = _load_alpha(args.alpha_a, strict=False)
    b = _load_alpha(args.alpha_b, strict=False)
    verdict = _checked(compare_pointwise, a, b)
    _emit(args, {"comparison": verdict.value}, [f"comparison={verdict.value}"])
    return 0


class Policy(NamedTuple):
    """How one protocol is built, and how its runs are checked."""

    make: Callable[[int, dict, Optional[AgreementFunction]], Protocol]  # (n, inputs, fn) -> a fresh protocol
    agreement: Callable[[RunTrace, Optional[AgreementFunction]], Verdict]  # checked on every run
    live: Callable[[RunTrace, Optional[AgreementFunction]], bool]  # when termination is checked
    among: Optional[tuple[int, ...]] = None  # the processes that must terminate; None: all correct
    needs_fn: bool = True  # whether make and the checks need an agreement function

    def verdicts(self, trace: RunTrace, fn: Optional[AgreementFunction]) -> list[Verdict]:
        """A run's verdicts, for a campaign and for `check` alike: validity, then
        the agreement property, then termination where the live condition holds."""
        verdicts = [check_validity(trace), self.agreement(trace, fn)]
        if self.live(trace, fn):
            verdicts.append(check_termination(trace, among=self.among))
        return verdicts


# Keyed by the protocol's `name`; the only place a protocol name maps to
# behaviour.  Constructors and checkers are looked up in this module when a
# protocol is built or a run is checked, not when the table is built.
POLICIES = {
    "safe-agreement": Policy(
        lambda n, inputs, fn: SafeAgreement(n, inputs),
        lambda trace, fn: check_k_agreement(trace, 1),
        lambda trace, fn: not safe_agreement_unsafe_halt(trace.schedule),
        needs_fn=False,
    ),
    "alpha-setcons": Policy(
        lambda n, inputs, fn: RoundRobinSetConsensus(n, inputs, fn),
        lambda trace, fn: check_k_agreement(trace, fn.table[sum(1 << (pid - 1) for pid in trace.inputs)]),
        lambda trace, fn: admits_trace(fn, trace),
    ),
    "adaptive": Policy(
        lambda n, inputs, fn: AdaptiveSetConsensus(n, inputs, EmbeddedAgreement(fn)),
        lambda trace, fn: check_alpha_agreement(trace, fn),
        lambda trace, fn: admits_trace(fn, trace),
    ),
    "cons23": Policy(
        lambda n, inputs, fn: Cons23(n, inputs),
        lambda trace, fn: check_k_agreement(trace, 1),
        lambda trace, fn: True,
        among=(2, 3),
        needs_fn=False,
    ),
}


class CampaignResult(NamedTuple):
    runs: int
    violations: dict[str, int]  # property -> violated runs, for every property checked at least once
    failures: list[dict]  # one record per violation, in run order
    activations: int  # steps taken over all runs, completion tails included
    tail_activations: int  # the part of them taken by completion tails
    tail_exhausted: int  # runs whose tail reached max_tail > 0 with a required process undecided
    checked: dict[str, int]  # property -> runs it was checked on; the same keys as violations


def run_campaign(
    make_protocol: Callable[[], Protocol],
    schedules: Iterable[tuple[object, Schedule]],
    fn: Optional[AgreementFunction],
    max_tail: int,
    trace_dir: Optional[Path] = None,
    memo: bool = False,
) -> CampaignResult:
    """Run a fresh protocol to quiescence on each labelled schedule and check it.

    The protocol's `name` selects its policy in POLICIES, whose `verdicts`
    judge each run.  With trace_dir, each trace is written there as
    trace-<label>.json; a trace that cannot be written raises InputError.
    The result also counts the activations the runs took, how many of them
    their completion tails took, and the runs whose tail was cut off at
    max_tail before every required process decided.  Runs are independent,
    so `_sharded_campaign` can split a stream across processes, run this on
    each part and merge the parts into the result of one call.

    With memo, the runs share one `TransitionMemo`, so a process history
    that an earlier run took is read instead of resumed; the results and
    traces are the same.  It pays where histories recur, as under
    enumeration, where each recurs 40-90 times.  A seeded history recurs
    1.3-2 times, and the misses, which replay the process's earlier views,
    cost more than the hits save.
    """
    transitions = TransitionMemo() if memo else None
    violations: dict[str, int] = {}
    checked: dict[str, int] = {}
    failures: list[dict] = []
    runs = activations = tail_activations = tail_exhausted = 0
    for label, schedule in schedules:
        protocol = make_protocol()
        policy = POLICIES[protocol.name]
        required = None if policy.among is None else {p for p in policy.among if p in schedule.correct}
        trace = run_to_quiescence(protocol, schedule, max_tail=max_tail, required=required, memo=transitions)
        runs += 1
        taken = len(trace.schedule.steps)
        tail = taken - len(schedule.steps)
        activations += taken
        tail_activations += tail
        if tail >= max_tail > 0:
            need = schedule.correct.members() if required is None else required
            decided = {d.pid for d in trace.decisions}
            tail_exhausted += any(p not in decided for p in need)
        if trace_dir is not None:
            path = trace_dir / f"trace-{label}.json"
            _write(path, json.dumps(trace_to_json_obj(trace), sort_keys=True))
        for verdict in policy.verdicts(trace, fn):
            checked[verdict.prop] = checked.get(verdict.prop, 0) + 1
            violations[verdict.prop] = violations.get(verdict.prop, 0) + (0 if verdict.passed else 1)
            if not verdict.passed:
                failures.append(
                    {
                        "run": str(label),
                        "property": verdict.prop,
                        "witness": verdict.witness,
                        "steps": list(schedule.steps),
                        "halted_at": {str(p): i for p, i in schedule.halted_at.items()},
                    }
                )
    return CampaignResult(runs, violations, failures, activations, tail_activations, tail_exhausted, checked)


def _shard_count(runs: int) -> int:
    """How many processes a campaign of this many runs is split across.

    min(usable cores, runs // MIN_SHARD_RUNS), and at least 1.  Always 1
    where os.fork is missing or a second thread runs: a forked child holds
    only the forking thread, and any lock another thread held stays taken.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(cores, runs // MIN_SHARD_RUNS))


def _merge(results: list[CampaignResult]) -> CampaignResult:
    """One CampaignResult from the shards': counts summed, failures in run order."""
    violations: dict[str, int] = {}
    checked: dict[str, int] = {}
    for result in results:
        for total, part in ((violations, result.violations), (checked, result.checked)):
            for prop, count in part.items():
                total[prop] = total.get(prop, 0) + count
    # stable, so one run's failures keep their order
    failures = sorted((f for result in results for f in result.failures), key=lambda f: int(f["run"]))
    return CampaignResult(
        sum(r.runs for r in results),
        violations,
        failures,
        sum(r.activations for r in results),
        sum(r.tail_activations for r in results),
        sum(r.tail_exhausted for r in results),
        checked,
    )


def _sharded_campaign(
    make_protocol: Callable[[], Protocol],
    shard_stream: Callable[[int, int], Iterable[tuple[int, Schedule]]],
    fn: Optional[AgreementFunction],
    max_tail: int,
    trace_dir: Optional[Path] = None,
    shards: int = 1,
    memo: bool = False,
) -> CampaignResult:
    """run_campaign over a labelled stream split into shards, one process each.

    shard_stream(k, shards) yields runs k, k + shards, k + 2 * shards, ...
    of the stream; labels are ints that increase along it.  The merged
    result of the shards equals run_campaign's on the whole stream, and so
    do the trace files.  When any shard fails (an error, or a worker lost),
    the campaign runs again in this process over the whole stream, the call
    that shards == 1 makes, so its result or its earliest error is one
    process's; the trace files of runs after an error may then differ from
    one process's.  memo is run_campaign's; each shard makes its own.
    """
    if shards > 1:
        results = _shard_results(
            lambda k: run_campaign(make_protocol, shard_stream(k, shards), fn, max_tail, trace_dir, memo), shards
        )
        if results is not None:
            return _merge(results)
    return run_campaign(make_protocol, shard_stream(0, 1), fn, max_tail, trace_dir, memo)


def _shard_results(run_shard: Callable[[int], CampaignResult], shards: int) -> Optional[list[CampaignResult]]:
    """run_shard(k) for k in range(shards), or None once any shard has failed.

    The parent forks shards - 1 workers, runs shard 0 itself, then reads
    each worker's pickled result from its pipe to the end.  A worker that
    fails writes nothing, so its pipe does not unpickle.  Every worker is
    reaped before this returns.
    """
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for k in range(1, shards):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    # Leave through os._exit whatever happens: no exit handler runs
                    # and no buffer inherited from the parent (its stdout) is flushed.
                    try:
                        sink.write(pickle.dumps(run_shard(k)))
                        sink.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        try:
            return [run_shard(0)] + [pickle.loads(pipe.read()) for pipe in pipes]
        except Exception:
            return None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _policy(name: str) -> Policy:
    if name not in POLICIES:
        raise InputError(f"unknown protocol {name!r} (choose from {', '.join(POLICIES)})")
    return POLICIES[name]


def _check_tail(args) -> None:
    if args.tail < 0:
        raise InputError(f"--tail must not be negative, got {args.tail}")


def _policy_alpha(args, policy: Policy) -> Optional[AgreementFunction]:
    """The agreement function of --alpha, which is given exactly where the policy reads one."""
    given = args.alpha is not None
    if given != policy.needs_fn:
        raise InputError(f"{args.protocol} {'does not read' if given else 'needs'} --alpha")
    return _load_alpha(args.alpha) if given else None


def _protocol_factory(policy: Policy, fn, n: int, inputs: dict[int, int]) -> Callable[[], Protocol]:
    """The campaign's fresh-protocol factory.  One protocol is built here, so
    that a constructor's input error is raised before anything is printed or
    forked."""
    _checked(policy.make, n, inputs, fn)
    return lambda: policy.make(n, inputs, fn)


def _campaign(
    args,
    make,
    fn,
    runs: int,
    shard_stream,
    trace_dir: Optional[Path] = None,
    memo: bool = False,
    header: Optional[dict] = None,
) -> int:
    """Run and report a campaign of `runs` runs; with trace_dir, each run's trace goes there.

    shard_stream and memo are as for `_sharded_campaign`, which gets as many
    shards as `_shard_count` gives.  The caller makes trace_dir only once the
    arguments have passed their checks, so an input error leaves nothing
    behind.  The header's fields open the JSON report.
    """
    name = args.protocol
    result = _sharded_campaign(make, shard_stream, fn, args.tail, trace_dir, _shard_count(runs), memo)
    counts = sorted(result.violations.items())
    obj = {
        **(header or {}),
        "protocol": name,
        "runs": result.runs,
        "violations": dict(counts),
        "failed": len(result.failures),
        "activations": result.activations,
        "tail_activations": result.tail_activations,
        "tail_exhausted": result.tail_exhausted,
        "checked": result.checked,
    }
    lines = [f"protocol={name}", f"runs={result.runs}"] + [f"violations[{k}]={v}" for k, v in counts]
    return _report(args, obj, lines, result.failures)


def cmd_simulate(args) -> int:
    policy = _policy(args.protocol)
    _check_tail(args)
    if args.seeds < 1:
        raise InputError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seed < 0:  # Random(-s) seeds as Random(s) does: the runs would repeat
        raise InputError(f"--seed must not be negative, got {args.seed}")
    adversary = None if args.adversary is None else _load_adversary(args.adversary)
    fn = None if args.alpha is None else _load_alpha(args.alpha)
    budget = args.budget
    if adversary is not None:
        if fn is not None and fn.n != adversary.n:
            raise InputError(f"universe mismatch: --adversary has n={adversary.n}, --alpha has n={fn.n}")
        n, generate, model = adversary.n, generate_schedule, adversary
        fn = adv_mod.agreement_function(adversary) if fn is None else fn
    elif fn is not None:
        n, generate, model = fn.n, generate_admissible_schedule, fn
    else:
        raise InputError("simulate needs --adversary or --alpha")
    # every input error is raised before the header, so stdout stays empty
    inputs = _parse_inputs(args, n)
    _checked(check_schedulable, model, budget)
    make = _protocol_factory(policy, fn, n, inputs)
    trace_dir = _out_dir(args) if args.out else None
    base = args.seed
    header = {"seed": base, "seeds": args.seeds, "budget": budget}
    if args.format == "text":
        print(" ".join(f"{key}={value}" for key, value in header.items()))
    seeds = range(base, base + args.seeds)

    def shard_stream(k: int, shards: int):
        # each shard generates only its own seeds' schedules
        return ((seed, generate(model, seed, budget)) for seed in seeds[k::shards])

    return _campaign(args, make, fn, args.seeds, shard_stream, trace_dir, header=header)


def cmd_enumerate(args) -> int:
    _check_tail(args)
    if args.protocol is None:
        for flag, value in (("--alpha", args.alpha), ("--inputs", args.inputs), ("--out", args.out)):
            if value is not None:
                raise InputError(f"{flag} needs --protocol: enumerate without one only counts schedules")
        count = _checked(count_schedules, args.n, args.steps, args.halts)
        _emit(args, {"schedules": count}, [f"schedules={count}"])
        return 0
    policy = _policy(args.protocol)
    fn = _policy_alpha(args, policy)
    if fn is not None and fn.n != args.n:
        raise InputError(f"universe mismatch: --n has n={args.n}, --alpha has n={fn.n}")
    count = _checked(count_schedules, args.n, args.steps, args.halts)
    make = _protocol_factory(policy, fn, args.n, _parse_inputs(args, args.n))
    from itertools import islice

    def shard_stream(k: int, shards: int):
        # skipping another shard's schedule costs a few us, against at least 25 us for a run
        return islice(enumerate(enumerate_schedules(args.n, args.steps, args.halts)), k, None, shards)

    return _campaign(args, make, fn, count, shard_stream, memo=True)


def cmd_check(args) -> int:
    """Re-check trace files under the policy of --protocol: the verdicts its campaign gives each run."""
    policy = _policy(args.protocol)
    fn = _policy_alpha(args, policy)
    failures: list[dict] = []
    all_lines: list[str] = []
    reports = []
    for path in args.trace:
        obj = _load_json(path)
        try:
            trace = trace_from_json_obj(obj)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad trace file {path}: {type(exc).__name__}: {exc}") from exc
        if fn is not None and fn.n != trace.n:
            raise InputError(f"universe mismatch: trace {path} has n={trace.n}, --alpha has n={fn.n}")
        _checked(policy.make, trace.n, trace.inputs, fn)  # a trace the protocol could not have produced
        verdicts = policy.verdicts(trace, fn)
        reports.append({"trace": path, "verdicts": [v.to_json_obj() for v in verdicts]})
        for v in verdicts:
            all_lines.append(f"{path}: {v.prop}={'pass' if v.passed else 'FAIL'}")
            if not v.passed:
                failures.append({"trace": path, "property": v.prop, "witness": v.witness})
    return _report(args, {"reports": reports, "failed": len(failures)}, all_lines, failures)


def cmd_bgg(args) -> int:
    adversary = _load_adversary(args.adversary)
    fair = adv_mod.is_fair(adversary)
    warm_up = bgg_mod.warm_up_budget(adversary.n)
    budget = warm_up if args.budget is None else args.budget
    if budget < 1:
        raise InputError(f"the bgg budget must be at least 1 round, got {budget}")
    sim_count = adv_mod.setcon(adversary)
    pattern: dict[int, int] = {}
    for item in args.halt or []:
        try:
            sid, rounds = (int(x) for x in item.split(":"))
        except ValueError as exc:
            raise InputError(f"bad --halt value {item!r}, expected SIM:ROUNDS") from exc
        if sim_count == 0:
            raise InputError(f"--halt {item}: this adversary has no simulators (no live sets)")
        if not 1 <= sid <= sim_count:
            raise InputError(f"--halt {item}: simulator ids run 1..{sim_count} for this adversary")
        if rounds < 0:
            raise InputError(f"--halt {item}: the round count must not be negative")
        if sid in pattern:
            raise InputError(f"--halt {item}: simulator {sid} is already given --halt {sid}:{pattern[sid]}")
        pattern[sid] = rounds
    history = bgg_mod.run_bgg_selection(
        adversary, pattern=pattern, budget=budget, gate_mode=args.gate
    )
    obj: dict = {
        "gate_mode": history.gate_mode,
        "simulators": history.sim_count,
        "budget": budget,
        "fair": fair,
        "rounds_recorded": len(history.records),
    }
    lines = [
        f"gate_mode={history.gate_mode}",
        f"simulators={history.sim_count}",
        f"budget={budget}",
        f"fair={str(fair).lower()}",
    ]
    per_simulator = history.per_simulator()
    obj["per_simulator"] = {str(sid): counts for sid, counts in per_simulator.items()}
    for sid, counts in per_simulator.items():
        lines.append(f"simulator={sid} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    warnings = 0
    failures: list[dict] = []
    if not adversary.live_sets or not fair:
        obj["properties"] = "not-applicable"
        why = "has no live sets" if not adversary.live_sets else "is not fair"
        lines.append(f"properties=not-applicable (adversary {why})")
    elif budget < warm_up:
        warnings += 1
        obj["properties"] = "inconclusive"
        lines.append(f"properties=inconclusive (budget {budget} below warm-up {warm_up})")
    else:
        verdicts = bgg_mod.selection_report(history)
        obj["properties"] = [v.to_json_obj() for v in verdicts]
        for v in verdicts:
            lines.append(f"{v.prop}={'pass' if v.passed else 'FAIL'}")
            if not v.passed:
                failures.append({"property": v.prop, "witness": v.witness})
    if args.out:
        path = _out_dir(args) / "bgg-history.json"
        _write(path, json.dumps(history.to_json_obj(), sort_keys=True))
        lines.append(f"history={path}")
        obj["history_file"] = str(path)
    obj["warnings"] = warnings
    if warnings:
        lines.append(f"warnings={warnings}")
    return _report(args, obj, lines, failures)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    for name, func, text in (
        ("setcon", cmd_setcon, "set-consensus power of an adversary, with witness"),
        ("classify", cmd_classify, "superset-closed / symmetric / fair classification"),
        ("alpha", cmd_alpha, "derive the adversary's agreement function"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--adversary", required=True)
        common(p, func)
        if name == "alpha":
            p.add_argument("--out", metavar="DIR", help="also write the table to DIR/<adversary>.alpha.json")

    p = sub.add_parser("compare", help="pointwise order of two agreement functions")
    p.add_argument("alpha_a")
    p.add_argument("alpha_b")
    common(p, cmd_compare)

    p = sub.add_parser("simulate", help="seeded protocol campaign with property checking")
    p.add_argument("--protocol", required=True)
    p.add_argument("--adversary")
    p.add_argument("--alpha")
    p.add_argument("--inputs")
    p.add_argument("--tail", type=int, default=400)
    p.add_argument("--budget", type=int, default=DEFAULT_SIM_BUDGET)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seeds", type=int, default=100)
    common(p, cmd_simulate)
    p.add_argument("--out", metavar="DIR", help="write each run's trace and any witnesses.json here")

    p = sub.add_parser("enumerate", help="exhaustive small schedules, optionally with a protocol")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--halts", type=int, default=0)
    p.add_argument("--protocol")
    p.add_argument("--alpha")
    p.add_argument("--inputs")
    p.add_argument("--tail", type=int, default=120)
    common(p, cmd_enumerate)
    p.add_argument("--out", metavar="DIR", help="directory for witnesses.json (default advlab-out)")

    p = sub.add_parser("check", help="re-check recorded trace files under a protocol's policy")
    p.add_argument("--trace", action="append", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--alpha")
    common(p, cmd_check)
    p.add_argument("--out", metavar="DIR", help="directory for witnesses.json (default advlab-out)")

    p = sub.add_parser("bgg", help="live-set selection run with bounded property checks")
    p.add_argument("--adversary", required=True)
    # no default: the verbatim polarity fails live-set coverage on fair inputs, so the run names its polarity
    p.add_argument("--gate", choices=(bgg_mod.GATE_VERBATIM, bgg_mod.GATE_ADAPTIVE), required=True)
    p.add_argument("--halt", action="append", metavar="SIM:ROUNDS")
    p.add_argument("--budget", type=int, default=None, help="rounds (default: the warm-up budget, 400*n)")
    common(p, cmd_bgg)
    p.add_argument("--out", metavar="DIR", help="write bgg-history.json and any witnesses.json here")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
