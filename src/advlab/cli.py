"""Batch command-line front door.

Subcommands: setcon, classify, alpha, compare, simulate, enumerate, check,
bgg.  Exit codes are stable across subcommands: 0 means every check passed
or was not applicable, 1 means at least one property violation (a witness
file is written), 2 means an input error.  All randomness flows from an
explicit seed, which is printed; ADVLAB_BUDGET overrides the default
budget where none is given on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import adversary as adv_mod
from . import bgg as bgg_mod
from .alpha import AgreementFunction, compare_pointwise
from .checkers import (
    Verdict,
    check_alpha_agreement,
    check_k_agreement,
    check_termination,
    check_validity,
)
from .processes import ProcessSet
from .protocols import (
    AdaptiveSetConsensus,
    Cons23,
    EmbeddedAgreement,
    RoundRobinSetConsensus,
    SafeAgreement,
    default_inputs,
    safe_agreement_unsafe_halt,
)
from .sim import (
    check_alpha_compliance,
    enumerate_schedules,
    generate_admissible_schedule,
    generate_schedule,
    run_to_quiescence,
    trace_from_json_obj,
    trace_to_json_obj,
)

DEFAULT_SEED = 1
DEFAULT_SIM_BUDGET = 96
PROTOCOLS = ("safe-agreement", "alpha-setcons", "adaptive", "cons23")


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _set_text(ps: ProcessSet) -> str:
    return "{" + ",".join(map(str, ps.members())) + "}"


def _out_dir(args) -> Path:
    path = Path(args.out) if args.out else Path("advlab-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_witnesses(args, witnesses: list[dict]) -> Path:
    path = _out_dir(args) / "witnesses.json"
    path.write_text(json.dumps(witnesses, sort_keys=True, indent=2))
    return path


def _budget(args, default: int) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("ADVLAB_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"ADVLAB_BUDGET is not an integer: {env!r}") from exc
    return default


def _parse_inputs(args, n: int) -> dict[int, int]:
    if not getattr(args, "inputs", None):
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
    value = adv_mod.setcon(adversary)
    witness = adv_mod.setcon_witness(adversary)
    obj: dict = {
        "setcon": value,
        "witness": [{"live_set": list(s.members()), "removed": a} for s, a in witness.chain],
    }
    lines = [f"setcon={value}"]
    for s, a in witness.chain:
        lines.append(f"witness: pick {_set_text(s)} drop {a}")
    if adversary.live_sets and adv_mod.is_superset_closed(adversary):
        obj["csize"] = adv_mod.csize(adversary)
        lines.append(f"csize={obj['csize']}")
    if adv_mod.is_symmetric(adversary) and adversary.live_sets:
        obj["distinct_sizes"] = adv_mod.symmetric_setcon(adversary)
        lines.append(f"distinct_sizes={obj['distinct_sizes']}")
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
        region, targets = pair
        got = adversary.region_table(targets.bits)[region.bits]
        bound = min(len(targets), adversary.region_table((1 << adversary.n) - 1)[region.bits])
        obj["counterexample"] = {
            "P": list(region.members()),
            "Q": list(targets.members()),
            "setcon_PQ": got,
            "bound": bound,
        }
        lines.append(
            f"counterexample: P={_set_text(region)} Q={_set_text(targets)} setcon_PQ={got} bound={bound}"
        )
    _emit(args, obj, lines)
    return 0


def cmd_alpha(args) -> int:
    adversary = _load_adversary(args.adversary)
    fn = adv_mod.agreement_function(adversary)
    obj = fn.to_json_obj()
    lines = []
    for bits in range(1 << fn.n):
        lines.append(f"alpha({_set_text(ProcessSet(fn.n, bits))})={fn.of_bits(bits)}")
    if args.out:
        path = _out_dir(args) / (Path(args.adversary).stem + ".alpha.json")
        path.write_text(json.dumps(obj, sort_keys=True))
        lines.append(f"wrote {path}")
    _emit(args, obj, lines)
    return 0


def cmd_compare(args) -> int:
    a = _load_alpha(args.alpha_a, strict=False)
    b = _load_alpha(args.alpha_b, strict=False)
    verdict = compare_pointwise(a, b)
    _emit(args, {"comparison": verdict.value}, [f"comparison={verdict.value}"])
    return 0


def _fresh_protocol(name: str, n: int, inputs: dict, fn: AgreementFunction | None):
    if name == "safe-agreement":
        return SafeAgreement(n, inputs)
    if name == "alpha-setcons":
        if fn is None:
            raise InputError("alpha-setcons needs --alpha or --adversary")
        return RoundRobinSetConsensus(n, inputs, fn)
    if name == "adaptive":
        if fn is None:
            raise InputError("adaptive needs --alpha or --adversary")
        return AdaptiveSetConsensus(n, inputs, EmbeddedAgreement(fn))
    if name == "cons23":
        return Cons23(n, inputs)
    raise InputError(f"unknown protocol {name!r} (choose from {', '.join(PROTOCOLS)})")


def _check_run(name: str, trace, fn: AgreementFunction | None, schedule) -> list[Verdict]:
    verdicts = [check_validity(trace)]
    if name == "safe-agreement":
        verdicts.append(check_k_agreement(trace, 1))
        if not safe_agreement_unsafe_halt(schedule):
            verdicts.append(check_termination(trace))
    elif name == "alpha-setcons":
        assert fn is not None
        designated = ProcessSet.of(trace.n, trace.inputs)
        verdicts.append(check_k_agreement(trace, fn.value_of(designated)))
        if check_alpha_compliance(trace, fn):
            verdicts.append(check_termination(trace))
    elif name == "adaptive":
        assert fn is not None
        verdicts.append(check_alpha_agreement(trace, fn))
        if check_alpha_compliance(trace, fn):
            verdicts.append(check_termination(trace))
    elif name == "cons23":
        verdicts.append(check_k_agreement(trace, 1))
        verdicts.append(check_termination(trace, among=(2, 3)))
    return verdicts


def _campaign(args, name: str, fn, adversary, schedules, write_traces: bool) -> int:
    counts: dict[str, int] = {}
    failures: list[dict] = []
    runs = 0
    for label, schedule in schedules:
        n = schedule.n
        inputs = _parse_inputs(args, n)
        if name == "cons23":
            required = {p for p in (2, 3) if p in schedule.correct}
        else:
            required = None
        protocol = _fresh_protocol(name, n, inputs, fn)
        trace = run_to_quiescence(protocol, schedule, max_tail=args.tail, required=required)
        runs += 1
        if write_traces and args.out:
            path = _out_dir(args) / f"trace-{label}.json"
            path.write_text(json.dumps(trace_to_json_obj(trace), sort_keys=True))
        for verdict in _check_run(name, trace, fn, schedule):
            counts[verdict.prop] = counts.get(verdict.prop, 0) + (0 if verdict.passed else 1)
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
    obj = {
        "protocol": name,
        "runs": runs,
        "violations": {k: v for k, v in sorted(counts.items())},
        "failed": len(failures),
    }
    lines = [f"protocol={name}", f"runs={runs}"] + [
        f"violations[{k}]={v}" for k, v in sorted(counts.items())
    ]
    if failures:
        path = _write_witnesses(args, failures)
        obj["witness_file"] = str(path)
        lines.append(f"witness_file={path}")
    _emit(args, obj, lines)
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    if args.protocol not in PROTOCOLS:
        raise InputError(f"unknown protocol {args.protocol!r} (choose from {', '.join(PROTOCOLS)})")
    adversary = _load_adversary(args.adversary) if args.adversary else None
    fn = _load_alpha(args.alpha) if args.alpha else None
    if fn is None and adversary is not None:
        fn = adv_mod.agreement_function(adversary)
    if adversary is None and fn is None:
        raise InputError("simulate needs --adversary or --alpha")
    budget = _budget(args, DEFAULT_SIM_BUDGET)
    base = args.seed
    if args.format == "text":
        print(f"seed={base} seeds={args.seeds} budget={budget}")
    schedules = []
    for seed in range(base, base + args.seeds):
        if adversary is not None:
            schedules.append((seed, generate_schedule(adversary, seed, budget)))
        else:
            schedules.append((seed, generate_admissible_schedule(fn, seed, budget)))
    return _campaign(args, args.protocol, fn, adversary, schedules, write_traces=bool(args.out))


def cmd_enumerate(args) -> int:
    if args.protocol is None:
        count = sum(1 for _ in enumerate_schedules(args.n, args.steps, args.halts))
        _emit(args, {"schedules": count}, [f"schedules={count}"])
        return 0
    if args.protocol not in PROTOCOLS:
        raise InputError(f"unknown protocol {args.protocol!r} (choose from {', '.join(PROTOCOLS)})")
    fn = _load_alpha(args.alpha) if args.alpha else None
    if fn is None and args.adversary:
        fn = adv_mod.agreement_function(_load_adversary(args.adversary))
    schedules = (
        (i, sched) for i, sched in enumerate(enumerate_schedules(args.n, args.steps, args.halts))
    )
    return _campaign(args, args.protocol, fn, None, schedules, write_traces=False)


def cmd_check(args) -> int:
    fn = _load_alpha(args.alpha) if args.alpha else None
    among = None
    if args.among:
        try:
            among = [int(x) for x in args.among.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --among value {args.among!r}") from exc
    failures: list[dict] = []
    all_lines: list[str] = []
    reports = []
    for path in args.trace:
        obj = _load_json(path)
        try:
            trace = trace_from_json_obj(obj)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad trace file {path}: {type(exc).__name__}: {exc}") from exc
        verdicts = [check_validity(trace), check_termination(trace, among=among)]
        if fn is not None:
            verdicts.append(check_alpha_agreement(trace, fn))
        if args.k is not None:
            verdicts.append(check_k_agreement(trace, args.k))
        reports.append({"trace": path, "verdicts": [v.to_json_obj() for v in verdicts]})
        for v in verdicts:
            all_lines.append(f"{path}: {v.prop}={'pass' if v.passed else 'FAIL'}")
            if not v.passed:
                failures.append({"trace": path, "property": v.prop, "witness": v.witness})
    obj: dict = {"reports": reports, "failed": len(failures)}
    if failures:
        path = _write_witnesses(args, failures)
        obj["witness_file"] = str(path)
        all_lines.append(f"witness_file={path}")
    _emit(args, obj, all_lines)
    return 1 if failures else 0


def cmd_bgg(args) -> int:
    adversary = _load_adversary(args.adversary)
    fair = adv_mod.is_fair(adversary)
    budget = _budget(args, 400 * adversary.n)
    sim_count = adv_mod.setcon(adversary)
    pattern: dict[int, int] = {}
    for item in args.halt or []:
        try:
            sid, rounds = (int(x) for x in item.split(":"))
        except ValueError as exc:
            raise InputError(f"bad --halt value {item!r}, expected SIM:ROUNDS") from exc
        if not 1 <= sid <= sim_count:
            raise InputError(f"--halt {item}: simulator ids run 1..{sim_count} for this adversary")
        if rounds < 0:
            raise InputError(f"--halt {item}: the round count must not be negative")
        pattern[sid] = rounds
    history = bgg_mod.run_bgg_selection(
        adversary, pattern=pattern, budget=budget, gate_mode=args.gate
    )
    warmed_up = budget >= 400 * adversary.n
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
    warnings = 0
    failures: list[dict] = []
    if not fair:
        obj["properties"] = "not-applicable"
        lines.append("properties=not-applicable (adversary is not fair)")
    elif not warmed_up:
        warnings += 1
        obj["properties"] = "inconclusive"
        lines.append(f"properties=inconclusive (budget {budget} below warm-up {400 * adversary.n})")
    else:
        verdicts = bgg_mod.selection_report(history)
        obj["properties"] = [v.to_json_obj() for v in verdicts]
        for v in verdicts:
            lines.append(f"{v.prop}={'pass' if v.passed else 'FAIL'}")
            if not v.passed:
                failures.append({"property": v.prop, "witness": v.witness})
    if args.out:
        path = _out_dir(args) / "bgg-history.json"
        path.write_text(json.dumps(history.to_json_obj(), sort_keys=True))
        lines.append(f"history={path}")
        obj["history_file"] = str(path)
    if failures:
        path = _write_witnesses(args, failures)
        lines.append(f"witness_file={path}")
        obj["witness_file"] = str(path)
    obj["warnings"] = warnings
    if warnings:
        lines.append(f"warnings={warnings}")
    _emit(args, obj, lines)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, seeds=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="directory for traces, tables, and witness files")
        if budget:
            p.add_argument("--budget", type=int, default=None)
        if seeds:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--seeds", type=int, default=100)

    p = sub.add_parser("setcon", help="set-consensus power of an adversary, with witness")
    p.add_argument("--adversary", required=True)
    common(p)
    p.set_defaults(func=cmd_setcon)

    p = sub.add_parser("classify", help="superset-closed / symmetric / fair classification")
    p.add_argument("--adversary", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("alpha", help="derive the adversary's agreement function")
    p.add_argument("--adversary", required=True)
    common(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("compare", help="pointwise order of two agreement functions")
    p.add_argument("alpha_a")
    p.add_argument("alpha_b")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="seeded protocol campaign with property checking")
    p.add_argument("--protocol", required=True)
    p.add_argument("--adversary")
    p.add_argument("--alpha")
    p.add_argument("--inputs")
    p.add_argument("--tail", type=int, default=400)
    common(p, budget=True, seeds=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exhaustive small schedules, optionally with a protocol")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--halts", type=int, default=0)
    p.add_argument("--protocol")
    p.add_argument("--adversary")
    p.add_argument("--alpha")
    p.add_argument("--inputs")
    p.add_argument("--tail", type=int, default=120)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="re-check recorded trace files")
    p.add_argument("--trace", action="append", required=True)
    p.add_argument("--alpha")
    p.add_argument("--k", type=int)
    p.add_argument("--among", help="restrict the termination check to these processes (CSV)")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bgg", help="live-set selection run with bounded property checks")
    p.add_argument("--adversary", required=True)
    p.add_argument("--gate", choices=(bgg_mod.GATE_VERBATIM, bgg_mod.GATE_ADAPTIVE), default=bgg_mod.GATE_VERBATIM)
    p.add_argument("--halt", action="append", metavar="SIM:ROUNDS")
    common(p, budget=True)
    p.set_defaults(func=cmd_bgg)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
