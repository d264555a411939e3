"""Per-layer spans and counts, recorded from outside the program.

`install` wraps advlab's public functions at the module attributes through
which callers reach them (for example `advlab.cli.run_to_quiescence`, which
`cli` calls by that name) and returns a function that restores them.  Each
wrapped call is a span: name, start, end and the enclosing span.  A span's
self time is its duration minus the time of the spans inside it.  Counts
come from what the wrapped functions return (traces, verdicts, histories),
plus two count-only hooks: restriction calls and `ProcessSet` creations.

Generator resumptions of protocol programs are spans too, but so many that
they are summed per name instead of stored one by one.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Per-layer metric -> (kind, source).  "self" is the self time of the span
# name, "calls" its call count, "count" a count from returned values.
LAYER_METRICS = {
    "adversary.setcon_s": ("self", "adversary.setcon"),
    "adversary.setcon_calls": ("calls", "adversary.setcon"),
    "adversary.witness_s": ("self", "adversary.witness"),
    "adversary.agreement_function_s": ("self", "adversary.agreement_function"),
    "adversary.fairness_s": ("self", "adversary.fairness"),
    "adversary.restrict_calls": ("count", "adversary.restrict_calls"),
    "processes.sets_created": ("count", "processes.sets_created"),
    "bgg.round_self_s": ("self", "bgg.round"),
    "bgg.rounds": ("calls", "bgg.round"),
    "bgg.power_within_s": ("self", "bgg.power_within"),
    "bgg.power_within_calls": ("calls", "bgg.power_within"),
    "bgg.reselections": ("count", "bgg.reselections"),
    "bgg.fallbacks": ("count", "bgg.fallbacks"),
    "bgg.blocked": ("count", "bgg.blocked"),
    "bgg.step_success_ratio": ("ratio", ("bgg.successes", "bgg.stepped")),
    "bgg.report_s": ("self", "bgg.report"),
    "sim.generate_s": ("self", "sim.generate"),
    "sim.schedules_generated": ("calls", "sim.generate"),
    "sim.enumerate_s": ("self", "sim.enumerate"),
    "sim.schedules_enumerated": ("count", "sim.schedules_enumerated"),
    "sim.runs": ("calls", "sim.execute"),
    "sim.execute_self_s": ("self", "sim.execute"),
    "sim.activations": ("count", "sim.activations"),
    "sim.tail_activations": ("count", "sim.tail_activations"),
    "sim.tail_exhausted": ("count", "sim.tail_exhausted"),
    "protocols.program_s": ("self", "protocols.program"),
    "protocols.resumptions": ("calls", "protocols.program"),
    "checkers.validity_s": ("self", "checkers.validity"),
    "checkers.k_agreement_s": ("self", "checkers.k_agreement"),
    "checkers.alpha_agreement_s": ("self", "checkers.alpha_agreement"),
    "checkers.termination_s": ("self", "checkers.termination"),
    "checkers.verdicts": ("count", "checkers.verdicts"),
    "checkers.violations": ("count", "checkers.violations"),
    "alpha.admits_s": ("self", "alpha.admits"),
    "alpha.admits_calls": ("calls", "alpha.admits"),
    "cli.self_s": ("self", "cli.main"),
}


def metric_unit(name: str) -> str:
    kind = LAYER_METRICS[name][0]
    return "s" if kind == "self" else "ratio" if kind == "ratio" else "count"


class Tracer:
    """Spans kept in memory as parallel arrays; self time and calls summed per name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list[list] = []  # [stored index, child time]
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, nid: int, fn, args, kwargs, store: bool = True):
        stack = self._stack
        outer = stack[-1] if stack else None
        if store:
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(outer[0] if outer else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            index = outer[0] if outer else -1
        frame = [index, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if store:
                self.start[index] = t0
                self.end[index] = t1
            took = t1 - t0
            self.self_s[nid] += took - frame[1]
            self.calls[nid] += 1
            if outer:
                outer[1] += took

    def layer_metrics(self) -> dict[str, float]:
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = self.self_s.get(by_name.get(source, -1), 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(by_name.get(source, -1), 0)
            elif kind == "count":
                out[metric] = self.counts[source]
            else:
                hits, base = (self.counts[s] for s in source)
                out[metric] = hits / base if base else 0.0
        return out

    def write(self, base: Path) -> dict:
        """Write the stored spans: `<base>.json` (names, layout) and `<base>.bin` (arrays)."""
        base.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{base}.bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": ["name_of:int32", "parent:int32", "start:float64", "end:float64"],
        }
        Path(f"{base}.json").write_text(json.dumps(header))
        return {"file": f"{base}.bin", "stored": len(self.start), "summed": sum(self.calls.values())}


class _TimedGenerator:
    """A protocol program whose every resumption is a summed span."""

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: Tracer, nid: int):
        self._gen, self._tracer, self._nid = gen, tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.span(self._nid, self._gen.send, (None,), {}, store=False)

    def send(self, value):
        return self._tracer.span(self._nid, self._gen.send, (value,), {}, store=False)


class _TimedIterator:
    """A schedule stream whose every `next` is a stored span."""

    def __init__(self, it, tracer: Tracer, nid: int):
        self._it, self._tracer, self._nid = iter(it), tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.span(self._nid, next, (self._it,), {})
        self._tracer.counts["sim.schedules_enumerated"] += 1
        return item


def install(tracer: Tracer):
    """Wrap the hooks; return a function that puts every original back.

    A hook whose attribute no longer exists is skipped and listed in
    `tracer.missing`, so its metrics read 0 instead of the run failing.
    """
    from advlab import adversary, alpha, bgg, cli, protocols, sim
    from advlab.processes import ProcessSet

    restore = []

    def patch(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return
        restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def spanned(name, after=None):
        nid = tracer.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                result = tracer.span(nid, fn, args, kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    def counted(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    counts = tracer.counts

    def after_verdict(verdict, args, kwargs):
        counts["checkers.verdicts"] += 1
        counts["checkers.violations"] += not verdict.passed

    run_params = inspect.signature(sim.run_to_quiescence).parameters

    def after_run(trace, args, kwargs):
        schedule = args[1] if len(args) > 1 else kwargs["schedule"]
        max_tail = args[2] if len(args) > 2 else kwargs.get("max_tail", run_params["max_tail"].default)
        required = args[3] if len(args) > 3 else kwargs.get("required")
        taken = len(trace.schedule.steps)
        tail = taken - len(schedule.steps)
        need = set(required) if required is not None else set(schedule.correct.members())
        decided = {d.pid for d in trace.decisions}
        counts["sim.activations"] += taken
        counts["sim.tail_activations"] += tail
        counts["sim.tail_exhausted"] += tail >= max_tail > 0 and not need <= decided

    def after_selection(history, args, kwargs):
        for r in history.records:
            counts["bgg.reselections"] += r["reselected"]
            counts["bgg.fallbacks"] += r["fallback"]
            counts["bgg.blocked"] += r["result"] == bgg.BLOCKED
            counts["bgg.successes"] += r["result"] == bgg.SUCCESS
            counts["bgg.stepped"] += r["stepped"] is not None

    def timed_program(fn):
        nid = tracer.name_id("protocols.program")

        def wrapper(self, pid):
            return _TimedGenerator(fn(self, pid), tracer, nid)

        return wrapper

    def timed_stream(fn):
        nid = tracer.name_id("sim.enumerate")

        def wrapper(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), tracer, nid)

        return wrapper

    patch(cli, "main", spanned("cli.main"))
    patch(cli, "run_to_quiescence", spanned("sim.execute", after_run))
    patch(cli, "generate_schedule", spanned("sim.generate"))
    patch(cli, "generate_admissible_schedule", spanned("sim.generate"))
    patch(cli, "enumerate_schedules", timed_stream)
    for attr, name in (
        ("check_validity", "checkers.validity"),
        ("check_k_agreement", "checkers.k_agreement"),
        ("check_alpha_agreement", "checkers.alpha_agreement"),
        ("check_termination", "checkers.termination"),
    ):
        patch(cli, attr, spanned(name, after_verdict))
    # cli reaches admission through sim.check_alpha_compliance -> alpha.admits_trace;
    # a cli that imports admits_trace by name is covered by the second hook.
    patch(alpha, "admits_trace", spanned("alpha.admits"))
    if hasattr(cli, "admits_trace"):
        patch(cli, "admits_trace", spanned("alpha.admits"))
    for module in (adversary, bgg):
        patch(module, "setcon", spanned("adversary.setcon"))
        patch(module, "agreement_function", spanned("adversary.agreement_function"))
        patch(module, "restrict_intersecting", counted("adversary.restrict_calls"))
    patch(adversary, "restrict", counted("adversary.restrict_calls"))
    patch(adversary, "setcon_witness", spanned("adversary.witness"))
    patch(adversary, "fairness_counterexample", spanned("adversary.fairness"))
    patch(bgg, "power_within", spanned("bgg.power_within"))
    patch(bgg, "simulator_round", spanned("bgg.round"))
    patch(bgg, "selection_report", spanned("bgg.report"))
    patch(bgg, "run_bgg_selection", spanned("bgg.selection", after_selection))
    patch(ProcessSet, "__post_init__", counted("processes.sets_created"))
    for cls in vars(protocols).values():
        if isinstance(cls, type) and issubclass(cls, protocols.Protocol) and "program" in vars(cls):
            patch(cls, "program", timed_program)

    def undo():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return undo
