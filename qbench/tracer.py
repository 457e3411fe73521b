"""Outside-in span tracer for the six qanneal layers.

The tracer wraps every public function of ``cost``, ``statevec``,
``circuit``, ``ensemble``, ``baseline`` and ``cli`` and rebinds the wrapper
under every module-level name that held the original, so a call is recorded
whether it is reached as ``circuit.evaluate_all`` or ``cost.evaluate_all``.
Spans live in memory for one op and are reduced to per-layer metrics when the
op ends.  The program's own code is not edited; a function that a later
version deletes simply leaves its metric absent.

Assumes one thread: the span stack is shared, so the CLI must run with
``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from time import perf_counter

LAYERS = ("cost", "statevec", "circuit", "ensemble", "baseline", "cli")

# Private helpers that are still traced: each call is one pass over all 2^n
# states, which is what ``ensemble.enum_calls`` counts.
PRIVATE_TRACED = {"ensemble": ("_log_cos_all",)}

COST_TABLE = ("cost.evaluate_all", "cost.normalized_all")
COST_LOAD = ("cost.graph_from_dict", "cost.cost_from_dict", "cost.graph_partition_cost")
ANNEAL = ("baseline.anneal_to_target", "baseline.simulated_annealing")

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "statevec.gate_s": "s",
    "statevec.vector_passes": "count",
    "statevec.bytes_computed": "bytes",
    "statevec.amps_per_s": "1/s",
    "statevec.phase_tables_s": "s",
    "statevec.peak_alloc_mb": "MiB",
    "circuit.evolve_s": "s",
    "circuit.closed_form_s": "s",
    "circuit.postselect_s": "s",
    "circuit.sampler_setup_s": "s",
    "circuit.trial_us": "us",
    "circuit.trial_rng_us": "us",
    "circuit.accept_frac": "ratio",
    "circuit.abort_frac": "ratio",
    "cost.table_s": "s",
    "cost.table_calls": "count",
    "cost.load_s": "s",
    "ensemble.self_s": "s",
    "ensemble.point_s": "s",
    "ensemble.enum_calls": "count",
    "ensemble.limits_s": "s",
    "baseline.anneal_s": "s",
    "baseline.evaluations": "count",
    "baseline.step_us": "us",
    "baseline.matched_frac": "ratio",
    "baseline.brute_force_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "info")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe_state(span: Span, bound, result):
    amps = getattr(result, "amplitudes", None)
    if amps is not None:
        span.info = {"amps": int(amps.size)}


def _observe_sample_many(span: Span, bound, result):
    args = bound.arguments
    max_reps = int(args.get("max_repetitions", 0) or 0)
    done = [o for o in result if o is not None]
    aborted = len(result) - len(done)
    span.info = {
        "trials": int(args.get("trials", len(result))),
        "accepted": len(done),
        "aborted": aborted,
        "drawn": sum(int(o.repetitions) for o in done) + aborted * max_reps,
    }


def _observe_anneal(span: Span, bound, result):
    if isinstance(result, tuple):  # anneal_to_target: (evaluations to target or None, report)
        evals_to_target, report = result
        span.info = {"evaluations": int(report.evaluations), "matched": evals_to_target is not None}
    else:
        span.info = {"evaluations": int(result.evaluations), "matched": None}


OBSERVERS = {
    "circuit.sample_many": _observe_sample_many,
    "baseline.anneal_to_target": _observe_anneal,
    "baseline.simulated_annealing": _observe_anneal,
}


class Tracer:
    """Records one span per call of a wrapped qanneal function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        modules = [importlib.import_module(f"qanneal.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            extra = PRIVATE_TRACED.get(layer, ())
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (not name.startswith("_") or name in extra)
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for module in [importlib.import_module("qanneal")] + modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str):
        full = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(full)
        if observe is None and layer == "statevec" and name.startswith("apply_"):
            observe = _observe_state
        signature = inspect.signature(fn) if full in OBSERVERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(full, layer, parent)
            # tracemalloc only around top-level statevec calls: it slows every
            # Python allocation, and only statevec.peak_alloc_mb needs it
            measure_memory = (
                layer == "statevec"
                and (parent < 0 or spans[parent].layer != layer)
                and not tracemalloc.is_tracing()
            )
            stack.append(len(spans))
            spans.append(span)
            if measure_memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.info = {"peak": peak}
            if observe is not None:
                bound = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                info = span.info
                observe(span, bound, result)
                if info is not None:
                    span.info = {**info, **(span.info or {})}
            return result

        return wrapper


def _outer(spans: list[Span], match) -> list[Span]:
    """Matching spans that have no matching ancestor (so nested time counts once)."""
    inside = [False] * len(spans)
    found = []
    for i, span in enumerate(spans):
        parent_inside = span.parent >= 0 and inside[span.parent]
        hit = match(span.name)
        inside[i] = parent_inside or hit
        if hit and not parent_inside:
            found.append(span)
    return found


def _total(spans: list[Span], match) -> float:
    return sum(s.duration for s in _outer(spans, match))


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def _ratio(num: float, den: float, scale: float = 1.0):
    return num / den * scale if den else None


def op_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one op; a metric whose layer was not called is None."""
    names = {s.name for s in spans}
    m: dict[str, float | int | None] = {}

    def has(*wanted):
        return any(w in names for w in wanted)

    def total(*wanted):
        return _total(spans, lambda n: n in wanted) if has(*wanted) else None

    # statevec: a leaf gate call is an apply_* span with no apply_* span below it
    is_gate = lambda n: n.startswith("statevec.apply_")  # noqa: E731
    has_gate_below = [False] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children come after their parent
        span = spans[i]
        if span.parent >= 0 and (is_gate(span.name) or has_gate_below[i]):
            has_gate_below[span.parent] = True
    leaves = [
        s for i, s in enumerate(spans)
        if is_gate(s.name) and not has_gate_below[i] and s.info and "amps" in s.info
    ]
    gate_s = _total(spans, is_gate) if any(is_gate(n) for n in names) else None
    amps = sum(s.info["amps"] for s in leaves)
    m["statevec.gate_s"] = gate_s
    m["statevec.vector_passes"] = len(leaves) if gate_s is not None else None
    m["statevec.bytes_computed"] = 2 * 16 * amps if gate_s is not None else None
    m["statevec.amps_per_s"] = _ratio(amps, gate_s) if gate_s else None
    m["statevec.phase_tables_s"] = total("statevec.build_phase_tables")
    peaks = [s.info["peak"] for s in spans if s.info and "peak" in s.info]
    m["statevec.peak_alloc_mb"] = max(peaks) / 2**20 if peaks else None

    m["circuit.evolve_s"] = total("circuit.run_circuit")
    m["circuit.closed_form_s"] = total("circuit.closed_form_final_state")
    m["circuit.postselect_s"] = total("circuit.postselect_zero")
    m["circuit.sampler_setup_s"] = total("circuit.make_sampler")
    runs = [s.info for s in _outer(spans, lambda n: n == "circuit.sample_many") if s.info]
    trials = sum(r["trials"] for r in runs)
    if trials:
        sampling = total("circuit.sample_many") - (m["circuit.sampler_setup_s"] or 0.0)
        m["circuit.trial_us"] = sampling / trials * 1e6
        m["circuit.trial_rng_us"] = (total("circuit.trial_rng") or 0.0) / trials * 1e6
        m["circuit.accept_frac"] = _ratio(sum(r["accepted"] for r in runs), sum(r["drawn"] for r in runs))
        m["circuit.abort_frac"] = sum(r["aborted"] for r in runs) / trials
    else:
        for key in ("trial_us", "trial_rng_us", "accept_frac", "abort_frac"):
            m[f"circuit.{key}"] = None

    m["cost.table_s"] = total(*COST_TABLE)
    calls = sum(1 for s in spans if s.name == "cost.evaluate_all")
    m["cost.table_calls"] = calls if calls else None
    m["cost.load_s"] = total(*COST_LOAD)

    own = _self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, t in zip(spans, own):
        layer_self[span.layer] += t
    in_ensemble = any(s.layer == "ensemble" for s in spans)
    m["ensemble.self_s"] = layer_self["ensemble"] if in_ensemble else None
    m["ensemble.point_s"] = total("ensemble.thermo_point")
    enum = sum(1 for s in spans if s.name == "ensemble._log_cos_all")
    m["ensemble.enum_calls"] = enum if enum else None
    m["ensemble.limits_s"] = total("ensemble.effective_cost_limits")

    chains = [s.info for s in _outer(spans, lambda n: n in ANNEAL) if s.info]
    anneal_s = total(*ANNEAL)
    evaluations = sum(c["evaluations"] for c in chains)
    m["baseline.anneal_s"] = anneal_s
    m["baseline.evaluations"] = evaluations if chains else None
    m["baseline.step_us"] = _ratio(anneal_s or 0.0, evaluations, 1e6)
    targeted = [c["matched"] for c in chains if c["matched"] is not None]
    m["baseline.matched_frac"] = _ratio(sum(targeted), len(targeted))
    m["baseline.brute_force_s"] = total("baseline.brute_force_min")

    m["cli.self_s"] = layer_self["cli"] if any(s.layer == "cli" for s in spans) else None
    return {"metrics": m, "layer_self_s": layer_self}


def span_summary(spans: list[Span]) -> dict:
    """Calls, total and self seconds per traced function name."""
    out: dict[str, list] = {}
    for span, own in zip(spans, _self_times(spans)):
        entry = out.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += own
    return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(out.items())}
