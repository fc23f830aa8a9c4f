"""Per-layer tracing from outside the program.

The tracer wraps the public functions and methods of each ``causal_lens``
module, in every module namespace that binds them, with a span that records
its layer, its duration and the time its child spans cover. A layer's self
time is the sum over its spans of duration minus child time. Wrappers are
installed for traced passes only and removed afterwards, so untraced passes
run the program unmodified.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import calibrate

LAYERS = ("systems", "classical", "quantum", "causal", "oracle", "automata", "cli")

# spans whose inclusive time is reported; the outermost call of each key counts
INCLUSIVE = {
    "causal.t_process": "causal.t_process_s",
    "causal.memory_decomposition": "causal.memory_s",
    "causal.find_witness": "causal.witness_s",
    "causal.hierarchy_report": "causal.hierarchy_s",
    "automata.build_ring": "automata.build_s",
    "cli.load_channel_file": "cli.load_s",
    "cli.load_rule_file": "cli.load_s",
}
CALL_COUNTS = {
    "systems.codec_calls": ("systems.CompositeSystem.flatten", "systems.CompositeSystem.unflatten"),
    "systems.reorder_calls": ("systems.reorder_permutation",),
    "classical.channels_built": ("classical.ClassicalChannel.__post_init__",),
    "classical.signals_calls": ("classical.ClassicalChannel.signals",),
    "classical.factors_calls": ("classical.ClassicalChannel.factors_as_identity",),
    "quantum.channels_built": ("quantum.UnitaryChannel.__post_init__",),
    "quantum.signals_calls": ("quantum.UnitaryChannel.signals",),
    "quantum.factors_calls": ("quantum.UnitaryChannel.factors_as_identity",),
    "causal.t_process_calls": ("causal.t_process",),
    "oracle.definition_checks": ("oracle.definition_check",),
    "automata.neighbourhood_map_calls": ("automata.neighbourhood_map",),
}
# per-layer metric names in report order, with units
METRICS = {
    "systems.codec_calls": "count",
    "systems.reorder_calls": "count",
    "systems.self_s": "s",
    "classical.channels_built": "count",
    "classical.entries_built": "count",
    "classical.signals_calls": "count",
    "classical.factors_calls": "count",
    "classical.self_s": "s",
    "quantum.channels_built": "count",
    "quantum.entries_built": "count",
    "quantum.signals_calls": "count",
    "quantum.factors_calls": "count",
    "quantum.self_s": "s",
    "causal.t_process_calls": "count",
    "causal.t_process_s": "s",
    "causal.iterate_steps": "count",
    "causal.memory_s": "s",
    "causal.witness_s": "s",
    "causal.hierarchy_s": "s",
    "oracle.definition_checks": "count",
    "oracle.interventions_checked": "count",
    "oracle.self_s": "s",
    "automata.build_s": "s",
    "automata.neighbourhood_map_calls": "count",
    "automata.self_s": "s",
    "cli.load_s": "s",
    "cli.output_bytes": "count",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans, self times and counts of one traced pass."""

    def __init__(self):
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._active: Counter = Counter()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        stack, active = self._stack, self._active
        metric = INCLUSIVE.get(key)
        after = _AFTER.get(key)

        def span(*args, **kwargs):
            stack.append([0.0])
            if metric:
                active[metric] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                if metric:
                    active[metric] -= 1
                    if not active[metric]:
                        self.inclusive[metric] += elapsed
                self.counts[key] += 1
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return span

    # -- installing and removing ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method, in every namespace binding it."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"causal_lens.{layer}")
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    if obj.__module__ == module.__name__:
                        self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "causal_lens" or mod_name.startswith("causal_lens."):
                for attr, value in list(vars(module).items()):
                    hit = replacements.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attr, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, key, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(layer, key, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------------------

    def counts_snapshot(self, output_bytes: int) -> dict:
        out = {name: sum(self.counts[k] for k in keys) for name, keys in CALL_COUNTS.items()}
        for name in ("classical.entries_built", "quantum.entries_built", "causal.iterate_steps",
                     "oracle.interventions_checked"):
            out[name] = self.counts[name]
        out["cli.output_bytes"] = output_bytes
        return out

    def times_snapshot(self) -> dict:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for metric in set(INCLUSIVE.values()):
            out[metric] = self.inclusive[metric]
        return out


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _entries(metric: str, square: bool):
    def after(counts, args, kwargs, result):
        n = args[0].input.total_dim
        counts[metric] += n * n if square else n
    return after


def _iterate_steps(counts, args, kwargs, result):
    counts["causal.iterate_steps"] += args[1] if len(args) > 1 else kwargs["steps"]


def _interventions(counts, args, kwargs, result):
    counts["oracle.interventions_checked"] += result.interventions_checked


_AFTER = {
    "classical.ClassicalChannel.__post_init__": _entries("classical.entries_built", False),
    "quantum.UnitaryChannel.__post_init__": _entries("quantum.entries_built", True),
    "causal.iterate": _iterate_steps,
    "oracle.definition_check": _interventions,
}


def traced_run(ops, verifier, seconds: float, one_pass):
    """Alternate untraced and traced passes until ``seconds`` are spent.

    Counts come from the traced passes and must repeat exactly from pass to
    pass. Times are scaled to the reference speed with the pass's median
    calibration loop and reported as medians over traced passes.
    ``trace.overhead_pct`` compares the sums of per-op median times, traced
    against untraced.
    """
    cli = importlib.import_module("causal_lens.cli")
    tracer = Tracer()
    op_times = {False: [[] for _ in ops], True: [[] for _ in ops]}
    counts, time_samples = None, defaultdict(list)
    failed = passes = 0
    start = time.perf_counter()
    longest = 0.0
    while passes == 0 or time.perf_counter() - start + longest <= seconds:
        pair_start = time.perf_counter()
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                times, loops, n_failed, output_bytes = one_pass(cli.main, ops, verifier)
            finally:
                tracer.uninstall()
            failed += n_failed
            for k, t in enumerate(times):
                op_times[traced][k].append(t)
        snapshot = tracer.counts_snapshot(output_bytes)
        if counts is None:
            counts = snapshot
        elif snapshot != counts:
            verifier.unexpected.append("per-layer counts differ between traced passes")
        speed = calibrate.REFERENCE_S / statistics.median(loops)
        for name, value in tracer.times_snapshot().items():
            time_samples[name].append(value * speed)
        passes += 1
        longest = max(longest, time.perf_counter() - pair_start)
    plain, traced = (sum(statistics.median(t) for t in op_times[flag]) for flag in (False, True))
    values = dict(counts)
    values.update({name: statistics.median(v) for name, v in time_samples.items()})
    values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    return metrics, 2 * passes * len(ops), failed
