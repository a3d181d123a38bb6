"""Per-layer tracing from outside the program.

The traced run patches public qkdsim names with timing wrappers, each
patched where its caller looks it up (``select_routes`` in
``qkdsim.engine``, the routing kernels in ``qkdsim.policy`` and
``qkdsim.engine``, ``simulate`` and ``summarize`` in ``qkdsim.cli``).
Spans nest: a wrapper adds its duration to the span that encloses it, so a
layer's self time is its total minus the time of the traced calls inside
it.  Spans are folded into per-name totals as they close; a round makes
millions of key-bank calls, too many to keep one by one.

A name the program no longer has is skipped and reported as absent; a
layer whose names are never called reads zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  Several names may share a span.
TARGETS = (
    ("qkdsim.cli", "run_experiment", "cli.run_experiment"),
    ("qkdsim.config", "GraphConfig.build", "topology.build"),
    ("qkdsim.cli", "simulate", "engine.simulate"),
    ("qkdsim.traffic", "ArrivalSampler.sample_batch", "traffic.sample"),
    ("qkdsim.keying", "KeySampler.sample_batch", "keying.sample"),
    ("qkdsim.keying", "KeyBank.deposit", "keying.bank"),
    ("qkdsim.keying", "KeyBank.withdraw", "keying.bank"),
    ("qkdsim.keying", "KeyBank.discard_residual", "keying.bank"),
    ("qkdsim.engine", "select_routes", "policy.select"),
    ("qkdsim.engine", "multilevel_select_routes", "policy.select"),
    ("qkdsim.engine", "min_weight_path", "routing.path"),
    ("qkdsim.engine", "anycast_route", "routing.path"),
    ("qkdsim.policy", "min_weight_path", "routing.path"),
    ("qkdsim.policy", "anycast_route", "routing.path"),
    ("qkdsim.policy", "min_weight_spanning_tree", "routing.tree"),
    ("qkdsim.policy", "steiner_tree_approx", "routing.tree"),
    ("qkdsim.cli", "summarize", "analysis.summarize"),
    ("qkdsim.engine", "MetricsRecord.to_csv_bytes", "cli.serialize"),
    ("qkdsim.engine", "MetricsRecord.to_json_bytes", "cli.serialize"),
)

POLICY_LABELS = (
    "tandem-store",
    "tandem-nostore",
    "backpressure",
    "single-queue",
    "multilevel-store",
    "multilevel-nostore",
)


class Tracer:
    """Span totals for one traced round."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.stack: list[list[float]] = []
        self.slots_drawn = 0
        self.cell_s: dict[str, float] = defaultdict(float)
        self.sim_slots = 0
        self.weights_reused = 0
        self.weights_zero = 0
        self._last_weights: dict[tuple[int, ...], tuple] = {}
        self.absent: list[str] = []

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def wrap(self, name: str, fn, observe=None):
        calls, total, child, stack = self.calls, self.total, self.child, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return wrapper

    # -- observers: counts taken where the work happens --------------------

    def _on_sample(self, args, kwargs, result, dt):
        self.slots_drawn += int(_arg(args, kwargs, 1, "nslots"))

    def _on_simulate(self, args, kwargs, result, dt):
        self.cell_s[result.policy] += dt
        self.sim_slots += result.horizon
        self._last_weights.clear()  # weights are compared within one cell

    def _note_weights(self, classes, weights: tuple) -> None:
        key = tuple(sorted(c.id for c in classes))
        if self._last_weights.get(key) == weights:
            self.weights_reused += 1
        if not any(any(w) for w in weights):
            self.weights_zero += 1
        self._last_weights[key] = weights

    def _on_select(self, args, kwargs, result, dt):
        weights = _arg(args, kwargs, 1, "weights")
        self._note_weights(_arg(args, kwargs, 3, "classes"), (list(weights),))

    def _on_multilevel_select(self, args, kwargs, result, dt):
        # vq aliases the engine's live counters, which change only after
        # the call returns.
        vq = _arg(args, kwargs, 1, "vq")
        self._note_weights(_arg(args, kwargs, 3, "classes"),
                           (list(vq.x_tilde), list(vq.y_tilde)))

    def observer(self, path: str):
        return {
            "ArrivalSampler.sample_batch": self._on_sample,
            "simulate": self._on_simulate,
            "select_routes": self._on_select,
            "multilevel_select_routes": self._on_multilevel_select,
        }.get(path)

    # -- result ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        sel = self.calls["policy.select"]
        run = self.total["cli.run_experiment"]
        write = (run - self.total["engine.simulate"] - self.total["analysis.summarize"]
                 - self.total["topology.build"])
        out = {
            "topology.build_s": self.total["topology.build"],
            "traffic.sample_s": self.total["traffic.sample"],
            "traffic.slots_drawn": self.slots_drawn,
            "keying.sample_s": self.total["keying.sample"],
            "keying.bank_calls": self.calls["keying.bank"],
            "keying.bank_s": self.total["keying.bank"],
            "routing.path_calls": self.calls["routing.path"],
            "routing.path_s": self.total["routing.path"],
            "routing.tree_calls": self.calls["routing.tree"],
            "routing.tree_s": self.total["routing.tree"],
            "policy.select_calls": sel,
            "policy.select_self_s": self.self_s("policy.select"),
            "policy.weights_reused_share": self.weights_reused / sel if sel else 0.0,
            "policy.weights_zero_share": self.weights_zero / sel if sel else 0.0,
            "engine.self_s": self.self_s("engine.simulate"),
            "engine.self_us_per_slot": (
                1e6 * self.self_s("engine.simulate") / self.sim_slots if self.sim_slots else 0.0
            ),
            "analysis.summarize_s": self.total["analysis.summarize"],
            "cli.serialize_s": self.total["cli.serialize"],
            "cli.write_s": write,
        }
        for label in POLICY_LABELS:
            out[f"engine.cell_s.{label}"] = self.cell_s[label]
        return out


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A wrapped call's argument, whether passed by position or by name."""
    return args[index] if len(args) > index else kwargs[name]


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when the name is gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def traced(tracer: Tracer):
    """Patch every target with a wrapper feeding ``tracer``; restore on exit."""
    saved = []
    try:
        for module, path, span in TARGETS:
            found = _resolve(module, path)
            if found is None:
                tracer.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, tracer.wrap(span, original, tracer.observer(path)))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
