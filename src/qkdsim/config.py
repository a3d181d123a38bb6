"""Experiment configuration: JSON schema, validation, and scenario presets.

A config describes a sweep: one graph, a set of traffic classes, one or
more policies, a list of arrival-rate scales, and a list of seeds.  Each
(policy, scale, seed) cell is one simulation.  Parsing is strict; every
validation error names the offending field.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Container

import numpy as np

from .keying import KeySpec
from .policy import BackpressureMode, MultilevelMode, PolicyMode, SingleQueueMode, TandemMode
from .topology import EdgeSpec, NetworkGraph, TopologyError, build_graph, erdos_renyi
from .traffic import (
    Anycast,
    Bernoulli,
    Broadcast,
    Multicast,
    PPBP,
    TrafficClass,
    TruncatedPoisson,
    Unicast,
)

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS", "preset_config"]


class ConfigError(ValueError):
    pass


# The fields each JSON object may name; anything else is rejected.
_CONFIG_FIELDS = (
    "name", "graph", "classes", "policies", "keys", "scheduler", "horizon", "seeds",
    "queue_cap", "rate_scales", "metrics",
)
_GRAPH_FIELDS = {
    "inline": ("kind", "nodes", "edges"),
    "file": ("kind", "path"),
    "erdos_renyi": ("kind", "nodes", "p", "gamma", "eta_range", "graph_seed", "qkd_fraction"),
}
_CLASS_FIELDS = ("id", "source", "kind", "destinations", "arrival", "security", "priority")
_ARRIVAL_FIELDS = {  # a ppbp arrival names the fields of traffic.PPBP
    "bernoulli": ("process", "rate"),
    "truncated_poisson": ("process", "rate", "cap"),
}
_KEY_FIELDS = ("process", "k_max", "value", "photons", "eavesdrop_prob", "check_fraction", "overrides")
_OVERRIDE_FIELDS = ("u", "v", *_KEY_FIELDS[:-1])  # an override holds no overrides
_METRICS_FIELDS = ("series", "stride", "drift")


def _known(doc: Any, fields: Container[str], ctx: str) -> dict:
    """Return ``doc`` once it is an object that names only ``fields``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx}: expected an object, got {doc!r}")
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{ctx}.{key}: unknown field")
    return doc


def _require(doc: Any, key: str, ctx: str) -> Any:
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx}: expected an object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"{ctx}.{key}: required field is missing")
    return doc[key]


# JSON values are type-checked, not converted: "false" is not a boolean and
# 1.7 is not a seed.


def _int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def _num(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{field}: expected true or false, got {value!r}")
    return value


def _str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected a string, got {value!r}")
    return value


def _list(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field}: expected a list, got {value!r}")
    return value


# A dataclass field's declared type -> (the JSON type it takes as is, its reader).
_READERS = {"int": (int, _int), "float": (float, _num), "bool": (bool, _bool)}


@functools.cache
def _schema(cls: type) -> tuple[dict, tuple[str, ...]]:
    """The ``_READERS`` entry of each field of dataclass ``cls``, and its required fields."""
    fields = dataclasses.fields(cls)
    return (
        {f.name: _READERS[f.type] for f in fields},
        tuple(f.name for f in fields if f.default is dataclasses.MISSING),
    )


def _fields(doc: Any, cls: type, ctx: str, extra: Container[str] = ()) -> dict:
    """The fields of dataclass ``cls`` that the object ``doc`` gives, each read
    by its declared type.  ``doc`` may also name the ``extra`` keys, which are
    left out; any other key, or a missing field without a default, is rejected."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx}: expected an object, got {doc!r}")
    readers, required = _schema(cls)
    out = {}
    for key, value in doc.items():
        reader = readers.get(key)
        if reader is None:
            if key not in extra:
                raise ConfigError(f"{ctx}.{key}: unknown field")
        elif type(value) is reader[0]:  # the common case, and the cheap one on big graphs
            out[key] = value
        else:
            out[key] = reader[1](value, f"{ctx}.{key}")
    for key in required:
        if key not in out:
            raise ConfigError(f"{ctx}.{key}: required field is missing")
    return out


# ---------------------------------------------------------------------------
# sub-configs

@dataclass(frozen=True)
class GraphConfig:
    """A graph given inline or generated.  A ``file`` graph is read when the
    config loads and kept inline (the file's ``nodes`` and ``edges``; other
    keys are ignored), so ``config_hash()`` covers its edges.  Edges are
    read into ``EdgeSpec``s at load; ``build`` only checks and links them."""

    kind: str  # "inline" | "erdos_renyi"
    nodes: int = 0
    edges: tuple[EdgeSpec, ...] = ()
    p: float = 0.3
    gamma: int = 1
    eta_range: tuple[float, float] = (0.2, 1.0)
    graph_seed: int = 0
    qkd_fraction: float = 1.0

    def to_dict(self) -> dict:
        if self.kind == "inline":
            # vars() of an EdgeSpec is its six fields, at 1/20 the cost of dataclasses.asdict
            return {"kind": "inline", "nodes": self.nodes, "edges": [dict(vars(e)) for e in self.edges]}
        return {
            "kind": "erdos_renyi",
            "nodes": self.nodes,
            "p": self.p,
            "gamma": self.gamma,
            "eta_range": list(self.eta_range),
            "graph_seed": self.graph_seed,
            "qkd_fraction": self.qkd_fraction,
        }

    @classmethod
    def from_dict(cls, doc: dict, ctx: str = "graph") -> "GraphConfig":
        kind = _str(_require(doc, "kind", ctx), f"{ctx}.kind")
        if kind not in _GRAPH_FIELDS:
            raise ConfigError(f"{ctx}.kind: unknown graph kind {kind!r}")
        _known(doc, _GRAPH_FIELDS[kind], ctx)
        if kind == "file":
            # the file's errors name graph.<field>, as the build errors of its edges do
            path = _str(_require(doc, "path", ctx), f"{ctx}.path")
            try:
                with open(path, encoding="utf-8") as fh:
                    doc, kind = json.load(fh), "inline"
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{ctx}.path: cannot read graph file {path!r}: {exc}") from None
            if not isinstance(doc, dict):
                raise ConfigError(f"{ctx}.path: graph file {path!r} holds no object, got {doc!r}")
        nodes = _int(_require(doc, "nodes", ctx), f"{ctx}.nodes")
        if nodes < 1:
            raise ConfigError(f"{ctx}.nodes: must be >= 1, got {nodes}")
        if kind == "inline":
            edges = _list(_require(doc, "edges", ctx), f"{ctx}.edges")
            specs = (EdgeSpec(**_fields(e, EdgeSpec, f"{ctx}.edges[{i}]")) for i, e in enumerate(edges))
            return cls(kind="inline", nodes=nodes, edges=tuple(specs))
        # the ranges and eta_range's shape are erdos_renyi's to check, in build
        eta = _list(doc.get("eta_range", [0.2, 1.0]), f"{ctx}.eta_range")
        return cls(
            kind="erdos_renyi",
            nodes=nodes,
            p=_num(_require(doc, "p", ctx), f"{ctx}.p"),
            gamma=_int(doc.get("gamma", 1), f"{ctx}.gamma"),
            eta_range=tuple(_num(x, f"{ctx}.eta_range") for x in eta),
            graph_seed=_int(doc.get("graph_seed", 0), f"{ctx}.graph_seed"),
            qkd_fraction=_num(doc.get("qkd_fraction", 1.0), f"{ctx}.qkd_fraction"),
        )

    def build(self) -> NetworkGraph:
        try:
            if self.kind == "inline":
                return build_graph(self.nodes, self.edges)
            if self.kind == "erdos_renyi":
                return erdos_renyi(
                    self.nodes, self.p, self.gamma, self.eta_range, self.graph_seed, self.qkd_fraction
                )
        except TopologyError as exc:
            raise ConfigError(f"graph.{exc}") from None
        raise ConfigError(f"graph.kind: unknown graph kind {self.kind!r}")


def _unicast(dests: tuple[int, ...]) -> Unicast:
    if len(dests) != 1:
        raise ValueError(f"a unicast class has one destination, got {list(dests)}")
    return Unicast(dests[0])


# Each traffic kind and arrival process a class names -> how ``ClassConfig.build`` makes it.
_KINDS = {
    "unicast": _unicast,
    "broadcast": lambda dests: Broadcast(),
    "multicast": Multicast,
    "anycast": Anycast,
}
_PROCESSES = {
    "bernoulli": lambda c, scale: Bernoulli(c.rate * scale),
    "truncated_poisson": lambda c, scale: TruncatedPoisson(c.rate * scale, c.cap),
    "ppbp": lambda c, scale: PPBP(**(c.ppbp or {})),
}


@dataclass(frozen=True)
class ClassConfig:
    id: int
    source: int
    kind: str  # "unicast" | "broadcast" | "multicast" | "anycast"
    destinations: tuple[int, ...] = ()
    process: str = "bernoulli"
    rate: float = 0.1
    cap: int = 4
    ppbp: dict | None = None
    security: str = "quantum"
    priority: int = 0

    def to_dict(self) -> dict:
        arrival: dict[str, Any] = {"process": self.process}
        if self.process == "ppbp":
            arrival.update(self.ppbp or {})
        else:
            arrival["rate"] = self.rate
            if self.process == "truncated_poisson":
                arrival["cap"] = self.cap
        return {
            "id": self.id,
            "source": self.source,
            "kind": self.kind,
            "destinations": list(self.destinations),
            "arrival": arrival,
            "security": self.security,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, doc: dict, ctx: str) -> "ClassConfig":
        kind = _str(_require(_known(doc, _CLASS_FIELDS, ctx), "kind", ctx), f"{ctx}.kind")
        if kind not in _KINDS:
            raise ConfigError(f"{ctx}.kind: unknown traffic kind {kind!r}")
        actx = f"{ctx}.arrival"
        arrival = _require(doc, "arrival", ctx)
        process = _str(_require(arrival, "process", actx), f"{actx}.process")
        rate, cap, ppbp = 0.0, 4, None
        if process == "ppbp":
            ppbp = _fields(arrival, PPBP, actx, extra=("process",))
        elif process in _ARRIVAL_FIELDS:
            _known(arrival, _ARRIVAL_FIELDS[process], actx)
            rate = _num(_require(arrival, "rate", actx), f"{actx}.rate")
            cap = _int(arrival.get("cap", 4), f"{actx}.cap")
        else:
            raise ConfigError(f"{actx}.process: unknown process {process!r}")
        dests = tuple(
            _int(d, f"{ctx}.destinations")
            for d in _list(doc.get("destinations", []), f"{ctx}.destinations")
        )
        if kind != "broadcast" and not dests:
            raise ConfigError(f"{ctx}.destinations: required for {kind} classes")
        if kind == "unicast" and len(dests) > 1:
            raise ConfigError(f"{ctx}.destinations: a unicast class has one destination")
        security = _str(doc.get("security", "quantum"), f"{ctx}.security")
        if security not in ("quantum", "classical"):
            raise ConfigError(f"{ctx}.security: must be 'quantum' or 'classical', got {security!r}")
        return cls(
            id=_int(_require(doc, "id", ctx), f"{ctx}.id"),
            source=_int(_require(doc, "source", ctx), f"{ctx}.source"),
            kind=kind,
            destinations=dests,
            process=process,
            rate=rate,
            cap=cap,
            ppbp=ppbp,
            security=security,
            priority=_int(doc.get("priority", 0), f"{ctx}.priority"),
        )

    def build(self, scale: float) -> TrafficClass:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind == "broadcast" and self.destinations:
            raise ValueError(f"a broadcast class takes no destinations, got {list(self.destinations)}")
        if self.process not in _PROCESSES:
            raise ValueError(f"unknown process {self.process!r}")
        if self.process == "ppbp" and scale != 1.0:
            raise ValueError("rate scaling is not defined for ppbp arrivals")
        return TrafficClass(
            id=self.id,
            source=self.source,
            kind=_KINDS[self.kind](self.destinations),
            arrival=_PROCESSES[self.process](self, scale),
            security=self.security,
            priority=self.priority,
        )


_MODES = {m.mode: m for m in (TandemMode, SingleQueueMode, BackpressureMode, MultilevelMode)}


def _policy_to_dict(mode: PolicyMode) -> dict:
    return {"mode": mode.mode, **dataclasses.asdict(mode)}


def _policy_from_dict(doc: dict, ctx: str) -> PolicyMode:
    name = _str(_require(doc, "mode", ctx), f"{ctx}.mode")
    if name not in _MODES:
        raise ConfigError(f"{ctx}.mode: unknown policy mode {name!r}")
    fields = _fields(doc, _MODES[name], ctx, extra=("mode",))
    try:
        return _MODES[name](**fields)
    except ValueError as exc:  # the mode's own rules name the field
        raise ConfigError(f"{ctx}.{exc}") from None


def _keys_to_dict(spec: KeySpec) -> dict:
    doc: dict[str, Any] = {"process": spec.kind, "k_max": spec.k_max}
    if spec.kind == "deterministic":
        doc["value"] = spec.value
    if spec.kind == "bb84":
        doc.update(
            photons=spec.photons,
            eavesdrop_prob=spec.eavesdrop_prob,
            check_fraction=spec.check_fraction,
        )
    if spec.overrides:
        doc["overrides"] = [{"u": u, "v": v, **_keys_to_dict(sub)} for (u, v), sub in spec.overrides]
    return doc


def _keys_from_dict(doc: dict, ctx: str = "keys") -> KeySpec:
    process = _str(_known(doc, _KEY_FIELDS, ctx).get("process", "truncated_poisson"), f"{ctx}.process")
    value = None if doc.get("value") is None else _int(doc["value"], f"{ctx}.value")
    k_max = _int(doc.get("k_max", 20), f"{ctx}.k_max")
    overrides = []
    for i, sub in enumerate(_list(doc.get("overrides", []), f"{ctx}.overrides")):
        octx = f"{ctx}.overrides[{i}]"
        _known(sub, _OVERRIDE_FIELDS, octx)
        u, v = (_int(_require(sub, k, octx), f"{octx}.{k}") for k in ("u", "v"))
        inner = {k: w for k, w in sub.items() if k not in ("u", "v")}
        overrides.append(((u, v), _keys_from_dict(inner, octx)))
    photons = _int(doc.get("photons", 8), f"{ctx}.photons")
    probs = {key: _num(doc.get(key, 0.0), f"{ctx}.{key}") for key in ("eavesdrop_prob", "check_fraction")}
    try:
        return KeySpec(
            kind=process, k_max=k_max, value=value, photons=photons, overrides=tuple(overrides), **probs
        )
    except ValueError as exc:  # KeySpec's own rules name the field
        raise ConfigError(f"{ctx}.{exc}") from None


# ---------------------------------------------------------------------------
# experiment config

@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    graph: GraphConfig
    classes: tuple[ClassConfig, ...]
    policies: tuple[PolicyMode, ...]
    keys: KeySpec = KeySpec()
    scheduler: str = "fifo"
    horizon: int = 10_000
    seeds: tuple[int, ...] = (1,)
    queue_cap: int = 10_000
    rate_scales: tuple[float, ...] = (1.0,)
    record_series: bool = True
    series_stride: int = 1
    record_drift: bool = False

    def __post_init__(self):
        # The name becomes a directory and a file-name prefix under --output.
        name = self.name
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"config.name: must be a plain file name, got {name!r}")
        # Checked here, not in from_dict, so that a config built in Python or
        # by replace() (--seed) meets them too.
        seeds = self.seeds
        if not seeds:
            raise ConfigError("config.seeds: must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("config.seeds: seeds must be distinct")
        if min(seeds) < 0:
            raise ConfigError(f"config.seeds: must be >= 0, got {min(seeds)}")
        for field, value in (("config.horizon", self.horizon), ("config.queue_cap", self.queue_cap),
                             ("metrics.stride", self.series_stride)):
            if value < 1:
                raise ConfigError(f"{field}: must be >= 1")
        if not self.rate_scales:
            raise ConfigError("config.rate_scales: must not be empty")
        if len({f"{s:g}" for s in self.rate_scales}) != len(self.rate_scales):
            raise ConfigError("config.rate_scales: scales must differ in their file-name form ('%g')")
        if not self.classes:
            raise ConfigError("config.classes: at least one traffic class is required")
        if len({c.id for c in self.classes}) != len(self.classes):
            raise ConfigError("config.classes: class ids must be unique")
        if not self.policies:
            raise ConfigError("config.policies: at least one policy is required")
        labels = [p.label for p in self.policies]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(
                    f"policies[{i}]: label {label!r} repeats policies[{labels.index(label)}]; "
                    f"output files are named by label"
                )
        nodes = self.graph.nodes
        for i, c in enumerate(self.classes):
            for field, node in (("source", c.source), *(("destinations", d) for d in c.destinations)):
                if not 0 <= node < nodes:
                    raise ConfigError(f"classes[{i}].{field}: node {node} is not in the {nodes}-node graph")
        if self.scheduler not in ("fifo", "ento"):
            raise ConfigError(f"config.scheduler: unknown scheduler {self.scheduler!r}")
        if self.scheduler == "ento" and any(p.mode == "backpressure" for p in self.policies):
            raise ConfigError("config.scheduler: backpressure queues hold no hop counts; it runs 'fifo' only")
        single_level = [p.mode for p in self.policies if p.mode != "multilevel"]
        for i, c in enumerate(self.classes):
            if single_level and c.security != "quantum":
                raise ConfigError(
                    f"classes[{i}].security: {single_level[0]} carries key-encrypted "
                    f"traffic only; {c.security!r} classes need the multilevel policy"
                )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "graph": self.graph.to_dict(),
            "classes": [c.to_dict() for c in self.classes],
            "policies": [_policy_to_dict(p) for p in self.policies],
            "keys": _keys_to_dict(self.keys),
            "scheduler": self.scheduler,
            "horizon": self.horizon,
            "seeds": list(self.seeds),
            "queue_cap": self.queue_cap,
            "rate_scales": list(self.rate_scales),
            "metrics": {
                "series": self.record_series,
                "stride": self.series_stride,
                "drift": self.record_drift,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        name = _str(_require(_known(doc, _CONFIG_FIELDS, "config"), "name", "config"), "config.name")
        graph = GraphConfig.from_dict(_require(doc, "graph", "config"))
        raw_classes = _list(_require(doc, "classes", "config"), "config.classes")
        classes = tuple(
            ClassConfig.from_dict(c, f"classes[{i}]") for i, c in enumerate(raw_classes)
        )
        raw_pol = _list(_require(doc, "policies", "config"), "config.policies")
        policies = tuple(_policy_from_dict(p, f"policies[{i}]") for i, p in enumerate(raw_pol))
        scheduler = _str(doc.get("scheduler", "fifo"), "config.scheduler")
        horizon = _int(_require(doc, "horizon", "config"), "config.horizon")
        seeds = tuple(_int(s, "config.seeds") for s in _list(doc.get("seeds", [1]), "config.seeds"))
        rate_scales = tuple(
            _num(s, "config.rate_scales") for s in _list(doc.get("rate_scales", [1.0]), "config.rate_scales")
        )
        metrics = _known(doc.get("metrics", {}), _METRICS_FIELDS, "metrics")
        return cls(
            name=name,
            graph=graph,
            classes=classes,
            policies=policies,
            keys=_keys_from_dict(doc.get("keys", {})),
            scheduler=scheduler,
            horizon=horizon,
            seeds=seeds,
            queue_cap=_int(doc.get("queue_cap", 10_000), "config.queue_cap"),
            rate_scales=rate_scales,
            record_series=_bool(metrics.get("series", True), "metrics.series"),
            series_stride=_int(metrics.get("stride", 1), "metrics.stride"),
            record_drift=_bool(metrics.get("drift", False), "metrics.drift"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        return cls.from_dict(doc)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def build_classes(self, scale: float = 1.0) -> list[TrafficClass]:
        built = []
        for i, c in enumerate(self.classes):
            try:
                built.append(c.build(scale))
            except ValueError as exc:
                raise ConfigError(f"classes[{i}] at rate scale {scale:g}: {exc}") from None
        return built


# ---------------------------------------------------------------------------
# presets

def _two_node_link() -> GraphConfig:
    return GraphConfig(
        kind="inline",
        nodes=2,
        edges=(EdgeSpec(0, 1, gamma=1, eta=0.5, has_qkd=True, directed=True),),
    )


def preset_counterexample() -> ExperimentConfig:
    """Single saturated link: fresh-keys-only service versus the tandem policy."""
    return ExperimentConfig(
        name="counterexample",
        graph=_two_node_link(),
        classes=(
            ClassConfig(id=0, source=0, kind="unicast", destinations=(1,),
                        process="bernoulli", rate=0.45),
        ),
        policies=(SingleQueueMode(), TandemMode(key_storage=True), TandemMode(key_storage=False)),
        horizon=100_000,
        seeds=(1,),
        series_stride=10,
    )


def _od_pairs(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """``count`` distinct (source, destination) pairs of distinct nodes below ``n``."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        s, d = int(rng.integers(n)), int(rng.integers(n))
        if s != d and (s, d) not in pairs:
            pairs.append((s, d))
    return pairs


def preset_unicast_sweep() -> ExperimentConfig:
    """Delay-versus-load comparison across policies at desk scale (N=20).

    Every class runs at the constructed uniform boundary, scaled by each
    rate scale; ``compare`` also reports each policy's mean residual keys.
    """
    from .analysis import constructed_uniform_boundary

    gcfg = GraphConfig(kind="erdos_renyi", nodes=20, p=0.3, graph_seed=7)
    pairs = _od_pairs(20, 6, np.random.default_rng(gcfg.graph_seed + 1000))
    probe = [
        TrafficClass(id=i, source=s, kind=Unicast(d), arrival=Bernoulli(0.1))
        for i, (s, d) in enumerate(pairs)
    ]
    boundary, _ = constructed_uniform_boundary(gcfg.build(), probe)
    classes = tuple(
        ClassConfig(id=i, source=s, kind="unicast", destinations=(d,),
                    process="bernoulli", rate=min(boundary, 1.0))
        for i, (s, d) in enumerate(pairs)
    )
    return ExperimentConfig(
        name="unicast-sweep",
        graph=gcfg,
        classes=classes,
        policies=(
            TandemMode(key_storage=True),
            TandemMode(key_storage=False),
            BackpressureMode(),
        ),
        horizon=10_000,
        seeds=(1, 2, 3),
        rate_scales=(0.3, 0.5, 0.7),
        series_stride=10,
    )


def preset_broadcast_sweep() -> ExperimentConfig:
    """Two-root broadcast under both tandem variants and single-queue, which saturates at scale 2.0."""
    gcfg = GraphConfig(kind="erdos_renyi", nodes=8, p=0.45, graph_seed=11)
    classes = (
        ClassConfig(id=0, source=0, kind="broadcast", process="bernoulli", rate=0.10,
                    destinations=()),
        ClassConfig(id=1, source=3, kind="broadcast", process="bernoulli", rate=0.10,
                    destinations=()),
    )
    return ExperimentConfig(
        name="broadcast-sweep",
        graph=gcfg,
        classes=classes,
        policies=(
            TandemMode(key_storage=True),
            TandemMode(key_storage=False),
            SingleQueueMode(),
        ),
        horizon=10_000,
        seeds=(1, 2, 3),
        rate_scales=(0.4, 0.7, 1.0, 2.0),
        series_stride=10,
    )


def preset_mixed_security() -> ExperimentConfig:
    """Mixed security levels: plain, encrypted-high, encrypted-low traffic.

    The three groups share origin-destination pairs so their delays differ
    only through the encryption stage, not through topology luck.
    """
    gcfg = GraphConfig(kind="erdos_renyi", nodes=16, p=0.35, graph_seed=14, qkd_fraction=0.7)
    g = gcfg.build()
    if not g.connected(g.key_mask):
        raise ConfigError("mixed-security preset graph lost key-level connectivity")
    classes = []
    cid = 0
    for s, d in _od_pairs(g.n, 2, np.random.default_rng(99)):
        for sec, prio in (("classical", 0), ("quantum", 1), ("quantum", 0)):
            classes.append(
                ClassConfig(id=cid, source=s, kind="unicast", destinations=(d,),
                            process="bernoulli", rate=0.15, security=sec, priority=prio)
            )
            cid += 1
    return ExperimentConfig(
        name="mixed-security",
        graph=gcfg,
        classes=tuple(classes),
        policies=(MultilevelMode(key_storage=True),),
        horizon=10_000,
        seeds=(1, 2, 3, 4, 5),
        rate_scales=(1.0,),
        series_stride=10,
    )


def preset_unicast_full() -> ExperimentConfig:
    """Full-scale run: N=150, bursty arrivals, 1e5 slots per cell."""
    gcfg = GraphConfig(kind="erdos_renyi", nodes=150, p=0.3, graph_seed=42)
    pairs = _od_pairs(150, 15, np.random.default_rng(gcfg.graph_seed + 1000))
    classes = tuple(
        ClassConfig(
            id=i, source=s, kind="unicast", destinations=(d,),
            process="ppbp",
            ppbp={"sources": 2, "burst_rate": 1, "hurst": 0.8, "mean_burst_slots": 5.0,
                  "mean_sleep_slots": 25.0, "max_packets_per_burst": 5000},
        )
        for i, (s, d) in enumerate(pairs)
    )
    return ExperimentConfig(
        name="unicast-full",
        graph=gcfg,
        classes=classes,
        policies=(
            TandemMode(key_storage=True),
            TandemMode(key_storage=False),
            BackpressureMode(),
        ),
        horizon=100_000,
        seeds=(1,),
        rate_scales=(1.0,),
        series_stride=100,
    )


PRESETS = {
    "counterexample": preset_counterexample,
    "unicast-sweep": preset_unicast_sweep,
    "broadcast-sweep": preset_broadcast_sweep,
    "mixed-security": preset_mixed_security,
    "unicast-full": preset_unicast_full,
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
    return factory()
