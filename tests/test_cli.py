import concurrent.futures
import dataclasses
import json
import os
import re

import pytest

from qkdsim.analysis import stability_test
from qkdsim.cli import compare_runs, main, run_experiment
from qkdsim.config import ConfigError, ExperimentConfig, GraphConfig, preset_config
from qkdsim.engine import simulate
from qkdsim.policy import BackpressureMode, TandemMode
from qkdsim.topology import EdgeSpec


def _tiny_config(name="tiny", policies=None, rate_scales=(0.5, 1.0)):
    return {
        "name": name,
        "graph": {
            "kind": "inline",
            "nodes": 2,
            "edges": [{"u": 0, "v": 1, "gamma": 1, "eta": 0.6, "has_qkd": True, "directed": True}],
        },
        "classes": [
            {
                "id": 0,
                "source": 0,
                "kind": "unicast",
                "destinations": [1],
                "arrival": {"process": "bernoulli", "rate": 0.4},
            }
        ],
        "policies": policies or [{"mode": "tandem", "key_storage": True}],
        "horizon": 400,
        "seeds": [1, 2],
        "rate_scales": list(rate_scales),
    }


# ---------------------------------------------------------------------------
# config parsing

def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(_tiny_config())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg == again
    assert cfg.config_hash() == again.config_hash()


def test_missing_field_names_the_field():
    doc = _tiny_config()
    del doc["classes"][0]["source"]
    with pytest.raises(ConfigError, match=r"classes\[0\]\.source"):
        ExperimentConfig.from_dict(doc)
    doc = _tiny_config()
    del doc["horizon"]
    with pytest.raises(ConfigError, match="config.horizon"):
        ExperimentConfig.from_dict(doc)


def test_unknown_enums_rejected():
    doc = _tiny_config()
    doc["policies"] = [{"mode": "teleport"}]
    with pytest.raises(ConfigError, match="policies"):
        ExperimentConfig.from_dict(doc)
    doc = _tiny_config()
    doc["scheduler"] = "random"
    with pytest.raises(ConfigError, match="scheduler"):
        ExperimentConfig.from_dict(doc)


def test_ppbp_scaling_rejected():
    doc = _tiny_config()
    doc["classes"][0]["arrival"] = {"process": "ppbp", "sources": 2}
    cfg = ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError, match="scaling"):
        cfg.build_classes(scale=0.5)
    assert cfg.build_classes(scale=1.0)[0].arrival.sources == 2


@pytest.mark.parametrize(
    "field, value", [("has_qkd", "false"), ("gamma", 1.7), ("eta", True), ("has_keys", True)]
)
def test_edge_field_rejected_at_load(field, value):
    doc = _tiny_config()
    doc["graph"]["edges"][0][field] = value
    with pytest.raises(ConfigError, match=rf"^graph\.edges\[0\]\.{field}: "):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("field, value", [("source", 2), ("source", -1), ("destinations", [2])])
def test_class_endpoint_outside_the_graph_rejected_at_load(field, value):
    doc = _tiny_config()
    doc["classes"][0][field] = value
    with pytest.raises(ConfigError, match=rf"^classes\[0\]\.{field}: node -?[0-9]+ is not in the 2-node graph"):
        ExperimentConfig.from_dict(doc)


def test_optional_edge_fields_hash_like_their_spelled_out_form():
    spelled = ExperimentConfig.from_dict(_tiny_config())
    doc = _tiny_config()
    doc["graph"]["edges"] = [{"u": 0, "v": 1, "eta": 0.6, "directed": True}]
    short = ExperimentConfig.from_dict(doc)
    assert short == spelled and short.config_hash() == spelled.config_hash()
    doc["graph"]["edges"] = [{"u": 0, "v": 1, "eta": 1, "directed": True}]
    doc["classes"][0]["arrival"] = {"process": "ppbp", "hurst": 0.75, "mean_burst_slots": 4}
    whole = ExperimentConfig.from_dict(doc)
    doc["graph"]["edges"][0]["eta"] = 1.0
    doc["classes"][0]["arrival"]["mean_burst_slots"] = 4.0
    assert whole.config_hash() == ExperimentConfig.from_dict(doc).config_hash()


def test_config_name_rule_holds_for_configs_built_in_python():
    cfg = preset_config("counterexample")
    for name in ("../escaped", "a/b", "a\\b", "", ".."):
        with pytest.raises(ConfigError, match="config.name: must be a plain file name"):
            dataclasses.replace(cfg, name=name)


def test_seed_rules_hold_for_configs_built_in_python():
    cfg = preset_config("counterexample")
    for seeds, rule in (((), "must not be empty"), ((3, 3), "must be distinct"), ((1, -2), "must be >= 0, got -2")):
        with pytest.raises(ConfigError, match=f"^config.seeds: .*{rule}"):
            dataclasses.replace(cfg, seeds=seeds)


# id -> (the replace() fields of the loaded tiny config, the error's start)
_PYTHON_BUILT_REJECTED = {
    "no-rate-scales": (lambda cfg: {"rate_scales": ()}, "config.rate_scales: must not be empty"),
    "rate-scales-share-a-file-name": (lambda cfg: {"rate_scales": (0.1, 0.1000000001)},
                                      "config.rate_scales: scales must differ in their file-name form"),
    "repeated-labels": (lambda cfg: {"policies": (TandemMode(), TandemMode())},
                        "policies[1]: label 'tandem-store' repeats policies[0]"),
    "horizon-0": (lambda cfg: {"horizon": 0}, "config.horizon: must be >= 1"),
    "queue-cap-0": (lambda cfg: {"queue_cap": 0}, "config.queue_cap: must be >= 1"),
    "stride-0": (lambda cfg: {"series_stride": 0}, "metrics.stride: must be >= 1"),
    "no-classes": (lambda cfg: {"classes": ()}, "config.classes: at least one traffic class is required"),
    "repeated-class-ids": (lambda cfg: {"classes": cfg.classes * 2}, "config.classes: class ids must be unique"),
    "no-policies": (lambda cfg: {"policies": ()}, "config.policies: at least one policy is required"),
    "misspelt-kind": (lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], kind="unicst"),)},
                      "classes[0] at rate scale 0.5: unknown traffic kind 'unicst'"),
    "misspelt-process": (lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], process="bernouli"),)},
                         "classes[0] at rate scale 0.5: unknown process 'bernouli'"),
    "unicast-two-destinations": (
        lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], destinations=(1, 0)),)},
        "classes[0] at rate scale 0.5: a unicast class has one destination, got [1, 0]"),
    "unicast-no-destination": (lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], destinations=()),)},
                               "classes[0] at rate scale 0.5: a unicast class has one destination, got []"),
    "broadcast-destinations": (
        lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], kind="broadcast", destinations=(1,)),)},
        "classes[0] at rate scale 0.5: a broadcast class takes no destinations, got [1]"),
    "unknown-graph-kind": (lambda cfg: {"graph": GraphConfig(kind="bogus", nodes=4)},
                           "graph.kind: unknown graph kind 'bogus'"),
    "graph-p-above-1": (lambda cfg: {"graph": GraphConfig(kind="erdos_renyi", nodes=4, p=1.5)},
                        "graph.p: must be in (0, 1], got 1.5"),
    "graph-gamma-0": (lambda cfg: {"graph": GraphConfig(kind="erdos_renyi", nodes=4, p=1.0, gamma=0)},
                      "graph.gamma: must be >= 1, got 0"),
    # a fractional capacity used to send a link's whole queue every slot
    "graph-fractional-gamma": (lambda cfg: {"graph": GraphConfig(kind="erdos_renyi", nodes=4, p=1.0, gamma=1.5)},
                               "graph.gamma: must be a whole number, got 1.5"),
    "edge-fractional-gamma": (
        lambda cfg: {"graph": GraphConfig(kind="inline", nodes=2, edges=(EdgeSpec(0, 1, gamma=1.5),))},
        "graph.edges[0]: edge (0,1): gamma must be a whole number, got 1.5"),
    "graph-eta-range-three-values": (
        lambda cfg: {"graph": GraphConfig(kind="erdos_renyi", nodes=4, p=1.0, eta_range=(0.1, 0.2, 0.3))},
        "graph.eta_range: expected [low, high], got [0.1, 0.2, 0.3]"),
    "qkd-fraction-above-1": (
        lambda cfg: {"graph": GraphConfig(kind="erdos_renyi", nodes=4, p=1.0, qkd_fraction=2.5)},
        "graph.qkd_fraction: must be in [0, 1], got 2.5"),
    # rules that read only the config hold for a config built in Python too
    "scheduler-unknown": (lambda cfg: {"scheduler": "lifo"}, "config.scheduler: unknown scheduler 'lifo'"),
    "ento-with-backpressure": (lambda cfg: {"scheduler": "ento", "policies": (BackpressureMode(),)},
                               "config.scheduler: backpressure queues hold no hop counts"),
    "classical-class-under-tandem": (
        lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], security="classical"),)},
        "classes[0].security: tandem carries key-encrypted traffic only"),
    "source-out-of-range": (lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], source=5),)},
                            "classes[0].source: node 5 is not in the 2-node graph"),
    "destination-out-of-range": (
        lambda cfg: {"classes": (dataclasses.replace(cfg.classes[0], destinations=(7,)),)},
        "classes[0].destinations: node 7 is not in the 2-node graph"),
}


@pytest.mark.parametrize("fields, error", _PYTHON_BUILT_REJECTED.values(), ids=_PYTHON_BUILT_REJECTED.keys())
def test_configs_built_in_python_meet_the_load_rules(tmp_path, fields, error):
    cfg = ExperimentConfig.from_dict(_tiny_config())
    with pytest.raises(ConfigError, match="^" + re.escape(error)):
        run_experiment(dataclasses.replace(cfg, **fields(cfg)), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_presets_build_and_round_trip():
    for name in ("counterexample", "unicast-sweep", "broadcast-sweep", "mixed-security"):
        cfg = preset_config(name)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("nope")


# ---------------------------------------------------------------------------
# run command

def test_run_writes_manifest_and_all_files(tmp_path):
    cfg = ExperimentConfig.from_dict(_tiny_config())
    manifest = run_experiment(cfg, tmp_path / "out")
    files = set(manifest["files"])
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert on_disk == files | {"manifest.json"}
    # 1 policy x 2 scales x 2 seeds -> 4 csv + 4 json + 2 summaries
    assert len(files) == 10
    agg = json.loads((tmp_path / "out" / sorted(files)[1]).read_text())
    assert "totals" in agg or "per_class" in agg


def test_run_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    rc = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "runs")])
    assert rc == 0
    assert (tmp_path / "runs" / "tiny" / "manifest.json").exists()


def test_run_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    rc = main(["run", "--config", str(cfg_path), "--seed", "7", "--output", str(tmp_path / "runs")])
    assert rc == 0
    manifest = json.loads((tmp_path / "runs" / "tiny" / "manifest.json").read_text())
    assert manifest["seeds"] == [7]


def test_run_cli_invalid_config_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--output", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


def test_backpressure_with_ento_rejected(tmp_path, capsys):
    doc = _tiny_config(policies=[{"mode": "tandem"}, {"mode": "backpressure"}])
    doc["scheduler"] = "ento"
    with pytest.raises(ConfigError, match=r"config\.scheduler"):
        ExperimentConfig.from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "config.scheduler" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_baselines_reject_classical_classes_at_load(tmp_path, capsys):
    for mode in ("single_queue", "backpressure"):
        doc = _tiny_config(policies=[{"mode": mode}])
        doc["classes"][0]["security"] = "classical"
        with pytest.raises(ConfigError, match=r"classes\[0\]\.security"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "classes[0].security" in capsys.readouterr().err
    doc = _tiny_config(policies=[{"mode": "multilevel"}])
    doc["classes"][0]["security"] = "classical"
    assert ExperimentConfig.from_dict(doc).classes[0].security == "classical"


# A graph with one link that generates no keys: only multilevel runs on it.
_KEYLESS_LINK = {
    "kind": "inline",
    "nodes": 3,
    "edges": [{"u": 0, "v": 1, "eta": 0.6}, {"u": 1, "v": 2, "eta": 0.6},
              {"u": 0, "v": 2, "has_qkd": False}],
}


def _one_link(**edge):
    return {"kind": "inline", "nodes": 2,
            "edges": [{"u": 0, "v": 1, "eta": 0.6, "directed": True, **edge}]}


def _inline(nodes, *links):
    """Inline graph of (u, v) two-way and (u, v, True) one-way links."""
    return {"kind": "inline", "nodes": nodes,
            "edges": [{"u": u, "v": v, "eta": 0.6, "directed": bool(one_way)} for u, v, *one_way in links]}


def _er(**fields):
    return {"kind": "erdos_renyi", "nodes": 10, "p": 0.4, "graph_seed": 3, **fields}


# id -> (top-level fields, fields of classes[0] (None: no classes[0]), field the error names)
_REJECTED = {
    "name-escapes-output": ({"name": "../../escape"}, {}, "config.name"),
    "name-true": ({"name": True}, {}, "config.name: expected a string"),
    "name-int": ({"name": 7}, {}, "config.name: expected a string"),
    "security-true": ({"policies": [{"mode": "multilevel"}]}, {"security": True},
                      "classes[0].security: expected a string"),
    "security-unknown": ({"policies": [{"mode": "multilevel"}]}, {"security": "plain"},
                         "classes[0].security: must be 'quantum' or 'classical'"),
    "no-rate-scales": ({"rate_scales": []}, {}, "config.rate_scales"),
    "duplicate-seeds": ({"seeds": [1, 1]}, {}, "config.seeds"),
    "negative-seed": ({"seeds": [-1]}, {}, "config.seeds: must be >= 0, got -1"),
    "duplicate-labels": ({"policies": [{"mode": "tandem"}, {"mode": "tandem"}]}, {}, "policies[1]"),
    "queue-cap-0": ({"queue_cap": 0}, {}, "config.queue_cap"),
    "negative-stride": ({"metrics": {"stride": -5}}, {}, "metrics.stride"),
    "unicast-two-destinations": ({}, {"destinations": [1, 2]}, "classes[0].destinations"),
    "deterministic-keys-no-value": ({"keys": {"process": "deterministic"}}, {}, "keys.value"),
    "unknown-ppbp-key": ({"rate_scales": [1.0]}, {"arrival": {"process": "ppbp", "bursts": 2}},
                         "classes[0].arrival.bursts"),
    "tandem-on-keyless-link": (
        {"graph": _KEYLESS_LINK, "policies": [{"mode": "multilevel"}, {"mode": "tandem"}]},
        {"destinations": [2]}, "policies[1]"),
    "backpressure-broadcast": ({"policies": [{"mode": "backpressure"}]}, {"kind": "broadcast", "destinations": []},
                               "policies[0]: backpressure baseline supports unicast"),
    "broadcast-destinations": ({}, {"kind": "broadcast", "destinations": [1]},
                               "classes[0] at rate scale 0.5: a broadcast class takes no destinations, got [1]"),
    "source-out-of-range": ({}, {"source": 5}, "classes[0].source"),
    "destination-out-of-range": ({}, {"destinations": [7]}, "classes[0].destinations"),
    "key-storage-string": ({"policies": [{"mode": "tandem", "key_storage": "false"}]}, {},
                           "policies[0].key_storage"),
    "series-string": ({"metrics": {"series": "false"}}, {}, "metrics.series"),
    "fractional-seed": ({"seeds": [1.7]}, {}, "config.seeds"),
    "stride-string": ({"metrics": {"stride": "x"}}, {}, "metrics.stride"),
    "negative-key-cap": ({"policies": [{"mode": "backpressure", "key_cap": -1}]}, {},
                         "policies[0].key_cap"),
    "fractional-ppbp-sources": ({"rate_scales": [1.0]}, {"arrival": {"process": "ppbp", "sources": 2.5}},
                                "classes[0].arrival.sources"),
    "unknown-top-level-field": ({"seed": 5}, {}, "config.seed:"),
    "unknown-policy-field": ({"policies": [{"mode": "tandem", "storage": False}]}, {},
                             "policies[0].storage"),
    "unknown-metrics-field": ({"metrics": {"strid": 10}}, {}, "metrics.strid"),
    "unknown-keys-field": ({"keys": {"kmax": 5}}, {}, "keys.kmax"),
    "unknown-bernoulli-field": ({}, {"arrival": {"process": "bernoulli", "rate": 0.4, "burst": 3}},
                                "classes[0].arrival.burst"),
    "unknown-class-field": ({}, {"prio": 1}, "classes[0].prio"),
    "unknown-graph-field": ({"graph": {**_one_link(), "p": 0.3}}, {}, "graph.p"),
    "override-holds-overrides": ({"keys": {"overrides": [{"u": 0, "v": 1, "overrides": []}]}}, {},
                                 "keys.overrides[0].overrides"),
    "ppbp-min-packets-per-burst": ({"rate_scales": [1.0]},
                                   {"arrival": {"process": "ppbp", "min_packets_per_burst": 2}},
                                   "classes[0].arrival.min_packets_per_burst"),
    "edge-has-qkd-string": ({"graph": _one_link(has_qkd="false")}, {}, "edges[0].has_qkd"),
    "edge-directed-string": ({"graph": _one_link(directed="false")}, {}, "edges[0].directed"),
    "edge-fractional-gamma": ({"graph": _one_link(gamma=1.7)}, {}, "edges[0].gamma"),
    "edge-unknown-field": ({"graph": _one_link(has_keys=True)}, {}, "edges[0].has_keys"),
    "plain-class-unreachable": (
        {"graph": _inline(4, (0, 1), (2, 3)), "policies": [{"mode": "multilevel"}]},
        {"destinations": [3], "security": "classical"}, "policies[0]"),
    "broadcast-one-way-link": ({"graph": _inline(3, (0, 1), (1, 2, True))},
                               {"kind": "broadcast", "destinations": []}, "policies[0]"),
    "multicast-one-way-link": ({"graph": _inline(3, (0, 1), (1, 2, True))},
                               {"kind": "multicast", "destinations": [1, 2]}, "policies[0]"),
    "multicast-terminal-unreachable": ({"graph": _inline(4, (0, 1), (2, 3))},
                                       {"kind": "multicast", "destinations": [1, 3]}, "policies[0]"),
    "broadcast-node-unreachable": ({"graph": _inline(4, (0, 1), (2, 3))},
                                   {"kind": "broadcast", "destinations": []}, "policies[0]"),
    "qkd-fraction-above-1": ({"graph": _er(qkd_fraction=2.5)}, {}, "graph.qkd_fraction"),
    "qkd-fraction-negative": ({"graph": _er(qkd_fraction=-1.0)}, {}, "graph.qkd_fraction"),
    "bb84-negative-photons": ({"keys": {"process": "bb84", "photons": -1}}, {}, "keys.photons"),
    "bb84-eavesdrop-prob-above-1": ({"keys": {"process": "bb84", "eavesdrop_prob": 1.5}}, {},
                                    "keys.eavesdrop_prob"),
    "bb84-check-fraction-negative": ({"keys": {"process": "bb84", "check_fraction": -0.1}}, {},
                                     "keys.check_fraction"),
    "override-negative-photons": (
        {"keys": {"overrides": [{"u": 0, "v": 1, "process": "bb84", "photons": -1}]}}, {},
        "keys.overrides[0].photons"),
    "override-unknown-link": (
        {"keys": {"overrides": [{"u": 5, "v": 9, "process": "deterministic", "value": 3}]}}, {},
        "keys.overrides[0]:"),
    "override-repeats-link": (
        {"keys": {"overrides": [{"u": 0, "v": 1, "process": "deterministic", "value": 3},
                                {"u": 0, "v": 1, "process": "deterministic", "value": 0}]}}, {},
        "keys.overrides[1]: link (0, 1) is already overridden by overrides[0]"),
    "override-repeats-link-reversed": (
        {"keys": {"overrides": [{"u": 0, "v": 1, "process": "deterministic", "value": 3},
                                {"u": 1, "v": 0, "process": "deterministic", "value": 0}]}}, {},
        "keys.overrides[1]: link (1, 0) is already overridden by overrides[0]"),
    "edge-endpoint-out-of-range": ({"graph": {"kind": "inline", "nodes": 2, "edges": [{"u": 0, "v": 5}]}}, {},
                                   "error: graph.edges[0]: "),
    "edge-self-loop": ({"graph": {"kind": "inline", "nodes": 2, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 1}]}},
                       {}, "error: graph.edges[1]: "),
    "edge-duplicate": ({"graph": _inline(3, (0, 1), (1, 2), (1, 0))}, {}, "error: graph.edges[2]: "),
    "edge-gamma-0": ({"graph": _one_link(gamma=0)}, {}, "error: graph.edges[0]: "),
    "edge-eta-0-on-keyed-link": ({"graph": _one_link(eta=0.0)}, {}, "error: graph.edges[0]: "),
    "edge-eta-infinite-on-keyed-link": ({"graph": _one_link(eta=float("inf"))}, {},
                                        "error: graph.edges[0]: edge (0,1): eta must be finite"),
    "graph-p-above-1": ({"graph": _er(p=1.5)}, {}, "graph.p"),
    "graph-eta-range-reversed": ({"graph": _er(eta_range=[0.5, 0.1])}, {}, "graph.eta_range"),
    "graph-eta-range-infinite": ({"graph": _er(eta_range=[0.5, float("inf")])}, {},
                                 "error: graph.eta_range: the bounds must be finite"),
    "graph-eta-range-three-values": ({"graph": _er(eta_range=[0.1, 0.2, 0.3])}, {},
                                     "error: graph.eta_range: expected [low, high], got [0.1, 0.2, 0.3]"),
    "graph-gamma-0": ({"graph": _er(gamma=0)}, {}, "graph.gamma"),
    "graph-nodes-0": ({"graph": _er(nodes=0)}, {}, "graph.nodes"),
    "inline-graph-nodes-0": ({"graph": {**_one_link(), "nodes": 0}}, {}, "graph.nodes"),
    "graph-not-object": ({"graph": 5}, {}, "graph: expected an object"),
    "classes-not-list": ({"classes": 5}, None, "config.classes: expected a list"),
    "policy-not-object": ({"policies": [5]}, {}, "policies[0]: expected an object"),
    "policies-not-list": ({"policies": "tandem"}, {}, "config.policies: expected a list"),
    "arrival-not-object": ({}, {"arrival": 5}, "classes[0].arrival: expected an object"),
    "graph-file-missing": ({"graph": {"kind": "file", "path": "no-such-graph.json"}}, {}, "graph.path"),
    "graph-file-not-json": ({"graph": {"kind": "file", "path": __file__}}, {}, "graph.path"),
}


@pytest.mark.parametrize("top, cls, field", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_config_exits_2_naming_the_field_and_writes_nothing(tmp_path, capsys, top, cls, field):
    doc = _tiny_config()
    doc.update(top)
    if cls is not None:
        doc["classes"][0].update(cls)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "out" / "runs")]) == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_negative_seed_option_exits_2_naming_the_field_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    assert main(["run", "--config", str(path), "--seed", "-3", "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: config.seeds: must be >= 0, got -3")
    assert not (tmp_path / "out").exists()


def test_run_builds_the_graph_once(tmp_path, monkeypatch):
    calls = []
    build = GraphConfig.build
    monkeypatch.setattr(GraphConfig, "build", lambda self: calls.append(self) or build(self))
    cfg = ExperimentConfig.from_dict(_tiny_config(policies=[{"mode": "tandem"}, {"mode": "backpressure"}]))
    manifest = run_experiment(cfg, tmp_path / "out")
    # 2 policies x 2 scales x 2 seeds: 8 csv + 8 json + 4 summaries
    assert len(manifest["files"]) == 20
    assert len(calls) == 1


def test_each_simulate_call_routes_with_the_router_it_checked(tmp_path, monkeypatch):
    import qkdsim.engine as engine

    built, ran = [], []

    class Router(engine._Router):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    run = engine._Engine.run
    monkeypatch.setattr(engine, "_Router", Router)
    monkeypatch.setattr(engine._Engine, "run", lambda self: ran.append(self.router) or run(self))
    cfg = ExperimentConfig.from_dict(_tiny_config(policies=[{"mode": "tandem"}, {"mode": "backpressure"}]))
    engine.simulate(cfg.graph.build(), cfg.build_classes(1.0), cfg.policies[0], horizon=5, seed=0)
    # building the router is the check, and the run routes with the router it built
    assert len(built) == 1 and ran == built
    built.clear()
    ran.clear()
    run_experiment(cfg, tmp_path / "out")
    # one router per policy in the checks before the run, then one per cell (2 policies x 2 scales x 2 seeds)
    assert len(built) == 2 + 8
    assert ran == built[2:]


def test_rerun_into_a_directory_of_another_config_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))
    args = ["run", "--config", str(path), "--output", str(tmp_path / "runs")]
    assert main(args) == 0
    out = tmp_path / "runs" / "tiny"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0  # the same config may run again
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    path.write_text(json.dumps({**_tiny_config(), "horizon": 300}))
    assert main(args) == 2
    assert "--output" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_file_graph_errors_share_one_prefix(tmp_path, capsys):
    # a build error and a load error of one file's edge both name graph.edges[0];
    # the load error used to read graph.path.edges[0]
    graph = tmp_path / "g.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_tiny_config(), "graph": {"kind": "file", "path": str(graph)}}))
    for doc, error in (
        ({"nodes": 2, "edges": [{"u": 0, "v": 5}]}, "graph.edges[0]: edge (0,5) endpoint out of range for n=2"),
        ({"nodes": 2, "edges": [{"u": 0, "v": 1, "gamma": 1.5}]},
         "graph.edges[0].gamma: expected an integer, got 1.5"),
        ([0, 1], "graph.path: graph file"),  # a file that holds no graph object is the path's fault
    ):
        graph.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "runs").exists()


def test_graph_ranges_are_checked_when_the_graph_is_built():
    cfg = GraphConfig.from_dict(_er(p=1.5))  # loads; erdos_renyi owns the range
    with pytest.raises(ConfigError, match=re.escape("graph.p: must be in (0, 1], got 1.5")):
        cfg.build()
    cfg = GraphConfig.from_dict(_er(eta_range=[0.5, 0.1]))
    with pytest.raises(ConfigError, match=re.escape("graph.eta_range: need 0 < low <= high, got [0.5, 0.1]")):
        cfg.build()


def test_rerun_after_the_graph_file_changed_is_refused(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": 2, "edges": [{"u": 0, "v": 1, "eta": 0.6, "directed": True}]}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_tiny_config(), "graph": {"kind": "file", "path": str(graph)}}))
    args = ["run", "--config", str(path), "--output", str(tmp_path / "runs")]
    assert main(args) == 0
    out = tmp_path / "runs" / "tiny"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    graph.write_text(json.dumps({"nodes": 2, "edges": [{"u": 0, "v": 1, "eta": 0.9, "directed": True}]}))
    assert main(args) == 2
    assert "--output" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_workers_capped_at_jobs_and_cpus(tmp_path, monkeypatch):
    asked = []

    class RecordingPool:  # runs the jobs in this process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_config()))  # 1 policy x 2 scales x 2 seeds: 4 jobs
    for cpus, name in ((64, "a"), (3, "b"), (1, "c")):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        args = ["run", "--config", str(path), "--output", str(tmp_path / name), "--workers", "100000"]
        assert main(args) == 0
    assert asked == [4, 3]  # one cpu runs the cells serially, with no pool


def test_run_parallel_workers_match_serial(tmp_path):
    cfg = ExperimentConfig.from_dict(_tiny_config())
    run_experiment(cfg, tmp_path / "serial", workers=1)
    run_experiment(cfg, tmp_path / "par", workers=2)
    for p in sorted((tmp_path / "serial").iterdir()):
        assert (tmp_path / "par" / p.name).read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# determinism

def test_identical_config_and_seed_give_identical_bytes(tmp_path):
    cfg = ExperimentConfig.from_dict(_tiny_config())
    dirs = []
    for i in range(3):
        d = tmp_path / f"run{i}"
        run_experiment(cfg, d)
        dirs.append(d)
    base = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
    for d in dirs[1:]:
        assert {p.name: p.read_bytes() for p in d.iterdir()} == base


# ---------------------------------------------------------------------------
# compare command

def test_compare_identical_runs_zero_difference(tmp_path):
    # the same config under two names: the name never changes a number
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig.from_dict(_tiny_config(name="tiny_a")), a)
    run_experiment(ExperimentConfig.from_dict(_tiny_config(name="tiny_b")), b)
    out = tmp_path / "cmp.csv"
    compare_runs([a, b], out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "rate_scale"
    for row in lines[1:]:
        cells = row.split(",")
        half = (len(cells) - 1) // 2
        assert cells[1 : 1 + half] == cells[1 + half :]


def test_compare_storage_variants_keep_delay_order(tmp_path):
    # run storage and no-storage sweeps, then read the joined CSV back
    doc = _tiny_config(
        name="variants",
        policies=[
            {"mode": "tandem", "key_storage": True},
            {"mode": "tandem", "key_storage": False},
        ],
        rate_scales=(0.4, 0.8),
    )
    doc["horizon"] = 6000
    a = tmp_path / "a"
    run_experiment(ExperimentConfig.from_dict(doc), a)
    out = tmp_path / "cmp.csv"
    compare_runs([a], out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    store = header.index("mean_delay_mean__variants:tandem-store")
    nostore = header.index("mean_delay_mean__variants:tandem-nostore")
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[store]) <= float(cells[nostore])


def test_compare_mismatched_axes_error(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig.from_dict(_tiny_config()), a)
    run_experiment(ExperimentConfig.from_dict(_tiny_config(rate_scales=(0.25, 0.75))), b)
    with pytest.raises(ConfigError, match="mismatched sweep axes"):
        compare_runs([a, b], tmp_path / "cmp.csv")


def test_compare_one_dir_writes_per_scale_csv(tmp_path):
    run_experiment(ExperimentConfig.from_dict(_tiny_config()), tmp_path / "a")
    assert main(["compare", str(tmp_path / "a"), "--output", str(tmp_path / "cmp.csv")]) == 0
    lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
    assert lines[0].split(",") == [
        "rate_scale",
        *(f"{m}__tiny:tandem-store" for m in ("delivered_rate_mean", "mean_delay_mean", "residual_keys_mean")),
    ]
    assert [row.split(",")[0] for row in lines[1:]] == ["0.5", "1"]


def test_compare_rejects_two_runs_of_one_config_name(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentConfig.from_dict(_tiny_config()), a)
    run_experiment(ExperimentConfig.from_dict(_tiny_config(rate_scales=(0.5, 1.0))), b)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err and "'tiny'" in err
    assert not out.exists()


def test_compare_cli_exit_codes(tmp_path):
    assert main(["compare", str(tmp_path / "missing1"), str(tmp_path / "missing2"),
                 "--output", str(tmp_path / "c.csv")]) == 2


def test_run_prints_strided_verdicts_that_match_stride_1(tmp_path, capsys):
    # the counterexample at stride 10, cut to 20,000 slots: a 10,000-slot window of 1,000 rows
    doc = {**preset_config("counterexample").to_dict(), "horizon": 20_000}
    assert doc["metrics"]["stride"] == 10
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "runs")]) == 0
    printed = capsys.readouterr().out
    cfg = ExperimentConfig.from_dict(doc)
    g, classes = cfg.graph.build(), cfg.build_classes()
    verdicts = []
    for pol in cfg.policies:
        line = re.search(rf"^{pol.label} s1 seed1: .* backlog (\w+) \(slope (\S+)/slot\)$", printed, re.M)
        record = simulate(g, classes, pol, keys=cfg.keys, horizon=cfg.horizon, seed=1, series_stride=1)
        exact = stability_test(record.series["backlog_sum"], window=10_000)
        assert line.group(1) == exact.verdict
        assert abs(float(line.group(2)) - exact.slope) < 1e-4
        verdicts.append(exact.verdict)
    assert verdicts == ["unstable", "stable", "stable"]
