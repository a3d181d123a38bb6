"""Fast tests of the benchmark itself: workloads at tiny horizons, and each
output check shown to reject a doctored cell.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, Bench, _unit  # noqa: E402

TINY = {"full-unicast": 40, "desk-unicast": 300, "desk-multiclass": 300}


@pytest.fixture(scope="module")
def desk_round(tmp_path_factory):
    """One desk-unicast round at a short horizon: (bench, output dir, cells)."""
    from qkdsim import cli

    bench = Bench("desk-unicast", 3, tmp_path_factory.mktemp("desk") / "run", horizon=400)
    out = bench.run_dir / "out"
    cli.run_experiment(bench.cfg, out, workers=1)
    cells = {stem: json.loads((out / f"{stem}.json").read_text()) for *_, stem in
             checks.cell_stems(bench.cfg)}
    return bench, out, cells


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_rounds_pass_checks_and_trace_repeats(name, tmp_path):
    bench = Bench(name, 7, tmp_path / "run", horizon=TINY[name])
    bench.round()
    tracers = [layers.Tracer(), layers.Tracer()]
    for t in tracers:
        bench.round(t)
    assert bench.failed == 0 and bench.consistent
    assert bench.n_rounds == 3
    first, second = (t.metrics() for t in tracers)
    assert tracers[0].absent == []
    for key in ("traffic.slots_drawn", "keying.bank_calls", "routing.path_calls",
                "routing.tree_calls", "policy.select_calls", "policy.weights_reused_share"):
        assert first[key] == second[key]
    assert first["engine.self_s"] > 0 and first["keying.bank_calls"] > 0
    assert (first["routing.tree_calls"] > 0) == (name == "desk-multiclass")


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    printed = [*layers.Tracer().metrics(), "cli.output_bytes", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert all(m["unit"] == _unit(m["name"]) for m in spec["per_layer"])


def test_same_seed_same_config_and_seeds_differ():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 5) == workloads.make_config(name, 5)
        assert workloads.make_config(name, 5) != workloads.make_config(name, 6)


def test_full_unicast_has_the_preset_edge_count():
    doc = workloads.make_config("full-unicast", 2)
    assert 2 * len(doc["graph"]["edges"]) == 6716
    assert len(doc["classes"]) == 15


def test_boundary_matches_qkdsim_constructed_boundary():
    from qkdsim.analysis import constructed_uniform_boundary
    from qkdsim.config import ExperimentConfig

    for seed in (1, 2, 3):
        doc = workloads.make_config("desk-unicast", seed)
        cfg = ExperimentConfig.from_dict(doc)
        theirs, _ = constructed_uniform_boundary(cfg.graph.build(), cfg.build_classes(1.0))
        ours = doc["classes"][0]["arrival"]["rate"]
        assert ours == pytest.approx(min(theirs, 1.0), rel=1e-12)


def test_hop_bounds_on_a_path_graph():
    edges = [{"u": i, "v": i + 1, "gamma": 1, "eta": 0.5, "has_qkd": i != 1, "directed": False}
             for i in range(3)] + [{"u": 0, "v": 2, "gamma": 1, "eta": 0.5, "has_qkd": True,
                                    "directed": False}]
    # 0-1 (key), 1-2 (no key), 2-3 (key), 0-2 (key)
    doc = {"graph": {"nodes": 4, "edges": edges}, "classes": [
        {"id": 0, "source": 1, "kind": "unicast", "destinations": [3], "security": "classical"},
        {"id": 1, "source": 1, "kind": "unicast", "destinations": [3], "security": "quantum"},
        {"id": 2, "source": 0, "kind": "broadcast", "destinations": [], "security": "quantum"},
        {"id": 3, "source": 1, "kind": "anycast", "destinations": [2, 3], "security": "quantum"},
        {"id": 4, "source": 1, "kind": "multicast", "destinations": [2, 3], "security": "classical"},
    ]}
    assert workloads.hop_bounds(doc) == {0: 2, 1: 3, 2: 2, 3: 2, 4: 2}


def _problems(bench, cells, mutate, label="tandem-store"):
    stem, cell = next((s, c) for s, c in cells.items() if c["policy"] == label)
    cell = copy.deepcopy(cell)
    mutate(cell)
    lbl, scale, seed, _ = next(x for x in checks.cell_stems(bench.cfg) if x[3] == stem)
    return checks.check_cell(cell, bench.doc, lbl, scale, seed, bench.hop_bounds,
                             bench.w.min_delivered_share)


def test_untouched_cells_pass(desk_round):
    bench, out, _ = desk_round
    verdicts = checks.check_round(out, bench.cfg, bench.doc, bench.hop_bounds,
                                  bench.w.min_delivered_share)
    assert verdicts and all(p == [] for p in verdicts.values())


def test_rejects_delivered_above_arrivals(desk_round):
    bench, _, cells = desk_round

    def mutate(cell):
        extra = cell["totals"]["arrivals"] + 1 - cell["totals"]["delivered"]
        cell["totals"]["delivered"] += extra
        cell["classes"]["0"]["delivered"] += extra

    problems = _problems(bench, cells, mutate)
    assert len(problems) == 1 and problems[0].startswith("conservation: arrivals")


def test_rejects_per_class_totals_that_do_not_add_up(desk_round):
    bench, _, cells = desk_round

    def mutate(cell):
        cell["classes"]["1"]["dropped"] += 3

    assert any("per-class dropped" in p for p in _problems(bench, cells, mutate))


def test_rejects_mean_delay_below_hop_bound(desk_round):
    bench, _, cells = desk_round
    cid = max(bench.hop_bounds, key=bench.hop_bounds.get)
    assert bench.hop_bounds[cid] >= 2

    def mutate(cell):
        cell["classes"][str(cid)]["mean_delay"] = bench.hop_bounds[cid] - 1.5

    assert any("below the hop bound" in p for p in _problems(bench, cells, mutate))


def test_rejects_bernoulli_arrivals_off_the_rate(desk_round):
    bench, _, cells = desk_round

    def mutate(cell):
        c = cell["classes"]["2"]
        extra = bench.doc["horizon"] // 4
        c["arrivals"] += extra
        c["dropped"] += extra
        cell["totals"]["arrivals"] += extra
        cell["totals"]["dropped"] += extra

    problems = _problems(bench, cells, mutate, "backpressure")
    assert problems and all("class 2:" in p and "arrivals" in p for p in problems)


def test_rejects_low_delivery_for_tandem_but_not_for_baselines(desk_round):
    bench, _, cells = desk_round

    def mutate(cell):
        moved = cell["totals"]["delivered"] // 2
        cell["totals"]["delivered"] -= moved
        cell["totals"]["in_flight"] += moved
        for c in cell["classes"].values():
            step = min(moved, c["delivered"])
            c["delivered"] -= step
            moved -= step

    assert any("share" in p for p in _problems(bench, cells, mutate, "tandem-nostore"))
    assert _problems(bench, cells, mutate, "backpressure") == []


def test_rejects_a_cell_of_the_wrong_policy(desk_round):
    bench, _, cells = desk_round
    problems = _problems(bench, cells, lambda c: c.update(policy="backpressure"))
    assert any("expected tandem-store" in p for p in problems)


def test_detects_files_that_differ_between_rounds(desk_round):
    bench, out, _ = desk_round
    ref = checks.digest(out)
    stems = [s for *_, s in checks.cell_stems(bench.cfg)]
    got = dict(ref, **{f"{stems[1]}.csv": "0" * 64})
    assert checks.mismatched_cells(ref, ref, stems) == set()
    assert checks.mismatched_cells(ref, got, stems) == {stems[1]}


def test_trace_restores_names_and_reports_absent_ones(monkeypatch):
    import qkdsim.engine as engine
    import qkdsim.keying as keying

    before = (engine.select_routes, keying.KeyBank.deposit)
    monkeypatch.delattr(engine, "multilevel_select_routes")
    tracer = layers.Tracer()
    with layers.traced(tracer):
        assert engine.select_routes is not before[0]
    assert (engine.select_routes, keying.KeyBank.deposit) == before
    assert tracer.absent == ["qkdsim.engine.multilevel_select_routes"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-unicast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_task_is_fixed_and_timed():
    import reference

    assert reference._task() == reference._EXPECTED
    assert 0 < reference.speed_probe(3) < 10
