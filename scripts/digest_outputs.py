#!/usr/bin/env python3
"""Print one sha256 over every output file of every preset and bench workload.

    python scripts/digest_outputs.py --seeds 101 102

Runs each preset with its horizon cut to 2,000 slots (``unicast-full`` to
50), and the three ``bench/workloads.py`` configs at each seed given, all
through ``cli.run_experiment`` with one worker, into a temporary directory
that is removed afterwards.  A last run, ``random sweep``, calls
``simulate`` on 600 small seeded random cells (4-8 nodes, queue caps 1-4,
every policy, both schedulers, paths and trees, masked multilevel, three
key processes with overrides, drift, ``check_invariants=True``, whose
checks include the queue totals behind ``x_sum`` and ``y_sum``), where a
full queue decides which copies drop; the presets' queues never fill.
Every output file's path and bytes go into one digest, which is printed
last on standard output; one digest per run goes to standard error, to
find the run that differs.  Each file is keyed by its run's label, not
its position, so adding or removing a preset leaves the other runs'
digests as they were.  A refactor that means to keep every output byte
prints the same digest before and after.  The code digested is this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qkdsim.cli import run_experiment  # noqa: E402
from qkdsim.config import PRESETS, ExperimentConfig, preset_config  # noqa: E402
from qkdsim.engine import simulate  # noqa: E402
from qkdsim.keying import KeySpec  # noqa: E402
from qkdsim.policy import BackpressureMode, MultilevelMode, SingleQueueMode, TandemMode  # noqa: E402
from qkdsim.topology import erdos_renyi  # noqa: E402
from qkdsim.traffic import Anycast, Bernoulli, Broadcast, Multicast, TrafficClass, TruncatedPoisson, Unicast  # noqa: E402
import workloads  # noqa: E402

HORIZONS = {"unicast-full": 50}
DEFAULT_HORIZON = 2_000
SWEEP_CELLS = 600
SWEEP_SEED = 17
# each mode of the sweep, and the traffic kinds it may run
SWEEP_MODES = (
    (TandemMode(key_storage=True), "uamb"), (TandemMode(key_storage=False), "uamb"),
    (MultilevelMode(key_storage=True), "uamb"), (MultilevelMode(key_storage=False), "uamb"),
    (SingleQueueMode(), "uamb"), (BackpressureMode(key_cap=3), "u"),
)


def _configs(seeds: list[int]):
    for name in PRESETS:
        cfg = preset_config(name)
        yield name, dataclasses.replace(cfg, horizon=min(cfg.horizon, HORIZONS.get(name, DEFAULT_HORIZON)))
    for name in workloads.WORKLOADS:
        for seed in seeds:
            yield f"{name} seed {seed}", ExperimentConfig.from_dict(workloads.make_config(name, seed))


def _sweep_cell(rng: np.random.Generator) -> dict:
    """The arguments of one small random ``simulate`` call."""
    mode, kinds = SWEEP_MODES[rng.integers(len(SWEEP_MODES))]
    multilevel = isinstance(mode, MultilevelMode)
    n = int(rng.integers(4, 9))
    g = None
    while g is None or not g.connected(g.key_mask):
        g = erdos_renyi(n, 0.5, int(rng.integers(1, 3)), (0.3, 2.0), int(rng.integers(10**6)),
                        0.6 if multilevel and rng.random() < 0.7 else 1.0)
    classes = []
    for cid in range(int(rng.integers(1, 4))):
        src = int(rng.integers(n))
        others = [v for v in range(n) if v != src]
        dests = tuple(sorted(int(v) for v in rng.choice(others, size=min(3, len(others)), replace=False)))
        kind = {"u": Unicast(dests[0]), "a": Anycast(dests[:2]), "m": Multicast(dests), "b": Broadcast()}[
            kinds[rng.integers(len(kinds))]]
        arrival = Bernoulli(float(rng.uniform(0.3, 1.0))) if rng.random() < 0.5 else \
            TruncatedPoisson(float(rng.uniform(0.5, 2.5)), cap=3)
        security = "classical" if multilevel and rng.random() < 0.4 else "quantum"
        classes.append(TrafficClass(cid, src, kind, arrival, security=security, priority=int(rng.integers(2))))
    process = ("truncated_poisson", "deterministic", "bb84")[rng.integers(3)]
    e = g.edges[rng.integers(g.m)]
    override = KeySpec(kind="deterministic", value=int(rng.integers(3)))
    keys = KeySpec(kind=process, k_max=int(rng.integers(1, 6)), value=int(rng.integers(3)), photons=4,
                   overrides=(((e.u, e.v), override),) if rng.random() < 0.5 else ())
    return dict(
        g=g, classes=classes, mode=mode, keys=keys,
        scheduler="fifo" if isinstance(mode, BackpressureMode) or rng.random() < 0.5 else "ento",
        horizon=int(rng.integers(20, 60)), seed=int(rng.integers(10**6)), queue_cap=int(rng.integers(1, 5)),
        series_stride=int(rng.integers(1, 4)), check_invariants=True, record_drift=bool(rng.random() < 0.5),
    )


def _sweep(cells: int, seed: int):
    """Each random cell's JSON and CSV bytes, named by the cell."""
    rng = np.random.default_rng(seed)
    for i in range(cells):
        record = simulate(**_sweep_cell(rng))
        yield f"cell{i}.json", record.to_json_bytes()
        yield f"cell{i}.csv", record.to_csv_bytes()


def _runs(seeds: list[int], tmp: Path):
    """(label, its output files as (name, bytes)) for every run."""
    for i, (label, cfg) in enumerate(_configs(seeds)):
        out = tmp / str(i)
        run_experiment(cfg, out)
        yield label, ((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
    yield "random sweep", _sweep(SWEEP_CELLS, SWEEP_SEED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102],
                        help="bench workload seeds (default: 101 102)")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for label, files in _runs(args.seeds, Path(tmp)):
            run = hashlib.sha256()
            for name, data in files:
                for h in (run, total):
                    h.update(f"{label}/{name}\0{len(data)}\0".encode())
                    h.update(data)
            print(f"{run.hexdigest()}  {label}", file=sys.stderr)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
