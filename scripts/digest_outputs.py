#!/usr/bin/env python3
"""Print one sha256 over every output file of every preset and bench workload.

    python scripts/digest_outputs.py --seeds 101 102

Runs each preset with its horizon cut to 2,000 slots (``unicast-full`` to
50), and the three ``bench/workloads.py`` configs at each seed given, all
through ``cli.run_experiment`` with one worker, into a temporary directory
that is removed afterwards.  Every output file's path and bytes go into
one digest, which is printed last on standard output; one digest per run
goes to standard error, to find the run that differs.  Each file is keyed
by its run's label, not its position, so adding or removing a preset
leaves the other runs' digests as they were.  A refactor that
means to keep every output byte prints the same digest before and after.
The code digested is this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qkdsim.cli import run_experiment  # noqa: E402
from qkdsim.config import PRESETS, ExperimentConfig, preset_config  # noqa: E402
import workloads  # noqa: E402

HORIZONS = {"unicast-full": 50}
DEFAULT_HORIZON = 2_000


def _configs(seeds: list[int]):
    for name in PRESETS:
        cfg = preset_config(name)
        yield name, dataclasses.replace(cfg, horizon=min(cfg.horizon, HORIZONS.get(name, DEFAULT_HORIZON)))
    for name in workloads.WORKLOADS:
        for seed in seeds:
            yield f"{name} seed {seed}", ExperimentConfig.from_dict(workloads.make_config(name, seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102],
                        help="bench workload seeds (default: 101 102)")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(_configs(args.seeds)):
            out = Path(tmp) / str(i)
            run_experiment(cfg, out)
            run = hashlib.sha256()
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                for h in (run, total):
                    h.update(f"{label}/{path.name}\0{len(data)}\0".encode())
                    h.update(data)
            print(f"{run.hexdigest()}  {label}", file=sys.stderr)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
