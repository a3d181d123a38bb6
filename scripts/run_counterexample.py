#!/usr/bin/env python3
"""Single saturated QKD link: fresh-keys-only service vs the tandem policy.

With gamma=1 and Poisson(0.5) keys, spending only fresh keys caps the
delivered rate near 1-exp(-0.5) ~ 0.393 and the backlog diverges at an
offered load of 0.45; the tandem policy carries the full 0.45 either with
or without key storage.
"""

import sys
from pathlib import Path

from qkdsim.analysis import stability_test
from qkdsim.cli import run_experiment
from qkdsim.config import preset_config
from qkdsim.engine import simulate


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/counterexample")
    cfg = preset_config("counterexample")
    run_experiment(cfg, out)
    g, classes = cfg.graph.build(), cfg.build_classes()
    for pol in cfg.policies:
        record = simulate(
            g, classes, pol, keys=cfg.keys, horizon=cfg.horizon, seed=cfg.seeds[0], series_stride=1,
        )
        verdict = stability_test(record.series["backlog_sum"])
        print(
            f"{pol.label:>14}: delivered rate {record.delivered_rate():.4f}, "
            f"backlog {verdict.verdict} (slope {verdict.slope:.5f}/slot)"
        )
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
