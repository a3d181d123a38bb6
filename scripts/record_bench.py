#!/usr/bin/env python3
"""Record benchmark medians in BENCH_<n>.json at the repository root.

    python scripts/record_bench.py --out BENCH_7.json --checkout parent=../parent --checkout change=.
    python scripts/record_bench.py --out BENCH_7.json --workload full-unicast --seeds 321 322 ...

Runs ``bench/run.py`` of each checkout for every seed and every workload
that ``BENCHMARK.json`` declares (or only those named by ``--workload``),
one process per run, and stores the median and quartiles of each
end-to-end metric per workload under the checkout's label, with the seeds
and seconds it ran.  Runs of several
checkouts are interleaved (seed by seed, workload by workload), so that a
busy spell of the machine falls on all of them alike, and the checkout
that runs first turns over from one seed to the next, so that neither
side always runs first.  The first ``--checkout`` is the base: for each
other checkout, workload and metric, ``wins`` counts the seeds where it
read better than the base (by ``BENCHMARK.json``'s ``better``), and
``losses`` those where it read worse.  ``--trace`` adds one traced run
per workload and checkout (the first seed) and stores its per-layer split.
An existing output file is updated: labels and workloads not run this
time are kept, unless the label's commit changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit(checkout: Path) -> str | None:
    """The checkout's commit, with "-dirty" when its tree has changes; None outside git."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                          text=True, cwd=checkout)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="file name at the repo root, e.g. BENCH_7.json")
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR",
                        help="a checkout to benchmark (default: change=<this repo>)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", action="store_true", help="also record one traced run per workload")
    parser.add_argument("--workload", action="append", choices=workloads, metavar="NAME",
                        help=f"run only this workload (repeatable; default: all of {', '.join(workloads)})")
    args = parser.parse_args(argv)
    chosen = [w for w in workloads if w in (args.workload or workloads)]

    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, _, path = item.partition("=")
        if not label or not path:
            parser.error(f"--checkout wants LABEL=DIR, got {item!r}")
        checkouts[label] = Path(path).resolve()
    labels = list(checkouts)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    results: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in chosen} for label in checkouts}
    for k, seed in enumerate(args.seeds):
        order = labels[k % len(labels):] + labels[:k % len(labels)]
        for w in chosen:
            for label in order:
                run = _bench(checkouts[label], w, seed, args.seconds, 0)
                results[label][w].append(run)
                value = run["metrics"]["slots_per_s"]["value"]
                print(f"{label} {w} seed {seed}: {value:.1f} slots/s, failed {run['failed']}", file=sys.stderr)

    out_path = ROOT / args.out
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update({
        "bench": "bench/run.py --trace 0",
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
    })
    doc.setdefault("checkouts", {})
    base = labels[0]
    for label, checkout in checkouts.items():
        commit = _commit(checkout)
        entry = doc["checkouts"].get(label, {})
        if entry.get("commit") != commit:
            entry = {"commit": commit, "workloads": {}}
        for w, runs in results[label].items():
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                 "unit": runs[0]["metrics"][name]["unit"], "runs": values}
                if label != base:
                    sign = 1 if better[name] == "higher" else -1
                    diffs = [sign * (v - r["metrics"][name]["value"]) for v, r in zip(values, results[base][w])]
                    metrics[name].update(base=base, wins=sum(d > 0 for d in diffs), losses=sum(d < 0 for d in diffs))
            entry["workloads"][w] = {
                "seeds": args.seeds,
                "seconds": args.seconds,
                "metrics": metrics,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "correct": all(r["correct"] for r in runs),
            }
            if args.trace:
                traced = _bench(checkout, w, args.seeds[0], args.seconds, 1)
                entry["workloads"][w]["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["checkouts"][label] = entry
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
