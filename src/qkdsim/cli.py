"""Experiment runner CLI.

``run`` checks every (policy, rate scale, seed) cell of a config or
preset, then executes them, writing one CSV time series and one JSON
aggregate per cell, a summary JSON per (policy, scale) over seeds, and a
manifest listing every emitted file together with the config hash.  It
prints each cell's delivered rate, mean delay and backlog stability
verdict.  ``compare`` joins summaries from one or more finished run
directories into one CSV keyed by rate scale.  Outputs carry no
timestamps: identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
from pathlib import Path

from .analysis import stability_test, summarize
from .config import ConfigError, ExperimentConfig, PRESETS, preset_config
from .engine import MetricsRecord, _check_overrides, _validate, simulate
from .topology import NetworkGraph
from .traffic import TrafficClass

__all__ = ["main", "run_experiment", "compare_runs"]


def _run_cell(job: tuple) -> MetricsRecord:
    cfg, g, classes, mode, seed = job
    return simulate(
        g,
        classes,
        mode,
        keys=cfg.keys,
        scheduler=cfg.scheduler,
        horizon=cfg.horizon,
        seed=seed,
        queue_cap=cfg.queue_cap,
        record_series=cfg.record_series,
        series_stride=cfg.series_stride,
        record_drift=cfg.record_drift,
    )


def _check_cells(cfg: ExperimentConfig, g: NetworkGraph, classes: list[TrafficClass]) -> None:
    """Raise the ConfigError any cell would hit on the built graph, naming the config field."""
    for i, mode in enumerate(cfg.policies):
        try:
            _validate(g, classes, mode, cfg.scheduler)
        except ValueError as exc:
            raise ConfigError(f"policies[{i}]: {exc}") from None
    try:
        _check_overrides(g, cfg.keys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _summary_name(name: str, label: str, scale: float, chash: str) -> str:
    return f"{name}_{label}_s{scale:g}_summary_{chash}.json"


def run_experiment(cfg: ExperimentConfig, out_dir: Path, workers: int = 1) -> dict:
    """Execute all cells, write outputs, and return the manifest dict.

    The graph and each rate scale's classes are built once, and every cell
    is checked against them before ``out_dir`` is created.  A directory
    that holds another config's run is refused, not written into.
    """
    return _run(cfg, out_dir, workers)[0]


def _run(cfg: ExperimentConfig, out_dir: Path, workers: int) -> tuple[dict, list[tuple[str, MetricsRecord]]]:
    """``run_experiment``, also returning each cell's label and record in run order."""
    g = cfg.graph.build()
    classes = {scale: cfg.build_classes(scale) for scale in cfg.rate_scales}
    # Kinds, security and endpoints, all that the checks read, do not vary with the scale.
    _check_cells(cfg, g, classes[cfg.rate_scales[0]])
    chash = cfg.config_hash()
    mpath = out_dir / "manifest.json"
    if mpath.exists():
        held = json.loads(mpath.read_text(encoding="utf-8")).get("config_hash")
        if held != chash:
            raise ConfigError(
                f"--output: {out_dir} holds a run of config {held}, not {chash}; choose another directory"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (cfg, g, classes[scale], mode, seed)
        for mode in cfg.policies
        for scale in cfg.rate_scales
        for seed in cfg.seeds
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = iter(list(pool.map(_run_cell, jobs)))
    else:
        records = iter([_run_cell(job) for job in jobs])

    cells: list[tuple[str, MetricsRecord]] = []
    files: list[str] = []
    for pol in cfg.policies:
        for scale in cfg.rate_scales:
            prefix = f"{cfg.name}_{pol.label}_s{scale:g}"
            cell_records = []
            for seed in cfg.seeds:
                record = next(records)
                stem = f"{prefix}_seed{seed}_{chash}"
                if record.series is not None:
                    (out_dir / f"{stem}.csv").write_bytes(record.to_csv_bytes())
                    files.append(f"{stem}.csv")
                (out_dir / f"{stem}.json").write_bytes(record.to_json_bytes())
                files.append(f"{stem}.json")
                cell_records.append(record)
                cells.append((f"{pol.label} s{scale:g} seed{seed}", record))
            summary = summarize(cell_records)
            sname = _summary_name(cfg.name, pol.label, scale, chash)
            payload = summary.to_dict()
            payload["rate_scale"] = scale
            (out_dir / sname).write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            files.append(sname)

    manifest = {
        "name": cfg.name,
        "config_hash": chash,
        "policies": [p.label for p in cfg.policies],
        "rate_scales": list(cfg.rate_scales),
        "seeds": list(cfg.seeds),
        "files": sorted(files),
    }
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest, cells


def _cell_line(cfg: ExperimentConfig, label: str, record: MetricsRecord) -> str:
    """One cell's delivered rate, mean delay and backlog stability verdict.

    The verdict reads the ``backlog_sum`` series as recorded: a trailing
    window of min(20,000, horizon/2) slots, taken at the series stride,
    with the slope tolerance of 1e-3 per slot scaled to one row.
    """
    delay = record.mean_delay()
    line = (
        f"{label}: delivered rate {record.delivered_rate():.4f}, "
        f"mean delay {'n/a' if delay is None else f'{delay:.2f}'}"
    )
    stride = cfg.series_stride
    rows = min(20_000, cfg.horizon // 2) // stride
    if record.series is None or rows < 2:
        return f"{line}, backlog not judged (no series, or a window under 2 rows)"
    v = stability_test(record.series["backlog_sum"], window=rows, slope_tol=1e-3 * stride)
    return f"{line}, backlog {v.verdict} (slope {v.slope / stride:.5f}/slot)"


def compare_runs(run_dirs: list[Path], out_path: Path) -> None:
    """Join per-scale summary metrics of one or more runs into one CSV.

    Columns are labelled ``<config name>:<policy label>``, so two runs of
    one config name are refused.
    """
    if not run_dirs:
        raise ConfigError("compare needs a run directory")
    manifests = []
    for d in run_dirs:
        mpath = d / "manifest.json"
        if not mpath.exists():
            raise ConfigError(f"{d}: not a finished run directory (no manifest.json)")
        manifests.append(json.loads(mpath.read_text(encoding="utf-8")))
    axes = [tuple(m["rate_scales"]) for m in manifests]
    if len(set(axes)) != 1:
        raise ConfigError(f"mismatched sweep axes across runs: {axes}")
    scales = axes[0]
    held: dict[str, Path] = {}
    for d, m in zip(run_dirs, manifests):
        if m["name"] in held:
            raise ConfigError(
                f"{held[m['name']]} and {d} both hold runs of config {m['name']!r}, whose columns would "
                "share their headers; compare runs of differently named configs"
            )
        held[m["name"]] = d

    columns: list[tuple[str, dict[float, dict]]] = []
    for d, m in zip(run_dirs, manifests):
        for label in m["policies"]:
            per_scale = {}
            for scale in scales:
                sname = _summary_name(m["name"], label, scale, m["config_hash"])
                per_scale[scale] = json.loads((d / sname).read_text(encoding="utf-8"))
            columns.append((f"{m['name']}:{label}", per_scale))

    metrics = ("delivered_rate_mean", "mean_delay_mean", "residual_keys_mean")
    header = ["rate_scale"]
    for col_label, _ in columns:
        header.extend(f"{metric}__{col_label}" for metric in metrics)
    lines = [",".join(header)]
    for scale in scales:
        row = [f"{scale:g}"]
        for _, per_scale in columns:
            s = per_scale[scale]
            for metric in metrics:
                v = s[metric]
                row.append("" if v is None else repr(v))
        lines.append(",".join(row))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qkdsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file or a named preset")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", type=Path, help="path to a JSON experiment config")
    src.add_argument("--preset", choices=sorted(PRESETS), help="named scenario preset")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    p_run.add_argument("--output", type=Path, default=Path("runs"), help="output directory")
    p_run.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    p_cmp = sub.add_parser("compare", help="join metrics of finished runs into a CSV")
    p_cmp.add_argument("run_dirs", nargs="+", type=Path)
    p_cmp.add_argument("--output", type=Path, default=Path("comparison.csv"))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_file(args.config) if args.config else preset_config(args.preset)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seeds=(args.seed,))
            out = args.output / cfg.name
            manifest, cells = _run(cfg, out, args.workers)
            for label, record in cells:
                print(_cell_line(cfg, label, record))
            print(f"wrote {len(manifest['files']) + 1} files to {out}")
            return 0
        compare_runs(args.run_dirs, args.output)
        print(f"wrote {args.output}")
        return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
