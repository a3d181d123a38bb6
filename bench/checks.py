"""Output checks on one round of qkdsim outputs.

Each check is computed apart from the program (own BFS hop bounds, own
binomial arithmetic) or is a property the method must have (packet
conservation, delivery inside the capacity region, determinism).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Arrival counts are Binomial(horizon, rate); a count further than this
# many standard deviations from the mean has probability below 1e-6.
ARRIVAL_SIGMAS = 5.0


def cell_stems(cfg) -> list[tuple[str, float, int, str]]:
    """(policy label, rate scale, seed, file stem) of every cell, in run order."""
    h = cfg.config_hash()
    return [
        (pol.label, scale, seed, f"{cfg.name}_{pol.label}_s{scale:g}_seed{seed}_{h}")
        for pol in cfg.policies
        for scale in cfg.rate_scales
        for seed in cfg.seeds
    ]


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a round wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def check_cell(
    cell: dict,
    doc: dict,
    label: str,
    scale: float,
    seed: int,
    hop_bounds: dict[int, int],
    min_delivered_share: float,
) -> list[str]:
    """Problems found in one cell's JSON aggregate; empty when it passes."""
    problems = []
    if (cell["policy"], cell["horizon"], cell["seed"]) != (label, doc["horizon"], seed):
        problems.append(
            f"cell is {cell['policy']}/h{cell['horizon']}/seed{cell['seed']}, "
            f"expected {label}/h{doc['horizon']}/seed{seed}"
        )
    tot = cell["totals"]
    per_class = cell["classes"]
    if tot["arrivals"] != tot["delivered"] + tot["dropped"] + tot["in_flight"]:
        problems.append(
            f"conservation: arrivals {tot['arrivals']} != delivered {tot['delivered']} "
            f"+ dropped {tot['dropped']} + in flight {tot['in_flight']}"
        )
    if min(tot["delivered"], tot["dropped"], tot["in_flight"]) < 0:
        problems.append("conservation: a negative packet count")
    for key in ("arrivals", "delivered", "dropped"):
        if sum(c[key] for c in per_class.values()) != tot[key]:
            problems.append(f"conservation: per-class {key} do not sum to the total")

    horizon = doc["horizon"]
    for spec in doc["classes"]:
        c = per_class.get(str(spec["id"]))
        if c is None:
            problems.append(f"class {spec['id']}: missing from the cell")
            continue
        arrival = spec["arrival"]
        if arrival["process"] == "bernoulli":
            p = arrival["rate"] * scale
            mean = p * horizon
            sd = math.sqrt(horizon * p * (1.0 - p))
            if abs(c["arrivals"] - mean) > ARRIVAL_SIGMAS * sd + 1e-9:
                problems.append(
                    f"class {spec['id']}: {c['arrivals']} arrivals, expected {mean:.1f} "
                    f"+- {ARRIVAL_SIGMAS:g} x {sd:.1f}"
                )
        bound = hop_bounds[spec["id"]] - 1
        if c["mean_delay"] is not None and c["mean_delay"] < bound:
            problems.append(
                f"class {spec['id']}: mean delay {c['mean_delay']} below the hop bound {bound}"
            )
    if label.startswith(("tandem-", "multilevel-")):
        if tot["delivered"] < min_delivered_share * tot["arrivals"]:
            problems.append(
                f"delivered {tot['delivered']} of {tot['arrivals']} arrivals, "
                f"below the share {min_delivered_share:g} an interior load must reach"
            )
    return problems


def check_round(out_dir: Path, cfg, doc: dict, hop_bounds: dict[int, int],
                min_delivered_share: float) -> dict[str, list[str]]:
    """Problems per cell stem for one round's output directory."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = set(manifest["files"])
    result = {}
    for label, scale, seed, stem in cell_stems(cfg):
        problems = [f"{stem}.{ext}: not written" for ext in ("json", "csv")
                    if f"{stem}.{ext}" not in listed or not (out_dir / f"{stem}.{ext}").is_file()]
        if not problems:
            cell = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
            problems = check_cell(cell, doc, label, scale, seed, hop_bounds, min_delivered_share)
        result[stem] = problems
    return result


def mismatched_cells(ref: dict[str, str], got: dict[str, str], stems: list[str]) -> set[str]:
    """Cell stems whose files differ between two rounds of the same config."""
    return {
        stem for stem in stems
        if any(ref.get(f"{stem}.{ext}") != got.get(f"{stem}.{ext}") for ext in ("json", "csv"))
    }
