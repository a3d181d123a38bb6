"""Benchmark qkdsim end to end, and layer by layer in a separate traced run.

    python3 bench/run.py --workload desk-unicast --seed 1 --seconds 35 --trace 0

Set-up draws the workload's config from ``--seed``, writes it as JSON,
loads it through ``ExperimentConfig.from_file`` and builds its graph and
classes once.  The config is split into parts, one per policy: the same
config with that policy alone.  A run then repeats whole rounds -- one
``cli.run_experiment(part, out, workers=1)`` per part -- until
``--seconds`` of wall time have passed.  Every part's first outputs are
checked (see checks.py), and every later round must be byte-identical.

``--trace 0`` prints the end-to-end metrics.  Times are CPU seconds of
this process, scaled by a fixed reference task (reference.py) that is
timed just before and after every part: on the shared machine the
benchmark was tuned on, the same work took up to 40% more CPU time while
other guests were busy, for tens of seconds at a time.  slots_per_s is the
slots a round simulates, divided by the round's cost: for each part, its
CPU seconds over the run divided by the reference tasks' CPU seconds next
to it, summed and multiplied by reference.REFERENCE_S.  Simulation,
summaries and output writing all count.  setup_s is the CPU seconds from
process start to the end of set-up, scaled the same way by reference tasks
timed right after it.  Raw CPU and wall times go to stderr.  peak_rss_mb is
the process's peak resident memory.  ``--trace 1`` alternates an untraced
and a traced round and prints the per-layer metrics of layers.py:
per-round counts, and medians over the traced rounds of the times.  The
last line of standard output is one JSON object: correct, attempted,
failed (operations are cells) and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"slots_per_s": "slots/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_us_per_slot"):
        return "us"
    if name.endswith("_s") or ".cell_s." in name:
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path, horizon: int | None = None):
        from qkdsim import cli
        from qkdsim.config import ExperimentConfig

        self.cli = cli
        self.w = workloads.WORKLOADS[workload]
        self.doc = workloads.make_config(workload, seed, horizon)
        self.run_dir = run_dir
        run_dir.mkdir(parents=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(self.doc), encoding="utf-8")
        self.cfg = ExperimentConfig.from_file(cfg_path)
        self.cfg.graph.build()
        for scale in self.cfg.rate_scales:
            self.cfg.build_classes(scale)
        # One part per policy: the same config with that policy alone.
        self.parts = [ExperimentConfig.from_dict(dict(self.doc, policies=[pol]))
                      for pol in self.doc["policies"]]
        self.hop_bounds = workloads.hop_bounds(self.doc)
        self.n_rounds = 0
        self.failed = 0
        self.consistent = True
        self.refs: list[dict[str, str] | None] = [None] * len(self.parts)

    @staticmethod
    def _cells(cfg) -> int:
        return len(cfg.policies) * len(cfg.rate_scales) * len(cfg.seeds)

    @property
    def cells(self) -> int:
        return self._cells(self.cfg)

    @property
    def part_slots(self) -> list[int]:
        return [self._cells(part) * part.horizon for part in self.parts]

    def round(self, tracer=None) -> tuple[list[tuple[float, float]], float, int]:
        """One checked round: a run_experiment per part.

        Returns, for each part, its CPU seconds and the mean CPU seconds of
        the reference task timed just before and just after it; then the
        round's wall seconds and the bytes it wrote.
        """
        out = self.run_dir / f"round{self.n_rounds}"
        self.n_rounds += 1
        cpus, size, t0 = [], 0, time.perf_counter()
        for i, part in enumerate(self.parts):
            before = reference.cpu_s()
            cpu, part_size = self._run_part(i, part, out / f"part{i}", tracer)
            cpus.append((cpu, (before + reference.cpu_s()) / 2))
            size += part_size
        return cpus, time.perf_counter() - t0, size

    def _run_part(self, i: int, part, out: Path, tracer) -> tuple[float, int]:
        """One checked run_experiment of part i: (CPU s, bytes written)."""
        c0 = time.process_time()
        try:
            if tracer is None:
                self.cli.run_experiment(part, out, workers=1)
            else:
                with layers.traced(tracer):
                    self.cli.run_experiment(part, out, workers=1)
        except Exception:  # a raising part fails all its cells; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failed += self._cells(part)
            shutil.rmtree(out, ignore_errors=True)
            return time.process_time() - c0, 0
        cpu = time.process_time() - c0

        got = checks.digest(out)
        size = sum((out / name).stat().st_size for name in got)
        stems = [s for *_, s in checks.cell_stems(part)]
        first = self.refs[i]
        if first is None:
            verdicts = checks.check_round(out, part, self.doc, self.hop_bounds,
                                          self.w.min_delivered_share)
            bad = {stem for stem, problems in verdicts.items() if problems}
            for stem in sorted(bad):
                for problem in verdicts[stem]:
                    print(f"check failed: {stem}: {problem}", file=sys.stderr)
            self.refs[i] = got
        else:
            bad = checks.mismatched_cells(first, got, stems)
            for stem in sorted(bad):
                print(f"check failed: {stem} differs from the first round", file=sys.stderr)
            if set(got) != set(first) or any(
                got[k] != first[k] for k in got if not k.startswith(tuple(stems))
            ):
                print("check failed: summaries or manifest differ from the first round",
                      file=sys.stderr)
                self.consistent = False
        self.failed += len(bad)
        shutil.rmtree(out)
        return cpu, size


def _run(args, run_dir: Path) -> dict:
    bench = Bench(args.workload, args.seed, run_dir)
    setup_cpu = time.process_time()
    setup_wall = time.perf_counter() - T0
    setup_s = setup_cpu * reference.REFERENCE_S / reference.speed_probe()
    print(f"set-up: {setup_cpu:.3f} CPU s, {setup_wall:.3f} wall s after start-up, "
          f"{setup_s:.3f} reference-scaled s", file=sys.stderr)

    if not args.trace:
        rounds, walls = [], []
        while not walls or sum(walls) < args.seconds:
            cpus, wall, _ = bench.round()
            rounds.append(cpus)
            walls.append(wall)
        per_part = list(zip(*rounds))
        for part, samples in zip(bench.parts, per_part):
            print(f"{part.policies[0].label} CPU s: "
                  + " ".join(f"{c:.3f}/{r * 1e3:.1f}ms" for c, r in samples), file=sys.stderr)
        print("round wall s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        # A part's cost in reference tasks over the whole run, turned back
        # into seconds of the tuning machine.
        round_s = reference.REFERENCE_S * sum(
            sum(c for c, _ in samples) / sum(r for _, r in samples) for samples in per_part)
        raw_s = sum(min(c for c, _ in samples) for samples in per_part)
        print(f"round: {round_s:.3f} reference-scaled s; fastest parts {raw_s:.3f} CPU s "
              f"({sum(bench.part_slots) / raw_s:.2f} slots per CPU s)", file=sys.stderr)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "slots_per_s": sum(bench.part_slots) / round_s,
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        plain, traced_walls, tracers, size = [], [], [], 0
        while sum(plain) + sum(traced_walls) < args.seconds or not tracers:
            plain.append(bench.round()[1])
            tracers.append(layers.Tracer())
            _, wall, size = bench.round(tracers[-1])
            traced_walls.append(wall)
        per_round = [t.metrics() for t in tracers]
        metrics = {}
        for name, value in per_round[0].items():
            values = [m[name] for m in per_round]
            if isinstance(value, float) and _unit(name) in ("s", "us"):
                metrics[name] = statistics.median(values)
            else:  # counts and shares must repeat exactly between rounds
                if any(v != value for v in values):
                    print(f"check failed: {name} differs between traced rounds: {values}",
                          file=sys.stderr)
                    bench.consistent = False
                metrics[name] = value
        metrics["cli.output_bytes"] = size
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
        for name in tracers[0].absent:
            print(f"absent layer: {name} (no such name in qkdsim)", file=sys.stderr)
        units = {name: _unit(name) for name in metrics}

    return {
        "correct": bench.consistent,
        "attempted": bench.n_rounds * bench.cells,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkdsim" / "__init__.py").is_file():
        print(f"error: qkdsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
