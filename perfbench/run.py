#!/usr/bin/env python3
"""gravatom benchmark: fresh-process CLI workloads, checked against references.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 24 --trace 0

Run from the root of a gravatom checkout (it needs src/ and scripts/).  A run
is a series of passes, one after another.  Each pass starts a fresh
interpreter (perfbench/worker.py) that imports gravatom.cli and then runs one
whole round of the workload's commands through gravatom.cli.main, with inputs
drawn from the seed and the pass index (perfbench/workloads.py).  Passes
continue until the next one would end after --seconds of measuring, with at
least MIN_ROUNDS rounds, back to back after a short warm-up.  After the last
pass, off the clock, every command's output is checked against independent
values (perfbench/checks.py) and then deleted.

--trace 0 prints the end-to-end metrics, medians over the passes:
  setup_s      launch of the interpreter until gravatom.cli is imported
  batch_s      wall time of one pass's commands, caches cold
  peak_rss_mb  peak resident memory of the pass's interpreter
--trace 1 runs each round twice on the same inputs, untraced and traced
(order alternating), and prints the per-layer metrics of perfbench/tracing.py:
counts from the first traced pass, times as medians over traced passes, import
times from `-X importtime` and trace.overhead_s, the traced minus the untraced
median batch_s.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Operations that fail because of a known program fault
(``fault`` in workloads.py) count as failed; any other failure also makes
``correct`` false.  Without src/gravatom the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Rounds every run makes, however short --seconds is.
MIN_ROUNDS = {0: 3, 1: 1}
#: Set-up times per run at least: passes, topped up with set-up-only launches.
SETUP_SAMPLES = 10
#: Seconds every core is kept busy before the first pass.
WARMUP_S = 1.0
#: Interpreter launches timed under -X importtime in a traced run.
IMPORTTIME_REPEATS = 3
PASS_TIMEOUT_S = 150.0
RUNS_DIR = ".perfbench-runs"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program output failure)."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


class Run:
    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.root = root
        self.dir = root / RUNS_DIR / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        self.dir.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.refs = reference.References(root)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.faults_seen: dict[str, int] = {}

    # -- one pass ---------------------------------------------------------------------

    def launch(self, pass_dir: Path, argvs: list[list[str]], traced: bool) -> tuple[float, float, dict]:
        """Run argvs in a fresh worker interpreter: (setup_s, wall_s, result)."""
        pass_dir.mkdir()
        spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
        spec_path.write_text(json.dumps({"trace": traced, "commands": argvs}))
        with open(pass_dir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root, text=True,
            )
            try:
                ready = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]
                line = proc.stdout.readline() if ready else ""
                setup_s = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=PASS_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            wall_s = time.perf_counter() - start
        if line.strip() != "ready" or proc.returncode != 0:
            tail = (pass_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
            raise BenchError(f"{pass_dir.name}: interpreter failed (exit {proc.returncode}): "
                             + " | ".join(tail))
        return setup_s, wall_s, json.loads(result_path.read_text())

    def pass_dir(self, index: int, traced: bool) -> Path:
        return self.dir / f"pass{index:03d}{'-traced' if traced else ''}"

    def run_pass(self, index: int, traced: bool) -> dict:
        pass_dir = self.pass_dir(index, traced)
        commands = workloads.pass_commands(self.args.workload, self.args.seed, index)
        argvs = [c["argv"] + ["--output", str(pass_dir / f"out{k:02d}.csv")]
                 for k, c in enumerate(commands)]
        setup_s, wall_s, result = self.launch(pass_dir, argvs, traced)
        return {"index": index, "traced": traced, "setup_s": setup_s, "wall_s": wall_s,
                "batch_s": result["batch_s"], "peak_rss_mb": result["peak_rss_mb"],
                "result": result}

    def check(self, record: dict) -> None:
        """Check one pass's outputs, delete them, and summarize its spans."""
        result = record.pop("result")
        pass_dir = self.pass_dir(record["index"], record["traced"])
        commands = workloads.pass_commands(self.args.workload, self.args.seed, record["index"])
        outputs = [pass_dir / f"out{k:02d}.csv" for k in range(len(commands))]
        bytes_out = self.check_pass(commands, result["results"], outputs)
        for path in outputs:
            path.unlink(missing_ok=True)
        if record["traced"]:
            record["layers"] = tracing.summarize(result["spans"], result["counts"])
            record["layers"]["cli.bytes_out"] = bytes_out
            # keep only the spans, written when the pass ended
            (pass_dir / "result.json").rename(pass_dir / "spans.json")

    def check_pass(self, commands: list[dict], results: list[dict], outputs: list[Path]) -> int:
        """Check every command's output off the clock; returns the bytes written."""
        if len(results) != len(commands):
            raise BenchError(f"{len(results)} results for {len(commands)} commands")
        bytes_out = 0
        for command, result, path in zip(commands, results, outputs):
            text = path.read_text() if path.exists() else None
            bytes_out += len(text.encode()) if text is not None else 0
            failures = checks.check(command, result, text, self.refs)
            self.attempted += 1
            if not failures:
                continue
            self.failed += 1
            kinds = {kind for kind, _ in failures}
            label = " ".join(command["argv"])
            if command["fault"] is not None and kinds == {command["fault"]}:
                key = f"{label} [{command['fault']}]"
                self.faults_seen[key] = self.faults_seen.get(key, 0) + 1
            else:
                self.unexpected.append(f"{label}: " + "; ".join(
                    f"{kind}: {message}" for kind, message in failures[:3]))
        return bytes_out

    # -- the run ------------------------------------------------------------------------

    def warm_up(self) -> None:
        """Untimed: byte-compile gravatom, then keep every core busy for WARMUP_S.

        A pass that starts on a core that has idled for a second or more runs
        numpy's multithreaded LAPACK (leggauss) up to 5x slower at first.
        """
        subprocess.run([sys.executable, "-c", "import gravatom.cli"], env=self.env,
                       cwd=self.root, check=True, timeout=PASS_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        busy = f"import time\nend = time.perf_counter() + {WARMUP_S}\n" \
               "while time.perf_counter() < end: pass\n"
        procs = [subprocess.Popen([sys.executable, "-c", busy])
                 for _ in range(min(len(os.sched_getaffinity(0)), 8))]
        for proc in procs:
            proc.wait(timeout=PASS_TIMEOUT_S)

    def measure(self) -> tuple[list[dict], list[float]]:
        """Pass records, and the set-up times of set-up-only launches.

        Passes run back to back, so no core idles between them; their outputs
        are checked afterwards (check).
        """
        self.warm_up()
        records: list[dict] = []
        round_walls: list[float] = []
        measured = 0.0
        index = 0
        while True:
            order = [False] if not self.args.trace else (
                [False, True] if index % 2 == 0 else [True, False])
            round_records = [self.run_pass(index, traced) for traced in order]
            records += round_records
            round_walls.append(sum(r["wall_s"] for r in round_records))
            measured += round_walls[-1]
            index += 1
            if (index >= MIN_ROUNDS[self.args.trace]
                    and measured + statistics.median(round_walls) > self.args.seconds):
                break
        # set-up only: fresh interpreters that import gravatom.cli and run nothing
        probes = [] if self.args.trace else [
            self.launch(self.dir / f"setup{k:02d}", [], False)[0]
            for k in range(SETUP_SAMPLES - len(records))]
        return records, probes


def import_times(env: dict, root: Path) -> dict[str, float]:
    """Median over fresh interpreters of `-X importtime` totals, in seconds."""
    samples: dict[str, list[float]] = {"gravatom": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gravatom.cli"],
                              env=env, cwd=root, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, check=True)
        totals = importtime_totals(proc.stderr, tuple(samples))
        for package, value in totals.items():
            samples[package].append(value)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def importtime_totals(text: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds spent importing each package: its outermost entries' cumulative times.

    `-X importtime` prints children before their parent, indented two spaces
    per level.  Read backwards, each entry's enclosing entries are the stack of
    shallower entries seen before it.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative = parts[1].strip()
        if cumulative.isdigit():
            name = parts[2].strip()
            entries.append((len(parts[2]) - len(parts[2].lstrip()), name, int(cumulative)))
    totals = dict.fromkeys(packages, 0.0)
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for package in packages:
            inside = [n for _, n in stack if n == package or n.startswith(package + ".")]
            if (name == package or name.startswith(package + ".")) and not inside:
                totals[package] += cumulative / 1e6
        stack.append((depth, name))
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/gravatom/cli.py", "scripts/oracle_reference.py")
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from a gravatom checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        records, probes = run.measure()
        imports = import_times(run.env, root) if args.trace else {}
        for record in records:
            run.check(record)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    (run.dir / "passes.json").write_text(json.dumps(records, indent=1))

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        metrics = {}
        for name, unit in tracing.PER_LAYER_UNITS.items():
            if name.startswith("import."):
                value = imports[name]
            elif name == "trace.overhead_s":
                value = median("batch_s", traced) - median("batch_s", untraced)
            elif unit == "s":
                value = statistics.median(r["layers"].get(name, 0.0) for r in traced)
            else:  # counts and computed sizes: the first traced pass, same for a seed
                value = traced[0]["layers"].get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                [r["setup_s"] for r in records] + probes), "unit": "s"},
            "batch_s": {"value": median("batch_s", untraced), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", untraced), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"passes: {len(untraced)} untraced, {len(records) - len(untraced)} traced; "
          f"operations: {run.attempted} attempted, {run.failed} failed")
    for label, count in run.faults_seen.items():
        print(f"known fault, failed {count}x: {label}", file=sys.stderr)
    for line in run.unexpected:
        print(f"UNEXPECTED FAILURE: {line}", file=sys.stderr)
    print(json.dumps({"correct": not run.unexpected, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
