#!/usr/bin/env python3
"""Benchmark of the coplant CLI: solve, fleet and netopt, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from the
seed, runs one warm-up command through `coplant.cli.main` in this process,
then whole rounds (one command per input instance) until S seconds have
passed, checks every command's outputs (see checks.py) and prints one JSON
line last: `{"correct", "attempted", "failed", "metrics"}`.  With --trace 0
the metrics are the end-to-end ones (command_s, setup_s, peak_rss_mb).  With
--trace 1 every instance in a round gets one plain and one traced command,
and the metrics are the per-layer ones of tracing.py; the spans go to
bench/out/<workload>/trace.jsonl.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # one thread, set before numpy loads
os.environ.pop("COPLANT_WORKERS", None)     # fleet solves in this process

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 3          # set-ups per run; setup_s is their median
IMPORT_PROBE = ("import time; t = time.perf_counter(); import coplant.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import coplant.cli (with numpy and scipy) in a fresh interpreter,
    measured inside it so that interpreter start-up is left out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=BENCH,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(generate, workdir: Path):
    """Import and generate the inputs SETUPS times; keep the last inputs."""
    samples = []
    for i in range(SETUPS):
        seconds = import_seconds()
        directory = workdir / f"inputs{i}"
        directory.mkdir()
        start = time.perf_counter()
        inputs = generate(directory)
        samples.append(seconds + time.perf_counter() - start)
    return inputs, statistics.median(samples)


def outputs(out: Path) -> dict[str, bytes]:
    """Every file a command wrote: its report directory and any MPS file."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    mps = Path(f"{out}.mps")
    if mps.exists():
        files["model.mps"] = mps.read_bytes()
    return files


class Session:
    """Runs the commands of one benchmark run and keeps their tallies."""

    def __init__(self, name: str, inputs: list, workdir: Path):
        from coplant import cli
        import checks
        self.main = cli.main
        self.check = checks.CHECKS[name]
        self.check_error = checks.CheckError
        self.inputs, self.workdir = inputs, workdir
        self.attempted = self.failed = 0
        self.first: list[Path | None] = [None] * len(inputs)
        self.reference: list[dict[str, bytes] | None] = [None] * len(inputs)
        self.copies = [0] * len(inputs)     # later outputs identical to the first
        self.differing: list[tuple[int, Path]] = []

    def command(self, instance: int, runner=None) -> tuple[float, int]:
        """One command into a fresh directory; returns (wall s, report bytes)."""
        out = self.workdir / f"cmd{self.attempted}"
        argv = self.inputs[instance].argv_for(out)
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.main(argv) if runner is None else runner(self.main, argv)
        except Exception:      # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
        if code != 0:
            print(f"command {self.attempted} exited {code}", file=sys.stderr)
            self.failed += 1
            return wall, 0
        files = outputs(out)
        if self.reference[instance] is None:
            self.first[instance], self.reference[instance] = out, files
        elif files == self.reference[instance]:
            self.copies[instance] += 1
            shutil.rmtree(out)
            Path(f"{out}.mps").unlink(missing_ok=True)
        else:
            self.differing.append((instance, out))
        return wall, sum(len(b) for n, b in files.items() if n != "model.mps")

    def verify(self) -> None:
        """Full checks on each instance's first output and on any output that
        differs from it; identical outputs share the first one's verdict."""
        for instance, out in enumerate(self.first):
            if out is not None and not self._passes(instance, out):
                self.failed += 1 + self.copies[instance]
        for instance, out in self.differing:
            if not self._passes(instance, out):
                self.failed += 1

    def _passes(self, instance: int, out: Path) -> bool:
        try:
            self.check(self.inputs[instance].facts, out)
        except self.check_error as exc:
            print(f"check failed on {out.name}: {exc}", file=sys.stderr)
            return False
        return True


def timed_rounds(seconds: float, round_) -> None:
    """Whole rounds until `seconds` have passed."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        round_()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "coplant" / "cli.py").is_file():
        print(f"error: no coplant sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import coplant.cli  # noqa: F401  (compiles and caches before the set-ups)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, setup_s = set_up(
        lambda directory: workloads.generate(args.workload, args.seed, directory), workdir)
    session = Session(args.workload, inputs, workdir)
    session.command(0)                                  # warm-up
    instances = range(len(inputs))

    if args.trace:
        from tracing import METRICS, Tracer
        tracer = Tracer()
        plain: list[float] = []

        def round_() -> None:
            for i in instances:
                plain.append(session.command(i)[0])
                _, report_bytes = session.command(i, tracer.run)
                tracer.per_command[-1]["reports.bytes"] = float(report_bytes)

        timed_rounds(args.seconds, round_)
        tracer.write(workdir / "trace.jsonl")
        values = tracer.medians()
        values["trace.command_s"] = statistics.median(plain)
        values["trace.overhead_s"] = values["trace.layers_s"] - values["trace.command_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
        print(f"{len(plain)} plain and {len(tracer.per_command)} traced commands "
              f"after 1 warm-up")
    else:
        times: list[float] = []
        timed_rounds(args.seconds,
                     lambda: times.extend(session.command(i)[0] for i in instances))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"command_s": {"value": statistics.median(times), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        print(f"command_s is the median of {len(times)} timed commands after 1 warm-up: "
              + " ".join(f"{t:.3f}" for t in times))

    session.verify()
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
