"""Benchmark of the greens_coulomb engine, end to end or traced per layer.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

Workloads: sweeps, forces, dilute_bodies, fd_oracle (see workloads.py and
README.md). A run repeats the workload's whole list of operations until
--seconds have passed (at least once; --seconds 0 runs exactly one round),
checks every result against an independent reference, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones below; with
--trace 1 the run first times one untraced round, then traces whole rounds
and reports per-layer counts and times per round, and the tracing overhead.
Spans are written to .perfbench_out/ at the root of the checkout.

End-to-end metrics (every workload):
  setup_s              median wall time of a fresh interpreter that imports
                       greens_coulomb and its CLI and parses the workload's
                       scenes (7 timed starts after one that compiles bytecode)
  peak_rss_mb          peak resident memory of this process
  heavy_results_per_s  results of the workload's expensive route per second
                       of program time
  light_results_per_s  results of its cheap route per second of program time
Rates count successful operations only and are scaled to nominal machine
speed by a calibration loop timed between operations. What a result is in
each workload is listed in README.md; the finer rates are printed by name on
the lines before the JSON.

The program is run from `src/` of the checkout, with one compute thread.
"""

import os

# one compute thread: set before numpy is imported, inherited by set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 7
# The machine this runs on shares its cores: its speed drifts by up to 25%
# over minutes, alike for every layer, and jitters by a factor of two over
# milliseconds. After every call the run spends CALIB_SHARE of the call's time
# on a fixed loop of small numpy calls, so the loop samples the machine in
# proportion to program time; rates are scaled by the loop's mean time over
# CALIB_NOMINAL, its typical time here.
CALIB_CALLS = 1500
CALIB_NOMINAL = 0.005
CALIB_SHARE = 0.05
_CALIB_X = np.linspace(0.1, 10.0, 16)
WORKLOADS = ("sweeps", "forces", "dilute_bodies", "fd_oracle")

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import greens_coulomb, greens_coulomb.cli
from greens_coulomb.scene import load_scene
for path in sys.argv[2:]:
    load_scene(path)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of 16-element numpy calls, the call shape
    that dominates the engine's own time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_CALLS):
        acc += float(np.dot(np.exp(-_CALIB_X * (1.0 + i * 1e-4)), _CALIB_X))
    return time.perf_counter() - t0


def measure_setup(scene_paths) -> float:
    """Median start-to-exit time of fresh interpreters paying the CLI's set-up.

    Not scaled by the calibration loop: start-up is mostly file access and
    module execution, whose drift the loop did not track."""
    cmd = [sys.executable, "-c", PROBE, str(SRC)] + [str(p) for p in scene_paths]
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        if i:  # the first start compiles bytecode, which users pay once
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs rounds of a workload's operations, timing calls and checking results."""

    def __init__(self, workload, tracer=None):
        from greens_coulomb.core import CoulombError
        from workloads import OpFailed
        self.wl = workload
        self.failures = (OpFailed, CoulombError)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.op_times = [[] for _ in workload.ops]
        self.calib_time = 0.0
        self.calib_loops = 0
        self._calib_owed = 0.0
        self.rounds = 0

    def _calibrate(self, dt: float) -> None:
        self._calib_owed += CALIB_SHARE * dt
        while self._calib_owed > 0.0:
            spent = calibration_loop()
            self.calib_time += spent
            self.calib_loops += 1
            self._calib_owed -= spent

    def round(self) -> None:
        """One pass over every operation."""
        tracer = self.tracer
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.rounds * len(self.wl.ops) + i
            t0 = time.perf_counter()
            try:
                result = op.call()
            except self.failures as exc:
                self._calibrate(time.perf_counter() - t0)
                self.failed += 1
                if not self.rounds:
                    print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            self.op_times[i].append(dt)
            self._calibrate(dt)
            if tracer is not None:
                tracer.active = False  # checks call the program too; keep them out
            message = op.check(result)
            if tracer is not None:
                tracer.active = True
            if message:
                self.wrong.append(message)
                print(f"incorrect: {message}", file=sys.stderr)
        self.rounds += 1

    def run(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed, at least one."""
        t0 = time.perf_counter()
        self.round()
        while time.perf_counter() - t0 < seconds:
            self.round()

    def slowness(self) -> float:
        """Mean calibration time over nominal: above 1 when the machine ran slow."""
        return self.calib_time / self.calib_loops / CALIB_NOMINAL

    def program_time(self) -> float:
        """Seconds of successful calls, at nominal speed."""
        return sum(map(sum, self.op_times)) / self.slowness()

    def rate(self, kinds) -> float:
        """Work per second of program time at nominal speed, over every
        successful call of these kinds. (The mean over calls varied less
        between runs than a per-operation median.)"""
        work = secs = 0.0
        for op, times in zip(self.wl.ops, self.op_times):
            if op.kind in kinds:
                work += op.work * len(times)
                secs += sum(times)
        return work / secs * self.slowness()

    def median_time(self, kind) -> float:
        """Median time of one operation of this kind at nominal speed."""
        return statistics.median(t for op, times in zip(self.wl.ops, self.op_times)
                                 if op.kind == kind for t in times) / self.slowness()


def untraced_run(wl, seconds: float):
    """End-to-end metrics; the finer named rates go to standard output."""
    setup = measure_setup(wl.scene_paths)
    runner = Runner(wl)
    runner.run(seconds)
    tiers, named = {}, {}
    for kind, (tier, name) in wl.kinds.items():
        tiers.setdefault(tier, []).append(kind)
        named.setdefault(name, []).append(kind)
    for name, kinds in named.items():
        if name.endswith("_per_s"):
            print(f"{name} {runner.rate(kinds):.6g} 1/s")
        else:  # a latency: median seconds per operation
            print(f"{name} {runner.median_time(kinds[0]):.6g} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runner, {"setup_s": (setup, "s"),
                    "peak_rss_mb": (peak_mb, "MB"),
                    "heavy_results_per_s": (runner.rate(tiers["heavy"]), "1/s"),
                    "light_results_per_s": (runner.rate(tiers["light"]), "1/s")}


def traced_run(wl, seconds: float, spans_path: Path):
    """Per-layer metrics from traced rounds, after one untraced round."""
    import tracing
    plain = Runner(wl)
    plain.run(0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Runner(wl, tracer)
        tracer.active = True
        traced.run(seconds)
        tracer.active = False
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    for span in sorted(tracer.absent):
        print(f"absent: {span} is no longer in the program", file=sys.stderr)

    speed = traced.slowness()  # layer times at nominal speed, like end-to-end ones
    metrics = {}
    for name, value in tracing.layer_metrics(tracer, traced.rounds).items():
        unit = tracing.PER_LAYER[name][0]
        metrics[name] = (value / speed if unit == "s" else value, unit)
    per_round = traced.program_time() / traced.rounds
    overhead = 100.0 * (per_round / plain.program_time() - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.wrong += plain.wrong
    return traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greens_coulomb" / "__init__.py").is_file():
        print(f"error: no greens_coulomb package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, tmp)
        if args.trace:
            spans = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
            runner, metrics = traced_run(wl, args.seconds, spans)
        else:
            runner, metrics = untraced_run(wl, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"correct": not runner.wrong, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
