#!/usr/bin/env python3
"""Fixed-work benchmark of the lightcone command line.

Usage:
    python3 bench/run.py --workload {cone-schw,invert-schw,limit-flat}
                         [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's inputs from the seed, then calls lightcone.cli.main
in this process with the arguments a user would type, repeating one fixed
round of operations until --seconds have passed.  Every round does the
same work in the same order, so a faster program finishes the same work
sooner.  The last round's outputs are checked against computations made
apart from the program (references.py), and every round's output files
must equal the first round's byte for byte.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreter starts up to the first operation), units_per_s, call_p50_s
and peak_rss_mb.  --trace 1 alternates untraced rounds with rounds in
which lightcone's public layer boundaries are wrapped (tracing.py), and
reports per-layer metrics per round, the accuracy figures and the tracing
overhead.

Times are in reference seconds: each is scaled by how long a fixed kernel
took next to it (see reference_seconds), so that the drift of a shared
machine's speed cancels.  The wall-clock figures go to result.json and
the summary lines.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations are command-line
calls; a call fails when it exits nonzero, raises, writes other bytes than
in the first round, or fails a check.
"""

import os

# One process makes the load; keep BLAS from starting threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = BENCH_DIR / "out"

# fresh interpreter starts per run for setup_s; one start varies by about
# a third, the median of several in a row much less
SETUP_STARTS = 5
PROBE_TIMEOUT_S = 60

# The reference kernel's median time when the machine runs at its usual
# speed (2-core VM, Python 3.11, numpy 2.4, scipy 1.17).  A reference
# second is the time the machine needs, at that speed, for what it did.
NOMINAL_KERNEL_S = 0.034
_KERNEL_G = np.random.default_rng(0).normal(scale=0.05, size=(4, 4, 4))


def reference_seconds():
    """Time of one run of a fixed kernel shaped like the program's hot path.

    scipy's RK45 with dense output on an 8-state system whose right-hand
    side is an einsum over a (4, 4, 4) array: Python-level calls on small
    arrays, as in lightcone's ray integrations.  The kernel does not use
    lightcone, so a change to the program cannot move it.
    """
    def rhs(s, y):
        v = y[4:]
        return np.concatenate([v, -y[:4] - np.einsum("kij,i,j->k", _KERNEL_G, v, v)])

    start = time.perf_counter()
    solve_ivp(rhs, (0.0, 8.0), np.ones(8), method="RK45", rtol=1e-10, atol=1e-12,
              dense_output=True)
    return time.perf_counter() - start


def speed_factors(kernel, window=3):
    """NOMINAL_KERNEL_S over the median kernel time near each gap.

    kernel[i] ran just before timed item i and kernel[i + 1] just after
    it; item i gets the median of the `window` samples on either side.
    One kernel run is noisy, the machine's drift is slow, so a local
    median tracks the drift without adding the kernel's own noise.
    """
    return [NOMINAL_KERNEL_S / statistics.median(kernel[max(0, i + 1 - window):i + 1 + window])
            for i in range(len(kernel) - 1)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cone-schw", "invert-schw", "limit-flat"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def time_setup(scenario):
    """Seconds from starting a fresh interpreter to the probe's 'ready'."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(scenario)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} without reaching its first operation")
    return elapsed


def time_setups(scenario):
    """(reference, wall) seconds of SETUP_STARTS fresh starts in a row."""
    kernel = [reference_seconds() for _ in range(3)]
    wall = []
    for _ in range(SETUP_STARTS):
        wall.append(time_setup(scenario))
        kernel.extend(reference_seconds() for _ in range(3))
    # three kernel runs per gap: item i sits between kernel[3 i + 2] and kernel[3 i + 3]
    factors = speed_factors(kernel)
    return [t * factors[3 * i + 2] for i, t in enumerate(wall)], wall


class Runner:
    """Runs rounds of operations and keeps per-call timings and outcomes."""

    def __init__(self, ops, run_dir):
        self.ops = ops
        self.out_dirs = [run_dir / f"op{j:02d}" for j in range(len(ops))]
        self.first = {}            # op index -> output bytes of its first run
        self.calls = []            # (kind of round, op index, wall seconds)
        self.kernel = []           # reference kernel before the first call and after each
        self.failures = []         # (round, op index, reason)
        self.rounds = 0

    def round(self, main_fn, kind=0):
        """Run every operation once through main_fn (lightcone.cli.main)."""
        for j, op in enumerate(self.ops):
            argv = op.argv(self.out_dirs[j])
            start = time.perf_counter()
            try:
                code = main_fn(argv)
            except Exception:  # a crash fails this call, not the benchmark
                code = "exception"
                traceback.print_exc()
            self.calls.append((kind, j, time.perf_counter() - start))
            self.kernel.append(reference_seconds())
            reason = None
            if code != 0:
                reason = f"exit {code}"
            else:
                data = [(self.out_dirs[j] / name).read_bytes() for name in op.outputs]
                if self.first.setdefault(j, data) != data:
                    reason = "output differs from the first round"
            if reason is not None:
                self.failures.append((self.rounds, j, reason))
        self.rounds += 1

    def repeat(self, seconds, *kinds):
        """Whole rounds until about `seconds` have passed; at least one each.

        Rounds cycle through `kinds`, callables that run one round.  A round
        is started only while it is likely to end nearer the deadline than
        stopping now would.
        """
        start = time.perf_counter()
        self.kernel.append(reference_seconds())
        done = 0
        while True:
            kinds[done % len(kinds)]()
            done += 1
            elapsed = time.perf_counter() - start
            if done >= len(kinds) and elapsed + 0.5 * elapsed / done >= seconds:
                return

    def speed(self):
        """The machine's speed over the run against its usual speed."""
        return NOMINAL_KERNEL_S / statistics.median(self.kernel)

    def durations(self, kind=0, wall=False):
        """Call times in reference seconds, or wall seconds."""
        factors = [1.0] * len(self.calls) if wall else speed_factors(self.kernel)
        return [d * f for (k, _, d), f in zip(self.calls, factors) if k == kind]

    def units_per_s(self, kind=0, wall=False):
        """Units of a round over the sum of each operation's median call time.

        A median per operation across rounds keeps a short slow or fast
        stretch of the machine from setting the figure, while every
        operation still counts once.
        """
        broken = {j for _, j, _ in self.failures}
        units = sum(op.units for j, op in enumerate(self.ops) if j not in broken)
        ops = [j for k, j, _ in self.calls if k == kind]
        times = self.durations(kind, wall)
        seconds = sum(statistics.median(t for jj, t in zip(ops, times) if jj == j)
                      for j in range(len(self.ops)))
        return units / seconds


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lightcone" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.stderr.write(f"no lightcone sources under {ROOT}: need src/lightcone and scenarios/\n")
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](SCENARIOS, run_dir, args.seed)
    ops = workload.ops

    import lightcone.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"imported lightcone from {cli.__file__}, not from {SRC}\n")
        return 2

    runner = Runner(ops, run_dir)
    metrics = {}
    wall = {}
    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so that the overhead is
        # measured under the same machine conditions
        tracer = tracing.Tracer()
        traced_main = tracer.span("cli.main", cli.main)

        def traced_round():
            tracer.install()
            try:
                runner.round(traced_main, kind=1)
            finally:
                tracer.uninstall()

        runner.repeat(args.seconds, lambda: runner.round(cli.main), traced_round)
        speed = runner.speed()
        absent = {m for name in tracer.missing for key, ms in tracing.REQUIRES.items()
                  if name.startswith(key) for m in ms}
        for name, (value, unit) in tracing.layer_metrics(tracer, runner.rounds // 2).items():
            if name not in absent:
                metrics[name] = (value * speed if unit == "s" else value, unit)
        plain_rate, traced_rate = runner.units_per_s(0), runner.units_per_s(1)
        metrics["trace.units_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_units_per_s"] = (plain_rate, "1/s")
        metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "ratio")
        metrics["machine.speed"] = (speed, "ratio")
        if tracer.missing:
            sys.stderr.write("not traced (name not found): " + ", ".join(tracer.missing) + "\n")
        (run_dir / "trace.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        setup, wall_setup = time_setups(workload.setup_scenario())
        runner.repeat(args.seconds, lambda: runner.round(cli.main))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["units_per_s"] = (runner.units_per_s(), "1/s")
        metrics["call_p50_s"] = (statistics.median(runner.durations()), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        wall = {"setup_s": statistics.median(wall_setup),
                "units_per_s": runner.units_per_s(wall=True),
                "call_p50_s": statistics.median(runner.durations(wall=True)),
                "machine_speed": runner.speed()}

    # the last round's outputs are on disk; earlier rounds wrote the same bytes
    broken = {j for _, j, _ in runner.failures}
    errors, accuracy = workload.check(
        {j: out for j, out in enumerate(runner.out_dirs) if j not in broken})
    if args.trace:
        for name, unit in workloads.ACCURACY.items():
            metrics[name] = (accuracy.get(name, 0.0), unit)

    # a check failure on an operation holds for each round's identical run of it
    failed_calls = {(r, j) for r, j, _ in runner.failures}
    failed_calls |= {(r, j) for r in range(runner.rounds) for j in errors}
    failed = len(failed_calls)
    attempted = runner.rounds * len(ops)
    correct = not errors

    for r, j, reason in runner.failures:
        sys.stderr.write(f"round {r} operation {j} failed: {reason}\n")
    for j, msgs in sorted(errors.items()):
        for msg in msgs:
            sys.stderr.write(f"check failed, operation {j} ({' '.join(ops[j].command)}): {msg}\n")

    print(f"{args.workload} seed {args.seed}{' traced' if args.trace else ''}: "
          f"{runner.rounds} rounds of {len(ops)} operations "
          f"({sum(op.units for op in ops)} {workload.unit}s), "
          f"{attempted} attempted, {failed} failed, checks {'passed' if correct else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    if wall:
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(dict(
        result, wall=wall, calls=runner.calls, kernel_s=runner.kernel), indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
