#!/usr/bin/env python3
"""A/B benchmark of two commits: alternating pairs of bench/run.py runs.

Usage:
    python3 scripts/bench_compare.py --base REV --workload W --pairs N [--seed K]

Extracts the committed files of REV (the base) and of HEAD (the head)
into two fresh temporary directories, as the benchmark runs a commit:
git archive needs no network, leaves no worktree behind, and does not
measure uncommitted edits.  Then runs `bench/run.py --workload W --trace
0` in each checkout N times, in pairs.  Pair i uses seed K + i (K
defaults to 1) on both sides, and the side that runs first alternates
from pair to pair, so a drift of the machine's speed falls on both sides
alike.  Every run takes run_seconds of BENCHMARK.json.  Then each side
makes one short `--trace 1` run of TRACE_SECONDS with seed K, for its
per-layer metrics and its accuracy figures.

Writes BENCH_<workload>.json at the repository root: both commits, the
machine, every run, and for each end-to-end metric of BENCHMARK.json its
two medians and quartiles, the change of the median, the pairs the head
wins (ties count for neither side), whether the head is worse than the
base by more than the metric's bound, and whether a gain may be claimed:
every run passed its checks, the head failed no larger share of its
operations than the base, there are at least ten pairs, the head wins at
least nine tenths of them and its median beats the base's by more than
the base's interquartile range.  A metric is unresolved when either
side's interquartile range is wider than the bound (relative to the base's
median) and not every head run beats every base run: its spread cannot
tell a change within the bound from one beyond it.  The file also holds
both traced runs' metrics and, for each accuracy figure a traced run
reports (the keys of bench/workloads.py's ACCURACY), its value on either
side, so that a speedup shows what it cost in accuracy.
"""

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_GAIN_PAIRS = 10  # fewer pairs than this never support a claimed gain
TRACE_SECONDS = 4  # each side's traced run: a few traced rounds, enough to check


def _spread(values):
    """median, first and third quartile (linear interpolation between order statistics)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def summarize(pairs, end_to_end):
    """Each end-to-end metric compared over pairs of (base, head) runs.

    A run is a dict as _run returns it: correct, attempted, failed and
    metrics ({name: value}).  end_to_end lists BENCHMARK.json's metrics:
    name, unit, better ("higher" or "lower") and bound (the relative
    worsening allowed).
    """
    clean = (all(r["correct"] for pair in pairs for r in pair)
             and _failed_share([h for _, h in pairs]) <= _failed_share([b for b, _ in pairs]))
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        b, h = _spread(base), _spread(head)
        gain = sign * (h["median"] - b["median"])  # > 0: the head's median is better
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
        apart = min(sign * y for y in head) > max(sign * x for x in base)
        spread = max(b["q3"] - b["q1"], h["q3"] - h["q1"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": b,
            "head": h,
            "change": h["median"] / b["median"] - 1.0,
            "wins": wins,
            "pairs": len(pairs),
            "within_bound": -gain <= spec["bound"] * abs(b["median"]),
            "unresolved": spread > spec["bound"] * abs(b["median"]) and not apart,
            "gain": (clean and len(pairs) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(pairs)
                     and gain > b["q3"] - b["q1"]),
        }
    return out


def accuracy(base, head, names):
    """Each accuracy figure on both sides: {name: {base, head, equal}}.

    base and head are the metrics ({name: value}) of the two traced runs;
    a figure a side did not report is None there.
    """
    out = {}
    for name in names:
        b, h = base.get(name), head.get(name)
        out[name] = {"base": b, "head": h, "equal": b is not None and b == h}
    return out


def _accuracy_names(tree):
    """The keys of ACCURACY in tree's bench/workloads.py, read without importing it."""
    module = ast.parse((tree / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ACCURACY"
                                                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _extract(rev, into):
    """The committed files of rev under the directory into."""
    into.mkdir()
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(tree, workload, seed, seconds, trace=0):
    """One bench/run.py run in tree, untraced unless trace: its result line, as a dict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True,
                        choices=("cone-schw", "invert-schw", "limit-flat"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("base", args.base), ("head", "HEAD"))}

    work = Path(tempfile.mkdtemp(prefix="bench-compare-"))
    runs = []
    try:
        trees = {}
        for side, commit in commits.items():
            trees[side] = work / side
            _extract(commit, trees[side])
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                run = _run(trees[side], args.workload, args.seed + i, seconds)
                runs.append(dict(run, pair=i, side=side, seed=args.seed + i,
                                 first=side == order[0]))
                print(f"pair {i} {side}: " + ", ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)
        traced = {side: _run(trees[side], args.workload, args.seed, TRACE_SECONDS, trace=1)
                  for side in commits}
        names = list(dict.fromkeys(_accuracy_names(trees["base"])
                                   + _accuracy_names(trees["head"])))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_pair = [{r["side"]: r for r in runs if r["pair"] == i} for i in range(args.pairs)]
    summary = summarize([(p["base"], p["head"]) for p in by_pair], spec["end_to_end"])
    report = {
        "workload": args.workload,
        "base": commits["base"],
        "head": commits["head"],
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "attempted": {side: sum(r["attempted"] for r in runs if r["side"] == side)
                      for side in commits},
        "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                   for side in commits},
        "correct": all(r["correct"] for r in runs),
        "metrics": summary,
        "traced": {"seed": args.seed, "seconds": TRACE_SECONDS,
                   "correct": {side: traced[side]["correct"] for side in commits},
                   "metrics": {side: traced[side]["metrics"] for side in commits}},
        "accuracy": accuracy(traced["base"]["metrics"], traced["head"]["metrics"], names),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in summary.items():
        print(f"{name:12s} base {m['base']['median']:.6g} head {m['head']['median']:.6g} "
              f"({m['change']:+.2%}), head wins {m['wins']}/{m['pairs']}, "
              f"gain {'yes' if m['gain'] else 'no'}, within bound "
              f"{'yes' if m['within_bound'] else 'NO'}"
              f"{', UNRESOLVED' if m['unresolved'] else ''}")
    for name, a in report["accuracy"].items():
        print(f"{name:36s} base {a['base']} head {a['head']}{'' if a['equal'] else ' (moved)'}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
