#!/usr/bin/env python3
"""Interleaved A/B of two checkouts on the pipeline benchmark (perfbench/).

    python3 bench/ab.py OLD NEW --workload collect --seed 101 --seconds 8 --pairs 10
    python3 bench/ab.py OLD --aa --workload collect --seconds 1 --pairs 2 --tiny

OLD and NEW are repository checkouts (each with its own perfbench/run.py).
Each pair runs both sides once, back to back, and the side that runs first
alternates from pair to pair, so drift in the host's speed falls on both
sides alike. Every run builds and runs the checkout's own benchmark, untraced,
in the checkout's own build tree (<checkout>/.bench_build).

Per workload and metric the report gives each side's median and quartiles,
the change of the medians, and k/N: the pairs in which NEW beat OLD in the
metric's better direction (from the checkout's BENCHMARK.json; lower when
unlisted). A verdict is given only with at least 5 pairs, when k/N is at
least 9/10 either way and the medians differ by more than OLD's
interquartile range; otherwise "~".

--aa runs OLD against itself: a control that shows how much one checkout
disagrees with itself, and so what a real difference has to exceed.

Each run's output_digest and simulator event counts are compared too. In
--aa mode a mismatch (or any failed run) makes the exit status 1; in A/B mode
a mismatch is reported, since a change may alter outputs on purpose.

Each side's operations are reported as attempted/failed per run. In A/B mode
the exit status is 1 when NEW's failed share (failed over attempted, summed
over its runs) is larger than OLD's.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST_RE = re.compile(r"^workload \S+ seed \d+: .*output_digest (\S+)$")
EVENTS_RE = re.compile(r"^sim events: (.*)$")
MIN_PAIRS_FOR_VERDICT = 5


class Side:
    def __init__(self, label, checkout):
        self.label = label
        self.checkout = checkout
        self.better = load_directions(checkout)

    def run(self, workload, args):
        cmd = [sys.executable, str(self.checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)  # one shared build tree would mix the two sides
        proc = subprocess.run(cmd, cwd=self.checkout, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            sys.stderr.write(proc.stderr[-3000:])
            raise RuntimeError(f"{self.label}: {' '.join(cmd)} exited {proc.returncode}")
        run = {
            "correct": result.get("correct"),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "digest": None,
            "events": None,
        }
        for line in lines[:-1]:
            if m := DIGEST_RE.match(line):
                run["digest"] = m.group(1)
            elif m := EVENTS_RE.match(line):
                run["events"] = m.group(1)
        return run


def load_directions(checkout):
    """Metric name -> "lower"/"higher", from the checkout's BENCHMARK.json."""
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(old_runs, new_runs, better):
    """Rows of (metric, old stats, new stats, change, k, n, verdict)."""
    names = [name for name in old_runs[0]["metrics"] if name in new_runs[0]["metrics"]]
    rows = []
    for name in names:
        olds = [r["metrics"][name] for r in old_runs]
        news = [r["metrics"][name] for r in new_runs]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for o, n in zip(olds, news) if (n < o if lower else n > o))
        losses = sum(1 for o, n in zip(olds, news) if (n > o if lower else n < o))
        n = len(olds)
        om, nm = statistics.median(olds), statistics.median(news)
        oq1, oq3 = quartiles(olds)
        separated = n >= MIN_PAIRS_FOR_VERDICT and abs(nm - om) > oq3 - oq1
        verdict = "~"
        if separated and 10 * wins >= 9 * n:
            verdict = "better"
        elif separated and 10 * losses >= 9 * n:
            verdict = "worse"
        change = (nm - om) / om * 100.0 if om else float("nan")
        rows.append((name, (om, oq1, oq3), (nm, *quartiles(news)), change, wins, n, verdict))
    return rows


def failed_share(runs):
    attempted = sum(r["attempted"] or 0 for r in runs)
    return sum(r["failed"] or 0 for r in runs) / attempted if attempted else 0.0


def fmt(stats):
    med, q1, q3 = stats
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="baseline checkout")
    parser.add_argument("new", type=Path, nargs="?", help="candidate checkout (not with --aa)")
    parser.add_argument("--aa", action="store_true", help="run OLD against itself")
    parser.add_argument("--workload", action="append", choices=["collect", "defend", "attack"],
                        help="repeatable; default collect")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny inputs")
    args = parser.parse_args()
    if args.aa == (args.new is not None):
        parser.error("give NEW, or --aa without NEW")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    old = Side("old", args.old.resolve())
    new = Side("new", old.checkout if args.aa else args.new.resolve())

    status = 0
    for workload in args.workload or ["collect"]:
        runs = {"old": [], "new": []}
        for i in range(args.pairs):
            order = (old, new) if i % 2 == 0 else (new, old)
            for side in order:
                runs[side.label].append(side.run(workload, args))
            print(f"{workload} pair {i + 1}/{args.pairs} done ({order[0].label} first)",
                  file=sys.stderr, flush=True)

        print(f"== {workload}, seed {args.seed}, {args.pairs} pairs"
              f"{' (A/A control)' if args.aa else ''}")
        print(f"{'metric':<34} {'old median [q1-q3]':>28} {'new median [q1-q3]':>28}"
              f" {'change':>8} {'k/N':>6}  verdict")
        for name, o, n, change, wins, count, verdict in compare(runs["old"], runs["new"],
                                                                new.better):
            print(f"{name:<34} {fmt(o):>28} {fmt(n):>28} {change:>+7.1f}% "
                  f"{wins:>3}/{count:<2}  {verdict}")

        every = runs["old"] + runs["new"]
        for label in ("old", "new"):
            counts = sorted({(r["attempted"], r["failed"]) for r in runs[label]})
            print(f"attempted/failed {label}: {', '.join(f'{a}/{f}' for a, f in counts)}")
        if not args.aa and failed_share(runs["new"]) > failed_share(runs["old"]):
            print("FAILED: new fails a larger share of its operations than old")
            status = 1
        if not all(r["correct"] for r in every):
            print("FAILED: a run reported correct=false")
            status = 1
        for what in ("digest", "events"):
            values = {side: sorted({r[what] for r in runs[side]}) for side in runs}
            same = len(values["old"]) == 1 and values["old"] == values["new"]
            shown = values["old"][0] if same else values
            print(f"{'output_digest' if what == 'digest' else 'sim events'}: "
                  f"{'same' if same else 'DIFFERENT'}: {shown}")
            if not same and (args.aa or len(values["old"]) != 1 or len(values["new"]) != 1):
                status = 1  # one checkout disagreeing with itself is never a perf effect
        print()

    return status


if __name__ == "__main__":
    sys.exit(main())
