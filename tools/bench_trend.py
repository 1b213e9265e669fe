#!/usr/bin/env python3
"""Bench trend gate: diff the worktree BENCH_*.json against the last
committed revision and fail on headline-metric regressions.

Each bench binary regenerates its committed artifact during
tools/check.sh, so the worktree copy reflects the current code while git
history holds the numbers the previous revision shipped with. This script
compares the two and exits nonzero when a headline metric regressed by
more than the threshold (default 15%), printing every delta either way.

Headline metrics (direction = which way is better):
    BENCH_serve.json      requests_per_sec up
    BENCH_ingest.json     delta_apply_ms down, speedup up, apply_align_ms
                          down (the dirty-unit realign rides the pool)
    BENCH_serve_net.json  requests_per_sec up, p99_ms down
    BENCH_sync.json       full_sync_ms down, resync_ms down,
                          resync_speedup up (the incremental re-sync must
                          stay well ahead of a full pass on small deltas)

Baseline resolution per file: `git show HEAD:<file>`; when the worktree
copy is byte-identical to HEAD (artifact not regenerated this run), falls
back to HEAD~1 so the comparison still spans a code change. A file with
no committed baseline is reported and skipped.

check.sh runs this warning-only (benches on shared hardware are noisy);
CI or a release gate can run it directly for a hard failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# metric -> True when larger is better.
HEADLINES = {
    "BENCH_serve.json": {"requests_per_sec": True,
                         "snapshot_load_ms": False},
    "BENCH_ingest.json": {"delta_apply_ms": False, "speedup": True,
                          "apply_align_ms": False},
    "BENCH_serve_net.json": {"requests_per_sec": True, "p99_ms": False},
    "BENCH_sync.json": {"full_sync_ms": False, "resync_ms": False,
                        "resync_speedup": True},
}


def git_show(rev, path):
    """Returns the file's bytes at `rev`, or None if it doesn't exist."""
    proc = subprocess.run(
        ["git", "show", f"{rev}:{path}"], capture_output=True)
    return proc.stdout if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional regression that fails (default "
                             "0.15 = 15%%)")
    parser.add_argument("files", nargs="*", default=sorted(HEADLINES),
                        help="artifacts to check (default: all known)")
    args = parser.parse_args()

    root = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True,
        text=True, check=True).stdout.strip())

    failures = []
    for name in args.files:
        metrics = HEADLINES.get(name)
        if metrics is None:
            print(f"bench_trend: {name}: no headline metrics registered, "
                  "skipping", file=sys.stderr)
            continue
        worktree_path = root / name
        if not worktree_path.exists():
            print(f"bench_trend: {name}: missing from worktree, skipping",
                  file=sys.stderr)
            continue
        current_bytes = worktree_path.read_bytes()
        baseline_bytes = git_show("HEAD", name)
        baseline_rev = "HEAD"
        if baseline_bytes is None:
            print(f"bench_trend: {name}: no committed baseline, skipping",
                  file=sys.stderr)
            continue
        if baseline_bytes == current_bytes:
            # Artifact not regenerated since the last commit; compare that
            # commit's numbers against its parent so a fresh checkout still
            # reports the most recent code change's trend.
            parent = git_show("HEAD~1", name)
            if parent is None:
                print(f"bench_trend: {name}: identical to HEAD and no "
                      "HEAD~1 baseline, skipping", file=sys.stderr)
                continue
            baseline_bytes, baseline_rev = parent, "HEAD~1"

        try:
            current = json.loads(current_bytes)
            baseline = json.loads(baseline_bytes)
        except json.JSONDecodeError as e:
            print(f"bench_trend: {name}: unparseable JSON ({e}), skipping",
                  file=sys.stderr)
            continue

        for metric, larger_better in metrics.items():
            if metric not in current or metric not in baseline:
                print(f"bench_trend: {name}: metric '{metric}' missing, "
                      "skipping", file=sys.stderr)
                continue
            old, new = float(baseline[metric]), float(current[metric])
            if old == 0:
                continue
            change = (new - old) / old
            regression = -change if larger_better else change
            arrow = "better" if (change > 0) == larger_better else "worse"
            if change == 0:
                arrow = "same"
            status = "FAIL" if regression > args.threshold else "ok"
            print(f"bench_trend: {name} vs {baseline_rev}: {metric} "
                  f"{old:g} -> {new:g} ({change:+.1%}, {arrow}) [{status}]")
            if regression > args.threshold:
                failures.append(f"{name}:{metric} regressed {change:+.1%} "
                                f"(threshold {args.threshold:.0%})")

    if failures:
        print("bench_trend: FAILED", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
