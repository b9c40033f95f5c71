"""Compare a parent and a change with the benchmark's own rule.

Run pairs (parent and change on the same seed, alternating which goes
first), then report:

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload index-build --pairs 10 --out cmp
    python3 perfbench/compare.py report cmp

``--parent`` and ``--change`` are checkouts; each side runs its own
``perfbench/run.py`` from its own root for ``run_seconds`` of this
checkout's ``BENCHMARK.json``.  ``--workload all`` runs the pairs of every
workload in turn.  Both sides must hold the same benchmark (the same
``BENCHMARK.json`` and ``perfbench/*.py``): ``run`` refuses otherwise, and
stores that hash with every result.  ``report`` reads ``BENCHMARK.json`` of
this checkout for each metric's direction and bound, refuses results saved
with another benchmark, and prints one row per workload, then every metric:

* gain: at least 10 pairs, the change wins at least 9 of every 10 (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range; void when the change fails more operations than the
  parent;
* unresolved: either side's run-to-run spread (interquartile range over
  median) exceeds the bound, unless every change run beats every parent run;
* regression: the change's median is worse than the parent's by more than
  the bound;
* otherwise within bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10      # no gain is claimed on fewer pairs
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def bench_hash(root: Path) -> str:
    """Hash of the benchmark a checkout holds: BENCHMARK.json and
    perfbench/*.py."""
    h = hashlib.sha256()
    for f in [root / "BENCHMARK.json"] + sorted((root / "perfbench").glob("*.py")):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def run_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = {side: bench_hash(root) for side, root in sides.items()}
    if bench["parent"] != bench["change"]:
        print("parent and change hold different benchmarks (BENCHMARK.json or "
              "perfbench/*.py differ); measure both with the same one",
              file=sys.stderr)
        return 1
    out = Path(args.out)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for pos, side in enumerate(order):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    print(f"{side} run failed on {workload} seed {seed}", file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                (out / side).mkdir(parents=True, exist_ok=True)
                (out / side / f"{workload}-seed{seed}.json").write_text(json.dumps(
                    {"workload": workload, "seed": seed, "position": pos,
                     "bench_hash": bench[side], "result": res}, indent=1))
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side} done",
                      flush=True)
    return 0


def load(side_dir: Path, bench: str):
    """workload -> seed -> last-line result, refusing results saved with
    another benchmark than this checkout's."""
    out: dict = defaultdict(dict)
    for f in sorted(side_dir.glob("*.json")):
        rec = json.loads(f.read_text())
        if rec.get("bench_hash") != bench:
            raise SystemExit(f"{f} was measured with another benchmark than this "
                             "checkout's; rerun the pairs")
        out[rec["workload"]][rec["seed"]] = rec["result"]
    return out


def verdict(p, c, better, bound, failed_more):
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = all(sign * (b - a) < 0 for a in p for b in c)
    if (len(p) >= MIN_PAIRS and wins >= 0.9 * len(p) and worse < 0
            and abs(c_med - p_med) > p_q3 - p_q1 and not failed_more):
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    else:
        v = "within bound"
    return v, {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
               "wins": wins, "pairs": len(p), "worse_share": worse, "spread": spread}


def report(args) -> int:
    meta = {m["name"]: m for m in SPEC["end_to_end"]}
    base = Path(args.dir)
    bench = bench_hash(ROOT)
    parent, change = load(base / "parent", bench), load(base / "change", bench)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        pr = [parent[workload][s] for s in seeds]
        cr = [change[workload][s] for s in seeds]
        failed_more = sum(r["failed"] for r in cr) > sum(r["failed"] for r in pr)
        rows = []
        for name, m in meta.items():
            p = [r["metrics"][name]["value"] for r in pr]
            c = [r["metrics"][name]["value"] for r in cr]
            v, info = verdict(p, c, m["better"], m["bound"], failed_more)
            rows.append((name, v, info))
        groups = defaultdict(list)
        for name, v, _ in rows:
            groups[v].append(name)
        print(f"{workload}: {len(seeds)} pairs; "
              + "; ".join(f"{v}: {', '.join(groups[v])}" for v in
                          ("gain", "regression", "unresolved") if groups[v])
              + ("" if groups["gain"] or groups["regression"] or groups["unresolved"]
                 else "all within bound")
              + ("; change fails more operations" if failed_more else ""))
        if len(seeds) < MIN_PAIRS:
            print(f"  only {len(seeds)} pairs: a gain needs at least {MIN_PAIRS}")
        for name, v, i in rows:
            (pq1, pm, pq3), (cq1, cm, cq3) = i["parent"], i["change"]
            print(f"  {name:20s} {v:13s} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  wins {i['wins']}/{i['pairs']}  "
                  f"worse {100 * i['worse_share']:+.1f}%  spread {100 * i['spread']:.1f}%  "
                  f"bound {100 * meta[name]['bound']:.0f}%")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1000)
    r.add_argument("--out", required=True, help="directory for the pair results")
    p = sub.add_parser("report", help="apply the gain/regression rule")
    p.add_argument("dir", help="directory written by run")
    args = ap.parse_args(argv)
    return run_pairs(args) if args.cmd == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
