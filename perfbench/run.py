"""boxrig benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 12 --trace 0

Each named workload runs in its own child process (child.py).  With
``--trace 0`` the end-to-end metrics are measured with no instrumentation.
With ``--trace 1`` the workload's fixed operation set runs twice, untraced
and then traced, in two children; the traced one gives the per-layer
metrics and the difference between the two is the tracing overhead.

Times are calibrated to a reference interpreter speed (child.Calibrator);
the uncalibrated values are printed beside them.  Every metric is printed
as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (environment, parameters, failures, tail
percentile) are saved under ``--out``; spans of traced runs too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query-mix", "index-build", "cover-analysis")
DEADLINE_S = 175    # the children of one workload must end within this


def child(workload, seed, seconds, mode, trace, out: Path, deadline) -> dict:
    stem = f"{workload}-seed{seed}-{mode}-trace{trace}"
    result = out / f"{stem}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--trace", str(trace), "--result", str(result)]
    if trace:
        cmd += ["--spans", str(out / f"spans-{workload}-seed{seed}.jsonl")]
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: child ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(result.read_text())


def traced(workload, seed, seconds, out, deadline) -> dict:
    plain = child(workload, seed, seconds, "fixed", 0, out, deadline)
    res = child(workload, seed, seconds, "fixed", 1, out, deadline)
    base = plain["detail"]["total_busy_s"]
    extra = res["detail"]["total_busy_s"] - base
    res["metrics"]["trace.overhead_s"] = {"value": extra, "unit": "s"}
    res["metrics"]["trace.overhead_share"] = {"value": extra / base, "unit": "ratio"}
    res["untraced"] = {k: plain[k] for k in ("correct", "attempted", "failed", "detail")}
    res["correct"] = res["correct"] and plain["correct"]
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    return res


def report(res: dict):
    d = res["detail"]
    print(f"== {res['workload']}  seed {res['env']['seed']}  "
          f"({d['mode']}, {d['cycles']} cycles, {d['ops']} operations, "
          f"{d['checked']} checks)", flush=True)
    raw = d.get("raw_metrics", {})
    for name, m in res["metrics"].items():
        note = f"  (uncalibrated {raw[name]:.6g})" if name in raw else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{note}")
    for name, (value, unit) in d.get("extra_metrics", {}).items():
        print(f"{name:28s} {value:.6g} {unit}  (not in BENCHMARK.json)")
    if "extra_metrics" not in d:
        print(f"{'error_rate':28s} {d['error_rate']:.6g} failed/attempted")
    for key, name in (("tail", "tail_ms"), ("depth_query_tail", "depth_query_tail_us")):
        if key in d:
            t = d[key]
            print(f"{name + ' is':28s} p{t['percentile']} of {t['samples']} "
                  f"samples, {t['samples_beyond']} beyond it")
    for f in d["failures"]:
        print(f"FAILED {f}")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench-results",
                    help="directory for full results and spans")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "boxrig" / "__init__.py").is_file():
        print(f"no boxrig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            res = traced(w, args.seed, args.seconds, out, deadline)
        else:
            res = child(w, args.seed, args.seconds, "measure", 0, out, deadline)
        report(res)
        (out / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1))
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
