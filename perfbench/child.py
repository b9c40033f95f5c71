"""Runs one workload in this process and writes its result as JSON.

run.py starts one of these per workload, so every workload gets a fresh
interpreter and its own peak RSS.  Modes:

* ``measure``: set up ``setup_repeats`` times (median reported), then run
  whole operation cycles until at least ``--seconds`` of library time and
  two cycles are done;
* ``fixed``: set up once and run the workload's ``fixed_cycles`` cycles, so
  the work, and every count the trace takes, repeats exactly per seed.

With ``--trace 1`` the layer spans and counters are installed first.  Only
library calls are timed; input generation, output checks and the
machine-speed probes are not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict, deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WALL_LIMIT_S = 120   # stop early (and say so) rather than overrun the caller


def import_library():
    """Import boxrig from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import boxrig
    got = Path(boxrig.__file__).resolve().parent
    if got != (SRC / "boxrig").resolve():
        raise SystemExit(f"boxrig imported from {got}, not from {SRC}")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Calibrator:
    """Machine-speed probe.

    On a shared machine the interpreter's speed changes by 40% and more
    between phases lasting seconds to minutes, whatever the benchmark does.
    A fixed pure-Python loop is timed between operations, before and after
    each one but at most every ``interval_s``; ``factor`` scales a latency
    measured since the previous call to what it would be on a machine where
    the loop takes ``REF_NS``: REF_NS over the mean of the last two probes
    (for a long operation, the probes just before and just after it).
    """

    ITERS = 30_000
    REF_NS = 2_500_000      # the loop's time at the reference speed
    interval_s = 0.05

    def __init__(self):
        self.recent: deque[int] = deque(maxlen=2)
        self.probes = 0
        self.probe_ns = 0
        self._last = float("-inf")

    def probe(self):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(self.ITERS):
            acc += i * i % 7
        d = time.perf_counter_ns() - t0
        self.recent.append(d)
        self.probes += 1
        self.probe_ns += d
        self._last = time.monotonic()

    def tick(self):
        """Probe if the last probe is older than interval_s."""
        if time.monotonic() - self._last >= self.interval_s:
            self.probe()

    def factor(self) -> float:
        """The scale for what ran since the previous tick; call tick first."""
        return self.REF_NS * len(self.recent) / sum(self.recent)


def environment(seed: int, params: dict) -> dict:
    import numpy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "boxrig").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "params": params,
    }


def run(workload: str, seed: int, seconds: float, mode: str, trace: bool) -> dict:
    import workloads as W
    from stats import percentile, tail

    wl = W.WORKLOADS[workload](seed)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t_start = time.monotonic()
    cal = Calibrator()

    setup_s, setup_raw_s = [], []
    for _ in range(wl.setup_repeats if mode == "measure" else 1):
        timer = W.Timer()
        cal.tick()
        wl.setup(timer)
        cal.tick()
        setup_raw_s.append(timer.op_ns / 1e9)
        setup_s.append(timer.op_ns * cal.factor() / 1e9)

    timer = W.Timer()
    op_ns = array("d")        # calibrated; typed arrays: see workloads.Timer
    op_raw_ns = array("q")
    by_kind: dict[str, array] = defaultdict(lambda: array("d"))
    keys = set()
    points = attempted = failed = checked = repeats = 0
    failures: list[str] = []
    busy_ns = busy_raw_ns = cycles = 0
    cut = False
    while True:
        ops = wl.cycle(cycles)
        for i, op in enumerate(ops):
            attempted += 1
            cal.tick()
            if tracer:
                tracer.op = f"{cycles}.{i}"
                tracer.active = True
            try:
                op_checks = op.run(timer)
            except Exception as exc:   # a library failure is a failed operation
                failed += 1
                failures.append(f"{op.kind}: raised {exc!r}")
                timer.pending.clear()
                timer.op_ns = 0
                continue
            finally:
                if tracer:
                    tracer.active = False
            cal.tick()
            factor = cal.factor()
            scaled = timer.op_ns * factor
            op_ns.append(scaled)
            op_raw_ns.append(timer.op_ns)
            by_kind[op.kind].append(scaled)
            busy_ns += scaled
            busy_raw_ns += timer.op_ns
            timer.commit(factor)
            points += op.points
            repeats += op.key in keys
            keys.add(op.key)
            bad = None
            for check in op_checks:
                checked += 1
                try:
                    reason = check()
                except Exception as exc:   # a crashing check is a failed check
                    reason = f"check raised {exc!r}"
                bad = bad or reason
            if bad:
                failed += 1
                failures.append(f"{op.kind}: {bad}")
        cycles += 1
        if mode == "fixed":
            if cycles >= wl.params["fixed_cycles"]:
                break
        elif busy_raw_ns >= seconds * 1e9 and cycles >= 2:
            break
        if time.monotonic() - t_start > WALL_LIMIT_S:
            cut = True
            break

    detail = {
        "mode": mode, "cycles": cycles, "cut_at_wall_limit": cut,
        "busy_s": busy_ns / 1e9, "busy_raw_s": busy_raw_ns / 1e9,
        "wall_s": time.monotonic() - t_start,
        "calibration": {"probes": cal.probes, "iterations": cal.ITERS,
                        "reference_ms": cal.REF_NS / 1e6,
                        "mean_probe_ms": cal.probe_ns / cal.probes / 1e6},
        "setup_samples_s": setup_s, "setup_raw_samples_s": setup_raw_s,
        "checked": checked,
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": failures[:20],
        "ops": len(op_ns),
        "samples": {k: len(v) for k, v in timer.lat.items()},
        "kinds": {k: {"count": len(v), "p50_ms": percentile(v, 50) / 1e6}
                  for k, v in sorted(by_kind.items())},
        "repeat_share": repeats / len(op_ns) if op_ns else 0.0,
    }
    result = {"workload": workload, "correct": failed == 0 and not cut,
              "attempted": attempted, "failed": failed,
              "env": environment(seed, wl.params), "detail": detail}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "measure" and op_ns:
        pct, _, beyond = tail(op_ns)
        detail["tail"] = {"percentile": pct, "samples": len(op_ns),
                          "samples_beyond": beyond}
        dpct, dtail, dbeyond = tail(timer.lat["depth"])
        detail["depth_query_tail"] = {"percentile": dpct, "samples": len(timer.lat["depth"]),
                                      "samples_beyond": dbeyond, "us": dtail / 1e3}
        # printed and saved, not gated: see README, "Metrics left out"
        detail["extra_metrics"] = {
            "peak_rss_mb": (peak_mb, "MB"),
            "depth_query_p90_us": (percentile(timer.lat["depth"], 90) / 1e3, "us"),
            "depth_query_tail_us": (dtail / 1e3, "us"),
            "error_rate": (detail["error_rate"], "failed/attempted"),
        }

        def metrics(ops, lat, setup, busy):
            return {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(ops) / busy * 1e9, "ops/s"),
                "points_per_s": (points / busy * 1e9, "points/s"),
                "p50_ms": (percentile(ops, 50) / 1e6, "ms"),
                "tail_ms": (tail(ops)[1] / 1e6, "ms"),
                "depth_query_p50_us": (percentile(lat["depth"], 50) / 1e3, "us"),
                "hull_query_p50_us": (percentile(lat["hull"], 50) / 1e3, "us"),
                "witness_p50_us": (percentile(lat["witness"], 50) / 1e3, "us"),
            }

        result["metrics"] = metrics(op_ns, timer.lat, setup_s, busy_ns)
        detail["raw_metrics"] = {k: v for k, (v, _) in metrics(
            op_raw_ns, timer.lat_raw, setup_raw_s, busy_raw_ns).items()}
    else:
        detail["peak_rss_mb"] = peak_mb
        detail["total_busy_s"] = (busy_ns + sum(setup_s) * 1e9) / 1e9
        if tracer:
            result["metrics"] = tracer.layer_metrics()
            result["metrics"]["inputs.repeat_share"] = (detail["repeat_share"], "ratio")
            result["tracer"] = tracer
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "fixed"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True, help="JSON file to write")
    ap.add_argument("--spans", help="JSON-lines file for the spans (traced runs)")
    args = ap.parse_args(argv)
    import_library()
    res = run(args.workload, args.seed, args.seconds, args.mode, bool(args.trace))
    tracer = res.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
        res["detail"]["spans"] = len(tracer.spans)
    if "metrics" in res:
        res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    with open(args.result, "w") as f:
        json.dump(res, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
