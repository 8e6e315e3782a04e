"""The eegtd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Each workload runs in a fresh worker
process (perfbench/worker.py) with BLAS pinned to one thread. With --trace 0
the end-to-end metrics of BENCHMARK.json are measured; with --trace 1 a
traced run gives its per-layer metrics. Every metric is printed with its
unit and sample count, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The online and saliency workloads replay a detecting model trained with the
code under test. It is trained once per source tree, on the first run, and
kept under .bench_build/perfbench/ keyed by a digest of the sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quantile  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKER = ROOT / "perfbench" / "worker.py"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Set-up is timed in this many extra fresh processes besides the measured one.
SETUP_PROBES = 4
BUILD_TIMEOUT_S = 800.0
# A run whose CPUs lost more than this share of their time to the host, or
# whose load average exceeded nproc, is marked as contended.
STEAL_LIMIT = 0.05
RUN_LIMIT_S = 175.0  # a run must end within 180 s once the model is built
# Workloads that run by hand but are not in BENCHMARK.json, so nothing gates
# on them: online_video2n's figures spread too widely on a 2-core VM (README).
UNGATED_WORKLOADS = ("online_video2n",)


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    """Digest of everything the cached model depends on."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "eegtd").rglob("*.py"))
    files.append(ROOT / "perfbench" / "recipe.py")
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def spawn(mode: str, opts: argparse.Namespace, timeout_s: float) -> tuple[dict, float, float]:
    """Run the worker to completion; returns (result, spawn time, peak RSS MB)."""
    out = BUILD_DIR / f"{mode}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", opts.workload,
        "--seed", str(opts.seed), "--seconds", str(opts.seconds),
        "--trace", str(opts.trace), "--model", str(opts.model),
        "--workdir", str(BUILD_DIR / f"work-{os.getpid()}"), "--out", str(out),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **PINNED},
                            stdout=sys.stderr)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    # Linux reports ru_maxrss in KiB.
    return result, spawned, usage.ru_maxrss / 1024.0


def ensure_model(opts: argparse.Namespace) -> None:
    if opts.model.exists():
        return
    for stale in BUILD_DIR.glob("model-*.hmdl"):
        stale.unlink()
    print(f"perfbench: training the detecting model into {opts.model}",
          file=sys.stderr)
    t = time.monotonic()
    spawn("build", opts, BUILD_TIMEOUT_S)
    print(f"perfbench: model built in {time.monotonic() - t:.1f} s", file=sys.stderr)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot; (0, 0) if unknown."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "?"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "?"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "?"


def end_to_end(result: dict, setups: list[float], rss_mb: float) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric."""
    lat = result["latencies_ms"]
    p50, p90 = quantile(lat, 50), quantile(lat, 90)
    return {
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (rss_mb, 1),
        "wall_s": (median(result["walls"]), len(result["walls"])),
        "latency_p50_ms": (p50.value, p50.n),
        "latency_p90_ms": (p90.value, p90.n),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "eegtd" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no eegtd source tree with BENCHMARK.json at {ROOT}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)
    if opts.workload not in names:
        raise BenchError(f"unknown workload {opts.workload!r}; choose from {names}")
    metric_specs = spec["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    opts.model = BUILD_DIR / f"model-{digest}.hmdl"
    load_before = loadavg()
    ensure_model(opts)
    ticks_before = cpu_ticks()
    measure_started = time.monotonic()

    setups: list[float] = []
    if not opts.trace:
        for _ in range(SETUP_PROBES):
            probe, spawned, _ = spawn("setup", opts, 60.0)
            setups.append(probe["ready"] - spawned)
    remaining = RUN_LIMIT_S - (time.monotonic() - measure_started)
    try:
        result, spawned, rss_mb = spawn("run", opts, remaining)
    finally:
        shutil.rmtree(BUILD_DIR / f"work-{os.getpid()}", ignore_errors=True)
    setups.append(result["ready"] - spawned)
    if "spans_file" in result:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        Path(result.pop("spans_file")).replace(traces / f"{opts.workload}.spans.json")
    load_after = loadavg()
    ticks_after = cpu_ticks()
    total_ticks = ticks_after[1] - ticks_before[1]
    steal_frac = (ticks_after[0] - ticks_before[0]) / total_ticks if total_ticks else 0.0

    if result["attempted"] == 0 or not result["walls"]:
        raise BenchError(f"no operation succeeded: {result['errors']}")
    if opts.trace:
        values = {k: (v, 1) for k, v in result["layers"].items()}
    else:
        values = end_to_end(result, setups, rss_mb)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ "
                         "from BENCHMARK.json")

    nproc = os.cpu_count() or 1
    contended = steal_frac > STEAL_LIMIT or any(
        float(load.split()[0]) > nproc for load in (load_before, load_after)
        if load != "?")
    env = {
        "nproc": nproc, "cpu": cpu_model(), **result["env"], "commit": git_commit(),
        "source_digest": digest, "loadavg_before": load_before,
        "loadavg_after": load_after, "steal_frac": round(steal_frac, 4),
        "contended": contended,
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
    }
    record = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "env": env, "setup_samples": setups,
        "peak_rss_mb": rss_mb, "total_s": time.monotonic() - started,
        **{k: result[k] for k in ("attempted", "failed", "errors", "walls",
                                  "traced_walls", "notes")},
        "metrics": {k: {"value": v, "unit": units[k], "n": n}
                    for k, (v, n) in values.items()},
    }
    records = BUILD_DIR / "records"
    records.mkdir(exist_ok=True)
    stamp = record["utc"].replace(":", "")
    (records / f"{opts.workload}-s{opts.seed}-t{opts.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1))

    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if contended:
        print("# WARNING: load above nproc or CPU time stolen by the host; "
              "this run does not count")
    failed_frac = result["failed"] / result["attempted"]
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={failed_frac:.4f}")
    for err in result["errors"]:
        print(f"# FAILED {err}")
    for key, value in sorted(result["notes"].items()):
        print(f"# note {key}={value:.6g}")
    print(f"{'metric':<40} {'value':>14} {'unit':<8} n")
    for key, (value, n) in values.items():
        print(f"{key:<40} {value:>14.6g} {units[key]:<8} {n}")
    if not opts.trace:
        # The p99 is printed but not gated: on a 2-core VM the paced-phase
        # p99 switched between about 45 and 85 ms from run to run.
        for q in (90, 99):
            tail = quantile(result["latencies_ms"], q)
            print(f"# latency_p{q}_ms={tail.value:.6g} with {tail.beyond} of {tail.n} "
                  "samples beyond it" + ("" if tail.resolved else " (fewer than 10)"))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
