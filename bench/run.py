"""qplanar benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload sweep|kernels|certify --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the engine is imported from its
``src``.  A run starts set-up-only processes, then one fresh process
(``worker.py``) pinned to QPLANAR_WORKERS=1 and one BLAS/OpenMP thread that
repeats passes over the workload's commands, issued back to back by a single
caller (a closed loop), until the time is up.  Medians are reported.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced passes and reports the per-layer metrics derived from the spans.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PINNED_ENV = {"QPLANAR_WORKERS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_PROBES = 4        # set-up-only processes per run, after one warm-up, besides the run's own
HARD_LIMIT_S = 160.0    # a run ends by then, whatever --seconds says


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(str(git / ref)).strip()
    if sha:
        return sha
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed: int, input_seed: int) -> dict:
    """Machine, toolchain and pinning facts recorded with every result."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {f"L{_read(str(idx / 'level')).strip()} {_read(str(idx / 'type')).strip()}":
              _read(str(idx / "size")).strip()
              for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))}
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal")), 0)
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
        "mem_gb": round(mem_kb / 2**20, 2), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"), "pinned_env": PINNED_ENV,
        "git_commit": _git_commit(), "seed": seed, "input_seed": input_seed,
    }


def _spawn(args: list[str], timeout: float) -> dict | None:
    """Run one worker process to completion and return its JSON result (None on a crash)."""
    env = {**os.environ, **PINNED_ENV}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), "--t0", repr(t0), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited with {proc.returncode}:\n{err[-2000:]}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import OUT_DIR, WORKLOADS, make_workload

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qplanar" / "__init__.py").is_file():
        print(f"error: no qplanar sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    wl.write_stacks(wl.inputs_dir)
    common = ["--workload", wl.name, "--seed", str(args.seed)]

    start = time.monotonic()
    # The first process after a checkout compiles bytecode: a warm-up, not a sample.
    probes = [_spawn([*common, "--setup-only"], HARD_LIMIT_S) for _ in range(1 + SETUP_PROBES)][1:]
    run = _spawn([*common, "--trace", str(args.trace), "--until", repr(start + args.seconds),
                  "--deadline", repr(start + HARD_LIMIT_S / 2)],
                 HARD_LIMIT_S - (time.monotonic() - start))
    if run is None:  # the engine crashed or hung: one pass, every command failed
        run = {"passes": [], "attempted": len(wl.commands), "failed": len(wl.commands),
               "problems": ["benchmark process failed"], "setup_s": None}
    passes = run["passes"]
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    attempted, failed = run["attempted"], run["failed"]

    # A metric with no sample is left out rather than reported as 0.
    median = statistics.median
    metrics = {}
    if args.trace:
        if traced:
            metrics = {name: median([p["layers"][name] for p in traced])
                       for name in traced[0]["layers"]}
        if traced and untraced:
            metrics["trace.overhead_frac"] = (median([p["wall_s"] for p in traced])
                                              / median([p["wall_s"] for p in untraced]) - 1.0)
    else:
        setups = [r["setup_s"] for r in (*probes, run) if r and r["setup_s"] is not None]
        if setups:
            metrics["setup_s"] = median(setups)
        if passes:
            metrics["wall_s"] = median([p["wall_s"] for p in passes])
            metrics["points_per_s"] = median([run["points"] / p["wall_s"] for p in passes])
            metrics["peak_rss_mb"] = run["peak_rss_mb"]
    fail_frac = failed / attempted

    record = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed, wl.input_seed), "run": run, "setup_probes": probes,
        "fail_frac": fail_frac, "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{wl.tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(record["env"]))
    for p in run["problems"][:20]:
        print(f"FAILED CHECK {p}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {_unit(name)}")
    print(f"{'fail_frac':32s} {fail_frac:.6g} ratio ({failed}/{attempted} operations)")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_call." in name:
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_point"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
