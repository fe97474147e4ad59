#!/usr/bin/env python3
"""Host wall-clock benchmark of the hybrid BFS engine and its serving stack.

Run one workload (the last stdout line is the JSON result)::

    python3 hostbench/run.py --workload paper-128r --seed 1 --seconds 18 --trace 0

or every workload, each in a fresh process::

    python3 hostbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--trace 1`` adds a traced replay of the same queries and reports the
per-layer metrics instead of the end-to-end ones; its spans are written
to ``.bench_build/spans/<workload>.trace.json``.  See hostbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from cpus import CpuPicker

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper-128r", "kernels-16r", "serve-open")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs for the self-tests; the numbers "
                        "are not comparable with full runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment() -> tuple[int, ...]:
    """Point the native cache at this checkout and put its ``src`` first
    on the import path.  Returns every CPU the process may use."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"hostbench: {src}/repro not found; run from a checkout of "
            "the repository"
        )
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    # The timed passes run on one CPU at a time (see cpus.py), so one
    # thread per numeric library; the answer checks use every CPU.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "cnative")
    sys.path.insert(0, str(src))
    return cpus


def warm_native() -> str:
    """Load the cnative library (building it if needed) before anything
    is timed; returns ``"built"`` or ``"loaded"``."""
    from repro.core.kernels.cnative import build

    path = build.library_path()
    existed = path is not None and path.exists()
    ok, reason = build.availability()
    if not ok:
        raise SystemExit(f"hostbench: cnative kernels unavailable: {reason}")
    return "loaded" if existed else "built"


def provenance(nproc: int, native: str) -> dict:
    import numpy
    from repro.obs.ledger import environment_provenance, git_commit

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    env = environment_provenance()
    return {
        "commit": git_commit(ROOT) or "none",
        "src_sha256": digest.hexdigest()[:12],
        "nproc": nproc,
        "python": env["python"],
        "numpy": numpy.__version__,
        "cnative": native,
    }


def run_one(args) -> int:
    cpus = prepare_environment()
    picker = CpuPicker(cpus)
    picker.pick()
    native = warm_native()
    from workloads import percentile, run_workload

    span_path = BUILD / "spans" / f"{args.workload}.trace.json"
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, span_path=str(span_path) if args.trace else None,
        cpus=cpus, picker=picker,
    )
    prov = " ".join(
        f"{k}={v}" for k, v in provenance(len(cpus), native).items()
    )
    print(f"# hostbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} {prov}")
    reps = sorted(report.setup_reps)
    print(f"CPU moves: {picker.moves}")
    print(f"set-ups: {len(reps)}, {reps[0]:.3f} to {reps[-1]:.3f} s")
    lines = [(name, v, u, f"n={n}")
             for name, (v, u, n) in report.host.items()]
    lines += [(f"serve_ms_p{q}", percentile(report.paced_ms, q), "ms",
               f"n={len(report.paced_ms)} paced, not bounded")
              for q in ((50, 99) if report.paced_ms else ())]
    lines.append(("fail_ratio", report.failed / report.attempted, "ratio",
                  f"n={report.attempted} ({report.failed} failed)"))
    lines.append(("reference_ms", report.reference_ns / 1e6, "ms",
                  "median, between queries"))
    print("as measured:")
    for name, value, unit, note in lines:
        print(f"  {name:<16} {value:>16.4f} {unit:<11} {note}")
    print("bounded (host times scaled by the reference):")
    for name, (value, unit, n) in report.end_to_end.items():
        print(f"  {name:<16} {value:>16.4f} {unit:<11} n={n}")
    print(f"sim_digest {report.sim_digest}")
    metrics = {k: (v, u) for k, (v, u, _n) in report.end_to_end.items()}
    if args.trace:
        print(f"traced sim_digest {report.traced_digest}")
        print(f"traced query time {report.traced_query_ms:.3f} ms; "
              f"spans in {span_path}")
        for name, (value, unit) in report.per_layer.items():
            share = ""
            if unit == "ms" and report.traced_query_ms and name.split(".")[0] \
                    in ("engine", "topdown", "bottomup", "mpi", "timing"):
                share = f" {100 * value / report.traced_query_ms:5.1f}%"
            print(f"{name:<32} {value:>14.4f} {unit}{share}")
        metrics = report.per_layer
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0 if report.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process (so ``peak_rss_mb`` is its own)."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, text=True, stdout=subprocess.PIPE)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
