#!/usr/bin/env python3
"""Benchmark of clusterexp: four workloads through the package's public API.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload ursell-n7 --seed 1 --seconds 15 --trace 0

Each run imports the package and warms its caches (set-up), then repeats a
pass of work until ``--seconds`` of it have been timed, and checks every
output against an independent route or an exact value.  A pass is a fixed
list of ops; each op is timed alone, and ``wall_s`` and ``cpu_s`` are the sum
over one pass of each op's median time.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the checks, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The lines before it are a readable summary and the replay record.  The exit
status is 0 when every check passed, 1 when one failed (the metrics are still
printed) and 2 when the checkout holds no clusterexp sources.

Set-up is timed from before ``import clusterexp`` to the end of the warm-up
and reported as the median of up to three set-ups, the later ones in fresh
interpreters (``--setup-only``), while their total stays under six seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 6.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def _cpu_seconds() -> float:
    """User plus system time of this process and of its finished children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def replay_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
    }


def timed_setup(workload, tracer=None) -> float:
    t0 = time.perf_counter()
    workload.load()
    traced = tracer is not None and workload.in_process
    if traced:
        tracer.install()
    workload.warm_up()
    if traced:
        tracer.uninstall()
    return time.perf_counter() - t0


def fresh_setup(workload, args) -> float:
    """One more set-up, cold: a fresh interpreter for in-process workloads."""
    if not workload.in_process:
        return timed_setup(workload)
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class OpTimes:
    """Wall and CPU seconds of each op kind, over the passes of one mode."""

    def __init__(self):
        self.wall: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.layout: list[str] = []  # the kinds of one pass, in order
        self.pass_walls: list[float] = []

    def add_pass(self, timed: list[tuple[str, float, float]]) -> None:
        self.layout = [kind for kind, _, _ in timed]
        for kind, wall, cpu in timed:
            self.wall.setdefault(kind, []).append(wall)
            self.cpu.setdefault(kind, []).append(cpu)
        self.pass_walls.append(sum(wall for _, wall, _ in timed))

    def medians(self, field: str = "wall") -> dict[str, float]:
        return {kind: statistics.median(v) for kind, v in getattr(self, field).items()}

    def per_pass(self, field: str = "wall") -> float:
        """Seconds of one pass, as the sum of its ops' median times: a burst of
        host load (or of turbo clock) during one op then moves nothing."""
        med = self.medians(field)
        return sum(med[kind] for kind in self.layout)


def measure(workload, args, tracer):
    """Timed passes until ``args.seconds`` of ops are measured.  A traced run
    alternates untraced and traced passes, starting untraced."""
    plain, traced_times = OpTimes(), OpTimes()
    attempted = failed = 0
    failures = []
    elapsed = 0.0
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.phase = "pass"
            if workload.in_process:
                tracer.install()
        outputs, timed = [], []
        try:
            for kind, op in workload.ops(k, tracer if traced else None):
                c0 = _cpu_seconds()
                t0 = time.perf_counter()
                outputs.append((kind, op()))
                wall = time.perf_counter() - t0
                timed.append((kind, wall, _cpu_seconds() - c0))
                elapsed += wall
        finally:
            if traced:
                tracer.uninstall()
        (traced_times if traced else plain).add_pass(timed)
        for name, ok, detail in workload.check(k, outputs):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"pass {k} {name}: {detail}")
        k += 1
        if elapsed >= args.seconds and (tracer is None or traced_times.pass_walls):
            return plain, traced_times, attempted, failed, failures


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "clusterexp", "__init__.py")):
        print(f"no clusterexp sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("CLUSTEREXP_CACHE", None)  # the on-disk memo would skip the cold builds
    os.environ["PYTHONPATH"] = SRC            # children import the same sources
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    setups = [timed_setup(workload, tracer)]
    try:
        plain, traced_times, attempted, failed, failures = measure(workload, args, tracer)
    except Exception:
        traceback.print_exc()
        print("a pass raised; no metrics", file=sys.stderr)
        return 1
    peak = _peak_rss_mib(workload)
    while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
        setups.append(fresh_setup(workload, args))

    wall = plain.per_pass("wall")
    record = replay_record(args)
    print(f"# replay {json.dumps(record)}")
    print(f"{workload.name}: {len(plain.pass_walls)} timed passes of {len(plain.layout)} ops, "
          f"{attempted} checks, {failed} failed (fail_frac {failed / max(attempted, 1):.4g})")
    print(f"pass wall times (s): {' '.join(f'{w:.4f}' for w in plain.pass_walls[:12])}"
          + (" ..." if len(plain.pass_walls) > 12 else ""))
    for line in failures[:20]:
        print(f"  FAILED {line}")

    if args.trace:
        from layers import layer_values
        traced_wall = traced_times.per_pass("wall")
        overhead = traced_wall - wall
        values = layer_values(tracer, len(traced_times.pass_walls), overhead,
                              workload.layer_extras(setups, traced_times.medians()))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"replay": record, "metrics": metrics, **tracer.dump()}, fh)
        print(f"tracing overhead {overhead:.4f} s per pass "
              f"(traced {traced_wall:.4f} s, untraced {wall:.4f} s); "
              f"spans in {os.path.relpath(path, ROOT)}")
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "cpu_s": plain.per_pass("cpu"), "peak_rss_mib": peak}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
