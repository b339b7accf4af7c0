"""Run one thetalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory.  After the
set-up, which ends with one untimed warm-up round, whole rounds of the
workload's operations run for about ``--seconds``: another round starts
only if, at the median round time so far, it should end in time (there is
always at least one round).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead.  Outputs are written
under ``.perfbench_out/<workload>/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def checked(check, *args) -> list:
    """Run a check; a check that raises is reported as a failure."""
    try:
        return check(*args)
    except Exception as exc:
        traceback.print_exc()
        return [f"{check.__qualname__} raised {exc!r}"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Rounds:
    """Wall and CPU seconds of each round, with operation counts."""

    def __init__(self):
        self.walls, self.cpus, self.errors = [], [], []
        self.attempted = self.failed = 0

    def run(self, wl, seconds: float) -> "Rounds":
        """Run whole rounds while the next one, at the median round time so
        far, is expected to end within ``seconds`` (at least one round)."""
        deadline = time.perf_counter() + seconds
        while True:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                ok = wl.run_round()
            except Exception:
                traceback.print_exc()
                ok = [False] * wl.ops_per_round
            self.walls.append(time.perf_counter() - wall)
            self.cpus.append(time.process_time() - cpu)
            self.attempted += len(ok)
            self.failed += ok.count(False)
            self.errors += checked(wl.check_round, ok)
            left = deadline - time.perf_counter()
            if left < statistics.median(self.walls):
                return self


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetalab" / "__init__.py").is_file():
        print(f"error: no thetalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thetalab
    if Path(thetalab.__file__).resolve().parent != SRC / "thetalab":
        print(f"error: imported thetalab from {thetalab.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](str(workdir), args.seed)
    wl.setup()
    warmup = Rounds().run(wl, 0.0)
    setup_s = process_age()

    if args.trace:
        # half the time untraced, half traced: the difference between the
        # two medians is the tracing overhead
        from layers import LayerProbe
        plain = Rounds().run(wl, args.seconds / 2)
        probe = LayerProbe()
        probe.install()
        rounds = Rounds().run(wl, args.seconds / 2)
        probe.tracer.uninstall()
        probe.tracer.dump(str(workdir / "spans.jsonl"))
        for label in probe.tracer.absent:
            print(f"trace target absent: {label}", file=sys.stderr)
        metrics = probe.metrics(len(rounds.walls),
                                statistics.median(rounds.walls),
                                statistics.median(plain.walls))
        done = (warmup, plain, rounds)
    else:
        rounds = Rounds().run(wl, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": statistics.median(rounds.walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(rounds.cpus), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        done = (warmup, rounds)
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    errors = [e for r in done for e in r.errors]
    if failed < attempted:
        errors += checked(wl.final_check)
    for message in dict.fromkeys(errors):
        print(f"check failed: {message}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed,
            "warmup_wall_s": warmup.walls[0], "round_wall_s": rounds.walls, "round_cpu_s": rounds.cpus,
            "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "blas_threads": blas_threads()}
    with open(workdir / "run_info.json", "w") as fh:
        json.dump(info, fh, indent=2)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
