"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload of ``workloads.WORKLOADS`` against the library in
``src/`` of the checkout it sits in, and prints two lines on standard
output: a diagnostics object (provenance, host-drift sentinel, sample
counts, first failures), then the result object ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is
0 when every operation was answered correctly and every fleet worker
was reaped, 1 otherwise, and 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        result, code, diagnostics = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
