"""Run one benchmark workload against the sketchlsh sources of this checkout.

    python3 perfbench/run.py --workload planted-query --seed 1 --seconds 10 --trace 0

Prints the run's full record as one JSON line, then, as the last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. Records and spans are also written under ``perfbench-out/``.
Exits with 2, printing no result, when the checkout holds no sketchlsh
sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
M_MMAP_THRESHOLD = -3  # mallopt parameter, malloc.h


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    By default glibc raises the threshold to the size of each large block
    freed, so whether the next index-file buffer goes back to the OS or stays
    in the heap depends on whether it is larger than the last one. That
    varies with the seed and made peak RSS bimodal (66 or 89 MB on
    build-persist). A fixed threshold gives every large buffer its own
    mapping, so peak RSS follows live memory. No-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sketchlsh" / "__init__.py").is_file():
        print(f"no sketchlsh sources under {SRC}", file=sys.stderr)
        return 2
    pin_mmap_threshold()
    sys.path.insert(0, str(SRC))
    import sketchlsh

    if Path(sketchlsh.__file__).resolve().parent != SRC / "sketchlsh":
        print(f"sketchlsh imported from {sketchlsh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        record, span_rows = bench.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w") as f:
            f.write('["name", "start", "end", "parent", "thread", "batch", "count"]\n')
            for row in span_rows:
                f.write(json.dumps(row) + "\n")
    print(json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
