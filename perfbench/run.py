"""One-command benchmark for the ShEx validator: bulk, recursive and service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kb-bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` runs the same workload with spans wrapped around each layer's
entry points and prints the per-layer metrics instead.  The last stdout line
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it, prefixed ``perfbench-run:``, records the run's metadata:
seed, input sizes, interpreter, CPU count, commit, sample counts behind each
percentile, failure types and generator lateness.  The exit status is 0 only
when every checked verdict matched the generator's ground truth.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent

SPEC = HERE.parent / "BENCHMARK.json"


def child_env(root: Path, seed: int) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The hash seed follows the workload seed, so one seed replays the same
    set iteration orders inside the program, and different seeds vary them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    return env


def commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_bulk(name: str, args, root: Path, work: Path) -> Dict[str, object]:
    from inputs import (
        KB_BULK_ENTITIES,
        KB_BULK_HUBS,
        SOCIAL_COMMUNITIES,
        SOCIAL_PEOPLE,
        kb_inputs,
        social_inputs,
        write_inputs,
    )
    from statistics import median

    from stats import latency_record

    if name == "kb-bulk":
        inputs = kb_inputs(args.seed, KB_BULK_ENTITIES, KB_BULK_HUBS)
    else:
        inputs = social_inputs(args.seed, SOCIAL_COMMUNITIES, SOCIAL_PEOPLE)
    sizes = write_inputs(inputs, work)
    del inputs
    command = [sys.executable, str(HERE / "bulk.py"), "--input", str(work),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=root, env=child_env(root, args.seed),
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: bulk worker exited {done.returncode}")
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    record: Dict[str, object] = {
        "sizes": sizes, "ops": worker["ops"],
        "failure_types": worker["failure_types"],
        "attempted": worker["attempted"], "failed": worker["failed"],
    }
    if args.trace:
        record["metrics"] = worker["layers"]
        return record
    if not (worker["setup_s"] and worker["write_ms"] and worker["read_ms"]):
        record["metrics"] = {}  # nothing succeeded; the failures say why
        return record
    record["latency"] = latency_record(worker["read_ms"], worker["write_ms"])
    record["metrics"] = {
        "setup_s": median(worker["setup_s"]),
        "peak_rss_mb": worker["peak_rss_mb"],
        # the run's aggregate rate: every validated pair over all the time
        # spent validating and reporting, across all operations
        "throughput_per_s": worker["pairs"] / sum(worker["validate_s"]),
        "read_p50_ms": median(worker["read_ms"]),
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    parser = argparse.ArgumentParser(
        description="Benchmark the ShEx validator end to end "
                    "(--trace 0) or layer by layer (--trace 1).")
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}"

    if args.workload == "service-mixed":
        from service import run_service

        record = run_service(args, root, work, child_env(root, args.seed))
    else:
        record = run_bulk(args.workload, args, root, work)

    attempted, failed = record.pop("attempted"), record.pop("failed")
    metrics = record.pop("metrics")
    meta = {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(root), **record,
    }
    print("perfbench-run: " + json.dumps(meta, sort_keys=True))
    # metrics a workload cannot produce read 0 (transport layers on a bulk
    # run); an end-to-end metric may only be missing when operations failed
    declared = {entry["name"]: entry["unit"] for entry in
                spec["per_layer" if args.trace else "end_to_end"]}
    unknown = set(metrics) - set(declared)
    missing = set(declared) - set(metrics)
    if unknown or (missing and not args.trace and not failed):
        raise SystemExit(f"perfbench: metrics {sorted(unknown | missing)} "
                         "differ from BENCHMARK.json")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
