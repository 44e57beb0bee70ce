"""Record one untraced and one traced run of every workload as Markdown.

Usage, from the repository root::

    python3 perfbench/baseline.py --seed 1 --seconds 20 > perfbench/BASELINE.md

Each run is ``run.py`` exactly as the benchmark runs it; this script only
collects the result lines and the ``perfbench-run:`` records into tables.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float,
            trace: int) -> Tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} printed no result:\n"
                         f"{done.stderr}")
    meta = json.loads(lines[-2].split(": ", 1)[1])
    return meta, json.loads(lines[-1])


def table(rows: List[str], columns: List[str],
          cells: Dict[str, Dict[str, str]]) -> List[str]:
    out = ["| metric | " + " | ".join(columns) + " |",
           "|---" * (len(columns) + 1) + "|"]
    for row in rows:
        out.append(f"| `{row}` | "
                   + " | ".join(cells[column].get(row, "") for column in columns)
                   + " |")
    return out


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    e2e: Dict[str, Dict[str, str]] = {}
    layers: Dict[str, Dict[str, str]] = {}
    notes: List[str] = []
    for workload in workloads:
        for trace, cells in ((0, e2e), (1, layers)):
            meta, result = one_run(workload, args.seed, args.seconds, trace)
            cells[workload] = {name: fmt(metric["value"])
                               for name, metric in result["metrics"].items()}
            failures = meta.get("failure_types") or {}
            notes.append(
                f"- `{workload}` trace={trace}: correct={result['correct']}, "
                f"attempted={result['attempted']}, failed={result['failed']}"
                + (f" {failures}" if failures else "")
                + f"; sizes {meta['sizes']}"
                + (f"; latency {json.dumps(meta['latency'])}"
                   if "latency" in meta else "")
                + (f"; max_rate {json.dumps(meta['max_rate'])}"
                   if "max_rate" in meta else "")
                + (f"; generator_limited={meta['generator_limited']}"
                   if "generator_limited" in meta else ""))
    head = notes and meta
    low = [workload for workload in workloads
           if float(layers[workload]["trace.coverage"]) < 0.9]
    lines = [
        "# perfbench baseline",
        "",
        f"Seed {args.seed}, `--seconds {args.seconds:g}`, Python "
        f"{head['python']}, {head['nproc']} CPUs, commit "
        f"`{head['commit']}`.  Produced by `perfbench/baseline.py`.",
        "",
        "## End-to-end (`--trace 0`)",
        "",
        *table([entry["name"] for entry in spec["end_to_end"]], workloads,
               e2e),
        "",
        "## Per layer (`--trace 1`)",
        "",
        "Bulk values are per operation, service values per reference phase;"
        " every `*_s` is self time.  Workloads whose named layers cover less"
        " than 90% of traced wall, reported as measured: "
        + (", ".join(f"`{workload}`" for workload in low) or "none") + ".",
        "",
        *table([entry["name"] for entry in spec["per_layer"]], workloads,
               layers),
        "",
        "## Runs",
        "",
        *notes,
    ]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
