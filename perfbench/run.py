"""The repository's benchmark: one command, two workloads.

Measure one workload for one seed (the last stdout line is the JSON
result; the exit status is nonzero when an output check fails)::

    python3 perfbench/run.py --workload serve-churn --seed 0 --seconds 45 --trace 0

``--trace 1`` gives the per-layer metrics from a traced run instead.
Steadiness report: two sets of runs, interleaved, compared per metric
against the bounds in ``BENCHMARK.json``::

    python3 perfbench/run.py --steadiness 10 --seconds 45

Each measurement runs in a fresh ``measure.py`` process, so its peak RSS
is its own; this process only prepares inputs (the rebuild population,
generated once per seed into the stage cache) and passes output through.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Wall-clock limit for one measuring process.
MEASURE_TIMEOUT_S = 170


def _require_program() -> None:
    """Fail early, with no result line, when the program's source is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


def prepare(workload: str, seed: int) -> None:
    """Inputs made before measuring, untimed: the rebuild population."""
    if workload == "rebuild-metro":
        import workloads

        workloads.ensure_population(seed, str(OUT / "cache"))


def measure(workload: str, seed: int, seconds: float, trace: int) -> Tuple[int, str, str]:
    """Run ``measure.py`` once; returns (exit status, stdout, stderr)."""
    prepare(workload, seed)
    command = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    # A process group of its own, so a timeout can stop its workers too.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(ROOT), start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        return 1, "", stderr + f"\nperfbench: measurement exceeded {MEASURE_TIMEOUT_S} s\n"
    return proc.returncode, stdout, stderr


def _result(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def steadiness(runs: int, seconds: float, workloads: List[str]) -> int:
    """Two sets of ``runs`` seeds per workload; per metric, do they agree?

    Set A and set B use the same seeds.  A metric agrees when each set's
    spread (quartile distance over median) and the distance between the
    two medians stay within the metric's bound; the spread of ``setup_s``
    is reported but not held to the bound.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[Tuple[str, str, str], List[float]] = {}
    failures = 0
    # Each workload's two sets run back to back, so host drift over the
    # whole report does not enter one workload's comparison.
    for workload in workloads:
        for label in ("A", "B"):
            for seed in range(runs):
                status, stdout, stderr = measure(workload, seed, seconds, 0)
                result = _result(stdout)
                if status != 0 or result is None or not result["correct"]:
                    failures += 1
                    print(f"{label} {workload} seed={seed}: FAILED\n{stderr}", flush=True)
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, label), []).append(metric["value"])
                print(f"{label} {workload} seed={seed}: done", flush=True)
    report = []
    disagreements = 0
    for workload in workloads:
        for name, bound in bounds.items():
            a = values.get((workload, name, "A"), [])
            b = values.get((workload, name, "B"), [])
            if len(a) < 2 or len(b) < 2:
                continue
            row = {"workload": workload, "metric": name, "bound": bound, "A": a, "B": b}
            for label, vals in (("A", a), ("B", b)):
                q1, med, q3 = statistics.quantiles(vals, n=4)
                row[f"{label}_median"] = med
                row[f"{label}_iqr_share"] = (q3 - q1) / med
            shift = abs(row["B_median"] - row["A_median"]) / row["A_median"]
            row["median_shift"] = shift
            spread_ok = name == "setup_s" or max(row["A_iqr_share"], row["B_iqr_share"]) <= bound
            row["agree"] = shift <= bound and spread_ok
            disagreements += not row["agree"]
            report.append(row)
            print(
                f"{workload:14s} {name:17s} A {row['A_median']:.6g} (IQR {row['A_iqr_share']:.1%})"
                f"  B {row['B_median']:.6g} (IQR {row['B_iqr_share']:.1%})"
                f"  shift {shift:.1%}  bound {bound:.0%}  {'agree' if row['agree'] else 'DISAGREE'}"
            )
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"steadiness-{stamp}.json"
    path.write_text(json.dumps({"runs": runs, "seconds": seconds, "rows": report,
                                "failed_runs": failures}, indent=1), encoding="utf-8")
    print(f"steadiness report written to {path}")
    return 1 if failures or disagreements else 0


def record_digests(seeds: int) -> int:
    """Rewrite ``digests.json`` with every workload's digest for seeds 0..N-1.

    Only for a change that alters the program's outputs on purpose; the
    record is what every later run checks against.
    """
    import workloads as wl
    from probes import Probes

    record: Dict[str, Dict[str, str]] = {}
    spool = OUT / "spool-record"
    spool.mkdir(parents=True, exist_ok=True)
    for name in wl.WORKLOADS:
        for seed in range(seeds):
            if name == "rebuild-metro":
                prepare(name, seed)
                ck = wl.load_population(seed, str(OUT / "cache"))
                digest, problems = wl.rebuild_digests(ck, seed, None)
            else:
                inputs = wl.serve_inputs(name, seed)
                with Probes(str(spool)) as probes:
                    probes.install(wl.always_on(probes, name))
                    unit = wl.serve_replay(inputs, probes, inputs.use_processes, None)
                digest, problems = unit.digest, unit.problems
            if problems:
                print(f"{name} seed={seed}: {problems}", file=sys.stderr)
                return 1
            record.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed={seed} {digest}", flush=True)
    (HERE / "digests.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the repository's benchmark")
    parser.add_argument("--workload", choices=("serve-churn", "rebuild-metro"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run the steadiness report over RUNS seeds per set")
    parser.add_argument("--record-digests", type=int, metavar="SEEDS",
                        help="rewrite digests.json for seeds 0..SEEDS-1")
    args = parser.parse_args(argv)
    _require_program()
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.steadiness:
        chosen = [args.workload] if args.workload else ["serve-churn", "rebuild-metro"]
        return steadiness(args.steadiness, args.seconds, chosen)
    if args.workload is None:
        parser.error("--workload is required")
    status, stdout, stderr = measure(args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(stderr)
    if _result(stdout) is None:
        sys.stderr.write(stdout)
        return status or 1
    sys.stdout.write(stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
