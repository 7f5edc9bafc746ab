#!/usr/bin/env python3
"""Before/after evidence for the columnar engine (BENCH_columnar.json).

Runs the affected benches twice — WUW_COLUMNAR=0 (row-at-a-time) and
WUW_COLUMNAR=1 (vectorized) — and assembles one JSON report:

  * micro_parallel_kernels / micro_engine: per-benchmark cpu time and the
    row/vec speedup;
  * exp1_q3_view_strategies / exp4_vdag_strategies: end-to-end wall time of
    the paper experiments through the whole maintenance pipeline;
  * kEngine counters (WUW_METRICS) from micro_parallel_kernels: per-row
    hash/compare/eval operations on the row path vs the vectorized path.
    Both sides count their per-row key work: the row kernels' Value hashes
    and compares against the vec kernels' typed key mixes and key
    compares, plus any residual Value-level work.  The ratio says how much
    less per-row work the vectorized engine does, not how much faster it
    runs; the wall times above say that.

Usage: python3 tools/columnar_bench.py [build_dir] [out_json]
       (defaults: build-rel BENCH_columnar.json)
"""

import datetime
import json
import os
import subprocess
import sys
import tempfile
import time

MICRO_BENCHES = ["micro_parallel_kernels", "micro_engine"]
EXP_BENCHES = ["exp1_q3_view_strategies", "exp4_vdag_strategies"]
MIN_TIME = "0.1"
# The counters that represent per-row work on each path.  engine.row.*
# may still fire under WUW_COLUMNAR=1 when a shape falls back to the row
# kernel, so both families are summed on both runs.  A typed key mix or key
# compare is the vec kernels' counterpart of a row Value hash or compare.
ROW_OP_COUNTERS = (
    "engine.row.expr_evals",
    "engine.row.value_hashes",
    "engine.row.value_cmps",
)
VEC_OP_COUNTERS = (
    "engine.vec.value_hashes",
    "engine.vec.value_cmps",
    "engine.vec.code_evals",
    "engine.vec.key_mixes",
    "engine.vec.key_cmps",
)


def run_gbench(binary, columnar, min_time=MIN_TIME):
    """Runs one google-benchmark binary, returns {name: cpu_time_ms}."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    print(f"running {binary} (WUW_COLUMNAR={columnar})", flush=True)
    env = dict(os.environ, WUW_COLUMNAR=columnar)
    subprocess.run(
        [
            binary,
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
            f"--benchmark_min_time={min_time}",
        ],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(out_path) as f:
        try:
            report = json.load(f)
        except json.JSONDecodeError as e:
            raise RuntimeError(f"{binary} wrote no benchmark JSON") from e
    os.unlink(out_path)
    times = {}
    for b in report["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[b["time_unit"]]
        times[b["name"]] = round(b["cpu_time"] * scale, 3)
    return times


def run_wall(binary, columnar):
    """Runs an experiment harness once, returns wall seconds (these are
    whole-pipeline tables, not google-benchmark binaries)."""
    print(f"running {binary} (WUW_COLUMNAR={columnar})", flush=True)
    env = dict(os.environ, WUW_COLUMNAR=columnar)
    start = time.monotonic()
    subprocess.run([binary], env=env, check=True, stdout=subprocess.DEVNULL)
    return round(time.monotonic() - start, 2)


def run_counters(binary, columnar):
    """Runs `binary` with WUW_METRICS armed, returns {counter: value}."""
    with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as tmp:
        out_path = tmp.name
    env = dict(os.environ, WUW_COLUMNAR=columnar, WUW_METRICS=out_path)
    subprocess.run(
        [binary, f"--benchmark_min_time={MIN_TIME}"],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    counters = {}
    with open(out_path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                counters[parts[0]] = int(parts[1])
    os.unlink(out_path)
    return counters


def speedups(row, vec):
    return {
        name: round(row[name] / vec[name], 2)
        for name in row
        if name in vec and vec[name] > 0
    }


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build-rel"
    out_json = sys.argv[2] if len(sys.argv) > 2 else "BENCH_columnar.json"
    report = {
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "num_cpus": os.cpu_count(),
            "build_dir": build,
            "min_time_s": MIN_TIME,
            "note": "row = WUW_COLUMNAR=0, vec = WUW_COLUMNAR=1; "
            "cpu times in ms",
        }
    }
    for bench in MICRO_BENCHES:
        binary = os.path.join(build, "bench", bench)
        row = run_gbench(binary, "0")
        vec = run_gbench(binary, "1")
        report[bench] = {"row": row, "vec": vec, "speedup": speedups(row, vec)}
    for bench in EXP_BENCHES:
        binary = os.path.join(build, "bench", bench)
        row = run_wall(binary, "0")
        vec = run_wall(binary, "1")
        report[bench] = {
            "row_wall_s": row,
            "vec_wall_s": vec,
            "speedup": round(row / vec, 2) if vec else None,
        }

    row_counters = run_counters(
        os.path.join(build, "bench", MICRO_BENCHES[0]), "0"
    )
    vec_counters = run_counters(
        os.path.join(build, "bench", MICRO_BENCHES[0]), "1"
    )
    keep = lambda c: {
        k: v for k, v in c.items() if k.startswith("engine.")
    }
    row_ops = sum(row_counters.get(k, 0) for k in ROW_OP_COUNTERS)
    vec_ops = sum(
        vec_counters.get(k, 0) for k in ROW_OP_COUNTERS + VEC_OP_COUNTERS
    )
    report["value_op_counters"] = {
        "workload": MICRO_BENCHES[0],
        "row": keep(row_counters),
        "vec": keep(vec_counters),
        "row_value_ops": row_ops,
        "vec_value_ops": vec_ops,
        "reduction_factor": round(row_ops / vec_ops, 2) if vec_ops else None,
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {out_json}")
    factor = report["value_op_counters"]["reduction_factor"]
    print(f"per-row op reduction (row/vec): {factor}x")


if __name__ == "__main__":
    main()
