#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark: its checks are not vacuous.

    python3 wallbench/selftest.py

Runs every workload at a tiny size and asserts that
  * every end-to-end metric (tracing off) and every per-layer metric
    (tracing on) in BENCHMARK.json prints with its unit, and the
    workload-specific names print as `metric` lines;
  * digests, the quantized test error and the modelled UV reductions repeat
    exactly across two runs with one seed;
  * a corrupted reference (golden outputs, weight digest or reference
    summary) makes the run fail: non-zero exit, `correct` false, failures
    counted.
Exits non-zero on the first class of failure it finds, after reporting all.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build-and-run wrapper next to this file)

# Names each workload prints as `metric` lines besides the shared result.
ALIASES = {
    "serve-sparse": ["req_throughput_rps", "req_latency_p50_us", "req_latency_p99_us"],
    "batch-dense": ["batch_samples_per_s", "batch_latency_p50_us", "batch_latency_p99_us"],
    "train-basic": ["train_steps_per_s", "test_error_pct"],
    "model-capacity": [
        "sim_samples_per_s",
        "serve_sim_requests_per_s",
        "frontend_sim_requests_per_s",
        "uv_cycle_reduction_pct",
        "uv_energy_reduction_pct",
    ],
}
COMMON = ["failed_frac", "setup_s", "peak_rss_mb", "op_p50_us", "op_samples"]
# Lines that must repeat exactly across runs with one seed, on the
# workloads that print them.
REPEATING = ("digest ", "metric test_error_pct", "metric uv_")
DETERMINISTIC = ("train-basic", "model-capacity")


def invoke(binary, workload, trace, extra=()):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, lines, result


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    if binary is None:
        return 1
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = invoke(binary, w, trace)
            expect(code == 0 and result is not None and result["correct"], f"{w} trace={trace} passes")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{w} trace={trace} prints every {key} metric with its unit")
            if trace == 0:
                printed = {l.split()[1] for l in lines if l.startswith("metric ")}
                missing = [n for n in ALIASES[w] + COMMON if n not in printed]
                expect(not missing, f"{w} prints its named metrics {missing or ''}")
                if w in DETERMINISTIC:
                    again = invoke(binary, w, 0)[1]
                    rep = lambda ls: [l for l in ls if l.startswith(REPEATING)]
                    same = rep(lines) and rep(lines) == rep(again)
                    expect(bool(same), f"{w} digests and modelled figures repeat exactly")
        code, _, result = invoke(binary, w, 0, ["--corrupt-reference"])
        failed = result is not None and not result["correct"] and result["failed"] > 0
        expect(code != 0 and failed, f"{w} fails against a corrupted reference")

    print(f"{len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
