#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke size and asserts that:
  * the last stdout line is the result object, with every end-to-end
    metric (--trace 0) or every per-layer metric (--trace 1) under its
    unit, and the outputs pass their check;
  * the output check fails when the reference is perturbed;
  * a forced shed on serve_4clients is counted as a failure;
  * in a directory holding only BENCHMARK.json and perfbench/, the run
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, root=ROOT):
    cmd = ["python3", os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            check(code == 0 and result is not None,
                  f"{workload} trace={trace}: exits 0 with a result"
                  + ("" if code == 0 else "\n" + err[-2000:]))
            if result is None:
                continue
            check(set(result) == RESULT_KEYS,
                  f"{workload} trace={trace}: result keys")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want,
                  f"{workload} trace={trace}: every {kind} metric with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  f"{workload} trace={trace}: numeric values")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: outputs pass their check")

        code, result, _ = run(workload, 0, "--perturb-reference")
        check(code == 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{workload}: a perturbed reference fails the output check")

    code, result, _ = run("serve_4clients", 0, "--force-shed")
    check(code == 0 and result is not None and result["attempted"] >= 1
          and result["failed"] == result["attempted"],
          "serve_4clients: forced sheds are counted as failed")
    code, result, _ = run("serve_4clients", 1, "--force-shed")
    check(result is not None
          and result["metrics"]["serve.shed"]["value"] >= 1,
          "serve_4clients: forced sheds show in serve.shed")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run(bench["workloads"][0]["name"], 0, root=bare)
    check(code != 0 and result is None,
          "bare benchmark directory: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
