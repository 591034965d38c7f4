"""Smoke test of the benchmark itself, at the smallest job lists.

    python3 perfbench/selftest.py

For every workload it checks that a plain run prints every end-to-end
metric of BENCHMARK.json with its unit and no failure, that a traced run
prints every per-layer metric with its unit, and that a run whose recorded
expectations were all falsified (a copy of the benchmark next to a link to
this checkout's src/) reports failed jobs instead of crashing.
It also checks that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def bench(*flags, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *flags]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, wanted: list, label: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    names = {m["name"]: m["unit"] for m in wanted}
    got = res["metrics"]
    assert set(got) == set(names), f"{label}: metric names differ: {set(got) ^ set(names)}"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{label}: {name} has unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number"


def copy_benchmark(dest: Path) -> None:
    """A checkout holding only BENCHMARK.json and the benchmark."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def falsify(record: dict) -> dict:
    return {f: (v + 1 if isinstance(v, int) and not isinstance(v, bool) else "falsified")
            for f, v in record.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work"
    # a checkout whose every recorded expectation is falsified
    corrupt_root = work / "selftest-corrupt"
    copy_benchmark(corrupt_root)
    (corrupt_root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected_file = corrupt_root / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())
    expected_file.write_text(json.dumps({k: falsify(v) for k, v in expected.items()}))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            plain = result(bench("--workload", workload, "--trace", "0"))
            check_metrics(plain, spec["end_to_end"], workload)
            assert plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}"
            assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

            traced = result(bench("--workload", workload, "--trace", "1"))
            check_metrics(traced, spec["per_layer"], f"{workload} traced")
            assert traced["correct"], f"{workload} traced: {traced['failed']} failed"

            corrupt = result(bench("--workload", workload, "--trace", "0", cwd=corrupt_root))
            assert not corrupt["correct"] and corrupt["failed"] >= 1, f"{workload}: {corrupt}"
            print(f"ok {workload}: {plain['attempted']} jobs; falsified records gave "
                  f"{corrupt['failed']} failed job(s)")
    finally:
        shutil.rmtree(corrupt_root, ignore_errors=True)

    bare = work / "selftest-bare"
    copy_benchmark(bare)
    try:
        proc = bench("--workload", "weak-star", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without the library: exit code", proc.returncode)
    return 0

if __name__ == "__main__":
    sys.exit(main())
