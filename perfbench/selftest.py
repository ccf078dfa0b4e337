"""Fast self-test of the benchmark at tiny sizes (a few seconds per workload).

    python3 perfbench/selftest.py

Not part of the package's test suite.  It checks that every workload runs
clean in both modes, prints exactly the metrics ``BENCHMARK.json`` declares,
leaves no files behind, exits nonzero on a failed check, and refuses to run
in a checkout without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workloads(scratch: Path):
    for workload in (w["name"] for w in DECLARED["workloads"]):
        for trace in (0, 1):
            spans = scratch / f"{workload}-spans.jsonl"
            done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--size", "tiny", "--spans", str(spans))
            assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (workload, trace, set(got) ^ set(declared))
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                assert metrics["fail_frac"] == 0.0
                assert not any(v for k, v in metrics.items() if k.endswith(".errors.unexpected"))
                lines = [json.loads(line) for line in spans.read_text().splitlines()]
                assert lines and all(s["end"] >= s["start"] for s in lines)
                assert all(s["parent"] is None or s["parent"] > s["id"] for s in lines)
            else:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            print(f"ok  {workload:10s} trace={trace} attempted={result['attempted']}")
    left = sorted(p.name for p in (HERE / ".tmp").glob("run-*"))
    assert not left, f"runs left files under perfbench/.tmp: {left}"


def check_failed_check_exits_nonzero():
    sys.path.insert(0, str(HERE))
    import checks
    import run as bench

    checks.NORMAL_TOL = -1.0  # no stage solution can pass now
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bench.main(["--workload", "feedback", "--seed", "3", "--seconds", "0",
                           "--size", "tiny"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0, result
    print("ok  a failed check gives exit code 1")


def check_refuses_bare_checkout(scratch: Path):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    done = run(bare, "--workload", "synthesis", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  no package: nonzero exit, no result")


def main():
    (HERE / ".tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".tmp"))
    try:
        check_refuses_bare_checkout(scratch)
        check_workloads(scratch)
    finally:
        shutil.rmtree(HERE / ".tmp", ignore_errors=True)
    check_failed_check_exits_nonzero()


if __name__ == "__main__":
    main()
