"""Self-test of the benchmark: every workload at reduced length.

    python3 perfbench/selftest.py

Checks that an untraced run reports exactly the end-to-end metrics of
BENCHMARK.json with their units and no wrong verdict, that a traced run
reports exactly the per-layer metrics with their units, and that one verdict
per pass turned against its known answer raises ``wrong_share``. The
algebraization workload keeps its fixed checks (about 20 s) and only checks
fewer axioms. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SCALE = {"consequence": 0.02, "algebraization": 0.02, "institutions": 0.25}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    expect(per_layer == {n: run.per_layer_unit(n) for n in run.per_layer_names()},
           "per-layer metrics in BENCHMARK.json differ from the ones the traced run reports")
    for workload in run.WORKLOADS:
        scale = SCALE[workload]
        plain = run.measure(workload, 3, 0, trace=False, scale=scale)
        result = plain["result"]
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {set(result)}")
        expect(units(result) == end_to_end, f"{workload}: end-to-end metrics {units(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload}: {result['failed']} wrong of {result['attempted']}: {plain['errors']}")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: a metric is not positive")

        traced = run.measure(workload, 3, 0, trace=True, scale=scale)["result"]
        expect(units(traced) == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        expect(traced["correct"], f"{workload}: traced run has wrong verdicts")

        flipped = run.measure(workload, 3, 0, trace=False, scale=scale, flip=True)
        expect(flipped["result"]["failed"] >= 1 and flipped["info"]["wrong_share"] > 0,
               f"{workload}: a flipped verdict left wrong_share at {flipped['info']['wrong_share']}")
        print(f"ok {workload}: {result['attempted']} operations, "
              f"flipped run wrong_share {flipped['info']['wrong_share']:.3g}")

    cli = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "institutions", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--scale", "0.25"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    expect(cli.returncode == 0, f"run.py exited with {cli.returncode}: {cli.stderr[-500:]}")
    last = json.loads(cli.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"run.py printed {last}")
    print("ok command line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
