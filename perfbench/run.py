"""The aalogic benchmark: three seeded workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload consequence --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every cache in aalogic lives at module level, so a second pass in one process
would measure warm caches that a command-line user never has. Each pass
therefore runs in its own process (perfbench/worker.py), one at a time, with
PYTHONHASHSEED derived from the seed because the intuitionistic prover's
search order depends on set iteration order.

With ``--trace 0`` a run makes a few set-up-only processes, then passes until
the next one would overrun ``--seconds`` (at least one), and reports the
median of each end-to-end metric. With ``--trace 1`` it alternates untraced
and traced passes and reports per-layer metrics from the traced ones, with
the tracing overhead (traced minus untraced ``wall_s``). End-to-end times
are scaled to a reference machine speed (``worker.speed``). The last line of
stdout is one JSON object; the lines above it are a readable table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("consequence", "algebraization", "institutions")
SETUP_PROBES = 5             # set-up-only processes per untraced run
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170            # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
CACHES = ("syntax.intern_nodes", "provers.sequent_memo_entries",
          "algebra.theorem_cache_entries", "glivenko.adjoint_cache_entries")


def per_layer_names() -> list[str]:
    names = [f"{span}.{field}" for span in spans.span_names() for field in ("calls", "total_s", "self_s")]
    return names + spans.counter_names() + list(CACHES) + ["trace.spans", "trace.overhead_s"]


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class PassFailed(RuntimeError):
    pass


def pass_seed(seed: int, index: int) -> int:
    """The seed of the index-th pass of a run: it fixes the pass's inputs
    and its PYTHONHASHSEED."""
    return random.Random(f"{seed}:{index}").randrange(2**32)


def run_pass(request: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(request["seed"]), PYTHONPATH=str(ROOT / "src"))
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a {request['workload']} pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"a {request['workload']} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            flip: bool = False) -> dict:
    """One run of a workload: the result object of the benchmark contract
    under ``"result"``, with what the readable rows add under ``"info"``."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    index = itertools.count()

    def request(**extra):
        return {"workload": workload, "seed": pass_seed(seed, next(index)), "scale": scale,
                "flip": flip, **extra}

    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_pass(request(setup_only=True), deadline)["setup_s"])
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t = time.monotonic()
        inputs = request()
        plain.append(run_pass(inputs, deadline))
        if trace:
            traced.append(run_pass({**inputs, "trace": True}, deadline))
        spent = time.monotonic() - t
        if time.monotonic() - started + spent > seconds:
            break
    passes = plain + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["wrong"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    info = {
        "passes": len(plain),
        "wrong_share": failed / attempted,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "speed": statistics.median(p["speed"] for p in plain),
        "oracle_undecided": sum(p["undecided"] for p in passes),
        **{k: statistics.median_low(p["caches"][k] for p in plain) for k in CACHES},
        **{f"first_pass.{k}": v for k, v in plain[0]["info"].items()},
    }
    errors = [e for p in passes for e in p["errors"]]
    if trace:
        samples = [{**t["layers"], **t["caches"], "trace.overhead_s": t["wall_s"] - p["wall_s"]}
                   for p, t in zip(plain, traced)]
        metrics = {}
        for name in per_layer_names():
            unit = per_layer_unit(name)
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": median(s[name] for s in samples), "unit": unit}
    else:
        setups += [p["setup_s"] for p in plain]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in plain),
            "query_p50_ms": statistics.median(p["query_p50_ms"] for p in plain),
            "query_p99_ms": statistics.median(p["query_p99_ms"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result["metrics"] = metrics
    return {"result": result, "info": info, "errors": errors}


def rows(workload: str, run: dict, trace: bool) -> list[str]:
    """One row of end-to-end metrics per workload, or one line per
    per-layer metric; then wrong_share, cache sizes and input properties."""
    named = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in run["result"]["metrics"].items()]
    named.append(f"wrong_share {run['info']['wrong_share']:.6g} ratio")
    named += [f"{k} {v}" for k, v in run["info"].items() if k != "wrong_share"]
    if trace:
        lines = [f"[{workload}] {cell}" for cell in named]
    else:
        lines = [f"[{workload}] " + " | ".join(named)]
    return lines + [f"[{workload}] error: {e}" for e in run["errors"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the self-test uses a small value)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aalogic" / "__init__.py").is_file():
        print(f"no aalogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        try:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
        except PassFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(rows(workload, run, bool(args.trace))), flush=True)
        results[workload] = run["result"]
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
