"""mpfc benchmark: run one workload for a given time and print its metrics.

    python3 bench/run.py --workload disk-meanshift-brakke --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, each round
in a fresh process (``round.py``) with the numeric libraries held to one
thread, and reports the median over rounds; set-up time is also sampled by
set-up-only processes between rounds.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` rounds alternate
untraced and traced, the metrics are the per-layer ones, and
``tracing.overhead_step_ms`` is the traced minus the untraced median step
time.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-round results go to
``bench/out/result-<workload>.json`` and the spans of each traced round to
``bench/out/spans-<workload>-r<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150
# Set-up is about a second, mostly the scipy import, and varies by 10-20%
# between processes, so each round is followed by a set-up-only process and
# setup_s is the median over all of them.
SETUP_PROBES = 1
ONE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def spawn_round(workload: str, seed: int, traced: bool, k: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", str(OUT / f"work-{workload}")]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-r{k}.json")]
    if setup_only:
        cmd += ["--setup-only"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env={**os.environ, **ONE_THREAD},
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round {k} of {workload} exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    report = json.loads(lines[-1])
    report["traced"] = traced
    return report


def layer_value(rounds: list[dict], name: str) -> float:
    func, field = name.rsplit(".", 1)
    return statistics.median(r["layers"].get(func, {}).get(field, 0) for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mpfc" / "__init__.py").is_file():
        print(f"no mpfc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{args.workload}-r*.json"):
        old.unlink()

    rounds: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            rep = spawn_round(args.workload, args.seed, traced, len(rounds))
            if not args.trace:
                setups += [spawn_round(args.workload, args.seed, False, len(rounds), True)["setup_s"]
                           for _ in range(SETUP_PROBES)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
        rounds.append(rep)
        timing = " ".join(f"{k}={rep[k]:.6g}" for k in ("setup_s", "step_ms", "wall_s") if k in rep)
        bad = [c["name"] for c in rep["checks"] if not c["ok"]]
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: {timing} "
              f"failed={rep['failed']}/{rep['attempted']} checks={'FAILED ' + ','.join(bad) if bad else 'ok'}")
        if time.monotonic() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    timed = [r for r in rounds if "step_ms" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain or (args.trace and len(plain) == len(timed)):
        print("no round produced timings", file=sys.stderr)
        return 1
    metrics = {}
    if args.trace:
        traced_rounds = [r for r in timed if r["traced"]]
        for m in spec["per_layer"]:
            if m["name"] == "tracing.overhead_step_ms":
                value = (statistics.median(r["step_ms"] for r in traced_rounds)
                         - statistics.median(r["step_ms"] for r in plain))
            else:
                value = layer_value(traced_rounds, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        setups += [r["setup_s"] for r in plain]
        for m in spec["end_to_end"]:
            values = setups if m["name"] == "setup_s" else [r[m["name"]] for r in plain]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    result = {
        "correct": len(timed) == len(rounds) and all(c["ok"] for r in rounds for c in r["checks"]),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(
        {"args": vars(args), "rounds": rounds, "setup_probes": setups, "result": result}, indent=1
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
