"""One round of one workload, in a fresh process: set up, run, check, report.

Started by ``run.py``, which passes the monotonic time at which it spawned
this process, so set-up time includes interpreter start and the package
import.  With ``--setup-only`` the round stops once the initial state is
built and reports only its set-up time.  Prints one JSON object on its last stdout line.  With ``--trace 1``
every traced function's calls are recorded as spans, written to
``--spans`` when the round ends, and summed per function in the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after build_scenario and report set-up time only")
    args = ap.parse_args()

    import mpfc  # the package import is part of set-up

    if not Path(mpfc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mpfc imported from {mpfc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracer import TRACED, Tracer
    from workloads import WORKLOADS, Ledger

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        import mpfc.scenarios

        mpfc.scenarios.build_scenario(wl.prepare(args.seed, wl.size)["scenario"])
        print(json.dumps({"setup_s": time.monotonic() - args.spawned}))
        return 0
    ledger = Ledger(wl.plan(wl.size))
    # Untraced rounds still time build_scenario, the part of run_simulation
    # that counts as set-up: one call per round.
    tracer = Tracer(TRACED if args.trace else [("scenarios", "build_scenario")])
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    data = None
    try:
        with tracer.installed():
            data = wl.execute(wl.prepare(args.seed, wl.size), wl.size, workdir, ledger)
    except Exception:
        traceback.print_exc()
        ledger.abort()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"attempted": ledger.attempted, "checks": []}
    if data is not None:
        marks = ledger.marks
        build_start, build_end = tracer.first("scenarios.build_scenario")
        build_s = (build_end - build_start) / 1e9
        run_s = marks["run_end"] - marks["run_start"]
        report["setup_s"] = marks["run_start"] - args.spawned + build_s
        report["step_ms"] = (run_s - build_s) / wl.size.steps * 1e3
        report["wall_s"] = marks["last_call_end"] - args.spawned
        report["peak_rss_mb"] = peak_rss_mb
        try:
            for group, name, ok, detail in wl.verify(data):
                report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
                if not ok:
                    ledger.failed.add(group)
        except Exception:
            traceback.print_exc()
            report["checks"].append({"name": "verify", "ok": False, "detail": "checks raised"})
            ledger.failed.update(group for group, _ in ledger.plan)
    if args.trace:
        report["layers"] = tracer.layer_totals()
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    shutil.rmtree(workdir, ignore_errors=True)
    report["failed"] = ledger.failed_count
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
