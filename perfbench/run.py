"""Run one csmimo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ml-fixed --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``csmimo`` from ``src/`` there.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` measures the per-layer metrics from traced rounds
alternated with untraced ones.  ``--seed`` is the sweeps' ``master_seed``;
at the pinned seed every sweep's CSV must match ``perfbench/pinned.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (sweep calls) and ``metrics``.  The
lines before it give each metric with its unit, the CSV hash of each sweep
and the provenance of the run, which also go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh processes timed per run; setup_s is the median of their times.
SETUP_SAMPLES = 9

# Times the import and the spec loading, then measures the machine speed
# right after with the probe kernel (numpy is imported by then).
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed!r})
seconds = time.perf_counter() - t0
import speed
print(seconds, speed.kernel_hz(5))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_samples(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    """Seconds to import csmimo and build the workload's specs, and the probe
    kernel's rate just after, in each of ``n`` fresh processes."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=workload, seed=seed)
    samples = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, hz = done.stdout.split()
        samples.append((float(seconds), float(hz)))
    return samples


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the package source, which identifies the code in a non-git checkout."""
    digest = hashlib.sha256()
    pkg = SRC / "csmimo"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "csmimo" / "__init__.py").is_file():
        print(f"run.py: no csmimo package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csmimo

    if not Path(csmimo.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported csmimo from {csmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2

    info = provenance(args)
    setup = [] if args.trace else setup_samples(args.workload, args.seed, SETUP_SAMPLES)
    specs = workloads.build(args.workload, args.seed)
    measure.warm_up(specs)
    if args.trace:
        rounds = measure.alternating_rounds(specs, args.seconds)
    else:
        rounds = measure.timed_rounds(specs, args.seconds)
    attempted, failed, problems = measure.check(
        rounds, measure.pinned_hashes(args.workload, args.seed)
    )
    if args.trace:
        values = measure.per_layer(rounds, specs)
        wanted = declared["per_layer"]
    else:
        values = measure.end_to_end(rounds, setup, attempted, failed)
        wanted = declared["end_to_end"]
    info["loadavg_end"] = os.getloadavg()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "provenance": info,
        "sweeps": [
            {"spec": spec.notation + f" {spec.config.constellation} {spec.solver}"
                     f" {spec.baseline or 'none'}",
             "sha256": sweep.sha256, "trials": sweep.trials, "redraws": sweep.redraws}
            for spec, sweep in zip(specs, rounds[0].sweeps)
        ],
        "rounds": [
            {"traced": r.summary is not None, "wall_ns": r.wall_ns, "trials": r.trials,
             "speed_hz": r.speed_hz}
            for r in rounds
        ],
        "setup_samples": [{"seconds": t, "speed_hz": hz} for t, hz in setup],
        "spans": [r.summary for r in rounds if r.summary is not None],
        "metrics": metrics,
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds"
          f" ({len(record['spans'])} traced), sweep_fail_frac {failed / attempted}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!r:>24} {m['unit']}")
    for entry in record["sweeps"]:
        print(f"# sweep {entry['spec']}: trials {entry['trials']} sha256 {entry['sha256']}")
    print("# provenance " + json.dumps(info))
    print(f"# record {out_file.relative_to(ROOT)}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
