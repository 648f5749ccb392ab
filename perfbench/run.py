"""papr-shaper benchmark: fixed CLI campaigns timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts PROCESSES fresh worker processes one after
another. Each sets up (import, config parse, cold kernel build) and then
runs the workload's campaign through ``papr_shaper.cli.main`` until it
has spent its share of ``--seconds`` on campaigns, at least once. The
metrics are medians over all set-ups and all campaigns. With
``--trace 1`` one untraced and one traced worker share the time, and
the per-layer metrics of the traced one are reported instead.

Every campaign's output goes through the oracles in oracles.py, and its
SHA-256 digests and exact counts must repeat across campaigns, workers
and runs of the same source and seed. The last line of standard output
is the result; the line before it is the full record, stamped with the
source, libraries and machine it ran on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROCESSES = 3
DEADLINE_S = 170.0
# Per-layer counts that must repeat exactly for the same source and seed.
EXACT = {n for n, unit, _ in PER_LAYER if unit in ("count", "bytes")} - {"trace.absent_spans"}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _spawn(args, trace: bool, budget: float, outdir: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)), "--budget", repr(budget),
           "--outdir", str(outdir),
           "--spawned-at"]
    cmd.append(repr(time.monotonic()))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_repeats(key: str, digest: dict, counters: dict) -> list[str]:
    """Digests and counters must match every earlier run of this source
    and seed in this checkout; the first run records them."""
    problems = []
    path = OUT / "records.json"
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = {}
    old = records.get(key, {})
    if old.get("digests", digest) != digest:
        problems.append("output digests differ from an earlier run")
    for name in sorted(set(old.get("counters", {})) & set(counters)):
        if old["counters"][name] != counters[name]:
            problems.append(f"counter {name} was {old['counters'][name]}, now {counters[name]}")
    if not problems:
        records[key] = {"digests": digest, "counters": {**old.get("counters", {}), **counters}}
        tmp = path.with_suffix(f".{os.getpid()}")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "papr_shaper" / "cli.py").is_file():
        print(f"error: no papr_shaper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"run-{os.getpid()}"
    plan = [False, True] if args.trace else [False] * PROCESSES
    try:
        workers = [
            _spawn(args, trace, args.seconds / len(plan), run_dir / f"w{i}", deadline)
            for i, trace in enumerate(plan)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    traced = [w for w in workers if "layers" in w]
    plain = [w for w in workers if "layers" not in w]
    campaign_s = [t for w in plain for t in w["campaign_s"]]
    digests = []
    for w in workers:
        digests += [d for d in w["digests"] if d not in digests]
    works = {x for w in workers for x in w["work"]}
    sizes = {x for w in workers for x in w["csv_bytes"]}
    counters = {"work_per_campaign": min(works), "csv_bytes": min(sizes)}
    for w in traced:
        counters.update({n: v for n, v in w["layers"].items() if n in EXACT})
    problems = [f"{n} varies: {sorted(v)}" for n, v in (("work", works), ("csv_bytes", sizes)) if len(v) != 1]
    if len(digests) != 1:
        problems.append(f"{len(digests)} distinct sets of output digests")
    src_sha = _src_sha256()
    problems += _check_repeats(f"{src_sha}:{args.workload}:{args.seed}", digests[0], counters)

    median = statistics.median
    if args.trace:
        layers = traced[0]["layers"]
        metrics = {n: {"value": layers[n], "unit": unit} for n, unit, _ in PER_LAYER if n in layers}
        overhead = median(traced[0]["campaign_s"]) - median(campaign_s)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.absent_spans"] = {"value": len(traced[0]["absent"]), "unit": "count"}
    else:
        metrics = {
            "campaign_s": {"value": median(campaign_s), "unit": "s"},
            "setup_s": {"value": median(w["setup_s"] for w in workers), "unit": "s"},
            "peak_rss_mb": {"value": median(w["rss_mb"] for w in workers), "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": {
            "commit": _git_head(),
            "src_sha256": src_sha,
            "python": sys.version.split()[0],
            **workers[0]["versions"],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        },
        "processes": len(workers),
        "traced": [bool("layers" in w) for w in workers],
        "campaign_s": [w["campaign_s"] for w in workers],
        "setup_s": [w["setup_s"] for w in workers],
        "rss_mb": [w["rss_mb"] for w in workers],
        "counters": counters,
        "work_per_s": counters["work_per_campaign"] / median(campaign_s),
        "digests": digests[0],
        "absent_spans": traced[0]["absent"] if traced else [],
        "problems": problems,
        "failures": [f for w in workers for f in w["failures"]][:10],
    }
    for line in problems + record["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(record))
    failed = sum(w["failed"] for w in workers)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
