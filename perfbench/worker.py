"""One benchmark process: set-up, then campaigns until its budget is spent.

Started by run.py, which passes the monotonic time at which it spawned
this process, so set-up time runs from process start to the first
campaign call and covers interpreter start, the ``papr_shaper`` import,
``config.parse_config`` and a cold ``modem.get_kernel`` per config.
With ``--trace 1`` set-up and every campaign are traced. Prints one JSON
line with what it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="campaign seconds to spend")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    return p.parse_args()


def _read_outputs(dirs: list[str]) -> tuple[list[dict[str, str]], dict[str, str], int]:
    """Text of every file the campaign wrote, their SHA-256 and the CSV bytes."""
    outputs, digest, csv_bytes = [], {}, 0
    for i, d in enumerate(dirs):
        files = {}
        for name in sorted(os.listdir(d)) if os.path.isdir(d) else ():
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            digest[f"c{i}/{name}"] = hashlib.sha256(data).hexdigest()
            files[name] = data.decode("utf-8")
            if name.endswith(".csv"):
                csv_bytes += len(data)
        outputs.append(files)
    return outputs, digest, csv_bytes


def main() -> int:
    args = _args()
    import papr_shaper
    from papr_shaper import cli, config, modem

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(papr_shaper.__file__).startswith(src + os.sep):
        print(f"papr_shaper imported from {papr_shaper.__file__}, not {src}", file=sys.stderr)
        return 3

    import oracles
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    invs = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    for inv in invs:
        cfg = config.parse_config("", [*inv.overrides, f"seed={args.seed}"])
        if inv.builds_kernel and hasattr(modem, "get_kernel"):
            modem.get_kernel(cfg.ofdm_config())
    setup_s = time.monotonic() - args.spawned_at
    mark = len(tracer.spans) if tracer else 0

    campaign_s, digests, works, sizes, failures = [], [], set(), set(), []
    attempted = failed = 0
    while not campaign_s or sum(campaign_s) < args.budget:
        dirs = [os.path.join(args.outdir, f"r{len(campaign_s)}", f"c{i}") for i in range(len(invs))]
        t0 = time.perf_counter()
        try:
            codes = [cli.main(inv.argv(args.seed, d)) for inv, d in zip(invs, dirs)]
            raised = None
        except Exception as exc:  # a package fault: report it as failed operations
            codes, raised = [], repr(exc)
        campaign_s.append(time.perf_counter() - t0)

        outputs, digest, csv_bytes = _read_outputs(dirs)
        shutil.rmtree(os.path.dirname(dirs[0]), ignore_errors=True)
        if raised or any(codes):
            ops, work = oracles.failed(args.workload, raised or f"exit codes {codes}"), 0
        else:
            ops, work = oracles.check(args.workload, invs, outputs)
        attempted += len(ops)
        failed += sum(not op.ok for op in ops)
        failures += [f"{op.label}: {op.detail}" for op in ops if not op.ok]
        works.add(work)
        sizes.add(csv_bytes)
        if digest not in digests:
            digests.append(digest)
    if tracer:
        tracer.uninstall()

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    result = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": sorted(works),
        "csv_bytes": sorted(sizes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "digests": digests,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas},
    }
    if tracer:
        frames_used = max(works) if args.workload.startswith("ber-") else 0
        result["absent"] = tracer.absent
        result["layers"] = layer_metrics(
            tracer.spans, mark, len(campaign_s), frames_used, max(sizes)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
