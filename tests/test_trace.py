"""The benchmark's tracer still finds every layer it times.

``perfbench/tracing.py`` patches names the package looks up across
module boundaries and reports a name it cannot find as absent, never
failing. A refactor that moves or renames a traced name would blind
that layer silently; this test makes it fail here instead.
"""

import types
from pathlib import Path

import numpy as np

from helpers import cfg_for
from papr_shaper.analysis import ccdf_empirical
from papr_shaper.harness import run_ber_point

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# names the tracer lists that the package no longer has
KNOWN_ABSENT = [
    "papr_shaper.cli.xcorr_curve",
    "papr_shaper.modem.ModemKernel.solve_zf",
    "papr_shaper.modem.GramMatrix.condition",
]


def load_tracing():
    # compiled from its source, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_tracer_finds_every_traced_name():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.absent == KNOWN_ABSENT
    finally:
        tracer.uninstall()


def test_uniform_spans_count_frames_and_draws():
    # seeding.draws_per_frame and the per-frame figures divide by these counts
    tracer = load_tracing().Tracer()
    cfg = cfg_for(N=3, M=8)
    try:
        tracer.install()
        run_ber_point(cfg, 10.0, target_errors=10**6, max_frames=100, seed=2)
        ber = len(tracer.spans)
        ccdf_empirical(cfg, 70, seed=3, gamma_db=np.array([0.0]))
    finally:
        tracer.uninstall()
    for spans, frames, draws in (
        (tracer.spans[:ber], 100, cfg.bits_per_frame + 2 * 3),
        (tracer.spans[ber:], 70, 3),
    ):
        counts = [s.counts for s in spans if s.name == "seeding.trial_uniforms"]
        assert sum(c["items"] for c in counts) == frames
        assert all(c["draws"] == c["items"] * draws for c in counts)
