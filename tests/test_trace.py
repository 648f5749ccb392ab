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
    "papr_shaper.seeding.uniforms_to_bits",
    "papr_shaper.seeding.uniforms_to_indices",
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
    # seeding.draws_per_frame and the per-frame figures divide by these
    # counts; a BER frame draws its 2N noise uniforms there, and its labels,
    # like a PAPR or CCDF trial's, come from seeding.trial_labels, untraced
    tracer = load_tracing().Tracer()
    cfg = cfg_for(N=3, M=8)
    try:
        tracer.install()
        run_ber_point(cfg, 10.0, target_errors=10**6, max_frames=100, seed=2)
        ber = len(tracer.spans)
        ccdf_empirical(cfg, 70, seed=3, gamma_db=np.array([0.0]))
    finally:
        tracer.uninstall()
    counts = [s.counts for s in tracer.spans[:ber] if s.name == "seeding.trial_uniforms"]
    assert sum(c["items"] for c in counts) == 100
    assert all(c["draws"] == c["items"] * 2 * 3 for c in counts)
    assert [s.name for s in tracer.spans[ber:] if s.name.startswith("seeding.")] == []
