"""The benchmark's tracer still finds every layer it times.

``perfbench/tracing.py`` patches names the package looks up across
module boundaries and reports a name it cannot find as absent, never
failing. A refactor that moves or renames a traced name would blind
that layer silently; this test makes it fail here instead.
"""

import types
from pathlib import Path

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
