"""Baseband OFDM simulation with subcarrier pulse shaping.

Quantifies pulse crosscorrelation, worst-case PAPR, PAPR CCDF and
M-QAM bit-error rate over AWGN for a family of subcarrier pulse shapes.
"""

from .analysis import (
    CcdfCurve,
    PulseMetrics,
    XcorrCurve,
    ccdf_empirical,
    max_papr,
    papr,
    pulse_metrics,
    q_function,
    reference_ccdf,
    theoretical_ber,
    xcorr_curve,
)
from .errors import PaprShaperError
from .harness import (
    BerPoint,
    SweepPlan,
    run_ber_point,
    run_ber_sweep,
    run_xcorr_report,
    wilson_interval,
)
from .modem import (
    Constellation,
    GramMatrix,
    OfdmConfig,
    SampledWaveform,
    add_awgn,
    build_constellation,
    demap_symbols,
    map_bits,
)
from .pulses import (
    PulseDescriptor,
    PulseFamily,
    SampledPulse,
    SamplingGrid,
    normalize_pulse,
    pulse_energy,
    sample_pulse,
)

__version__ = "0.1.0"
