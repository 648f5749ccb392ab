"""Baseband OFDM simulation with subcarrier pulse shaping.

Quantifies pulse crosscorrelation, worst-case PAPR, PAPR CCDF and
M-QAM bit-error rate over AWGN for a family of subcarrier pulse shapes.
"""

__version__ = "0.1.0"
