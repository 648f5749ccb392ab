"""Exception types shared across the package."""


class PaprShaperError(Exception):
    """Base class for all library errors."""


class InvalidDescriptorError(PaprShaperError):
    """Pulse descriptor has a non-finite or out-of-range parameter."""


class DegeneratePulseError(PaprShaperError):
    """Operation requires a pulse with nonzero energy."""


class ConfigError(PaprShaperError):
    """Inconsistent OFDM configuration or mismatched operands."""


class FramingError(PaprShaperError):
    """Bit sequence length is not a whole number of symbols."""


class UnsupportedOrderError(PaprShaperError):
    """Constellation order outside the supported set {4, 8, 16, 32}."""


class IllConditionedGramError(PaprShaperError):
    """Gram matrix condition estimate exceeds the zero-forcing limit."""

    def __init__(self, condition, limit):
        super().__init__(f"gram matrix condition {condition:.3e} exceeds {limit:g}")
        self.condition = condition


class SearchSpaceTooLargeError(PaprShaperError):
    """Exhaustive frame enumeration requested beyond the M**N cap."""


class PlanError(PaprShaperError):
    """Monte-Carlo plan is empty or internally inconsistent."""
