"""benq: data-free weight quantization with log-uniform codebooks,
plus first-digit (Benford) compliance analysis of checkpoints."""

__version__ = "0.1.0"

from .errors import BenqError, ConfigError, DataError, FormatError
from .benford import digit_histogram, mad_score
from .quantizer import QuantConfig, QuantPolicy, apply_policy, dequantize, quantize_tensor

__all__ = [
    "BenqError", "ConfigError", "DataError", "FormatError",
    "digit_histogram", "mad_score",
    "QuantConfig", "QuantPolicy", "apply_policy", "dequantize", "quantize_tensor",
]
