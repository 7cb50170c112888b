"""benq: data-free weight quantization with log-uniform codebooks,
plus first-digit (Benford) compliance analysis of checkpoints."""

__version__ = "0.1.0"

from .errors import BenqError, ConfigError, DataError, FormatError
from .levels import (BENFORD_PROBS, DEFAULT_EPSILON, Codebook, Schedule,
                     benford_probability, generate_linear_levels,
                     generate_log_uniform_levels, make_codebook)
from .benford import (DigitHistogram, DigitReport, Family, ModelReport,
                      classify_family, digit_histogram, first_digit,
                      mad_from_probs, mad_score, model_report, signed_deviations)
from .quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, ModelQuantization,
                        QuantConfig, QuantPolicy, QuantizedTensor, apply_policy,
                        dequantize, nearest_level_indices, quantize_tensor)
from .metrics import DistortionReport, compare_schedules, distortion
from .io import (WeightTensor, pack_indices, read_benq, read_container,
                 unpack_indices, write_benq, write_container)
from .synth import SynthSpec, parse_spec, synth_tensor

__all__ = [
    "BenqError", "ConfigError", "DataError", "FormatError",
    "BENFORD_PROBS", "DEFAULT_EPSILON", "Codebook", "Schedule",
    "benford_probability", "generate_linear_levels", "generate_log_uniform_levels",
    "make_codebook",
    "DigitHistogram", "DigitReport", "Family", "ModelReport", "classify_family",
    "digit_histogram", "first_digit", "mad_from_probs", "mad_score",
    "model_report", "signed_deviations",
    "DEFAULT_POLICY", "QUANTIZE_ALL", "ModelQuantization", "QuantConfig",
    "QuantPolicy", "QuantizedTensor", "apply_policy", "dequantize",
    "nearest_level_indices", "quantize_tensor",
    "DistortionReport", "compare_schedules", "distortion",
    "WeightTensor", "pack_indices", "read_benq", "read_container",
    "unpack_indices", "write_benq", "write_container",
    "SynthSpec", "parse_spec", "synth_tensor",
]
