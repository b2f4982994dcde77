"""Sparse radar range estimation from dithered, severely quantized measurements.

Pipeline: a K-sparse complex range profile is observed through a partial
Fourier operator, dithered, and quantized down to as little as 1 bit per
I/Q component; PBP and QIHT estimate the profile back from the quantized
bits.  A Monte Carlo harness sweeps sparsity, bit depth, and total bit-rate
and scores support recovery.
"""

from .ambiguity import (
    AmbiguousPair,
    ambiguity_holds,
    ambiguity_report,
    build_pair,
    check_margin,
    quadrant_margin,
)
from .evaluation import (
    AggregateResult,
    ExperimentConfig,
    GridPoint,
    TrialOutcomes,
    run_grid,
    run_trial,
)
from .io import Capture, config_to_json, parse_config, read_capture, write_capture, write_results
from .quantization import (
    Dither,
    QuantizerConfig,
    adapted_quantizer,
    draw_dither,
    dynamic_range_for,
    quantize_complex,
    sense,
)
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    StopReason,
    consistency,
    hard_threshold,
    pbp,
    qiht,
)
from .seeding import derive_seed, generator
from .signal_model import (
    RadarParams,
    RangeProfile,
    SamplingPlan,
    adjoint,
    bin_number,
    bin_to_range,
    forward,
    make_sampling_plan,
    random_profile,
)

__version__ = "0.1.0"
