"""Simulation toolkit for OFDM sensing waveforms under amplifier clipping.

Builds multicarrier frames over selectable signaling bases, pushes them
through a soft envelope limiter, and measures the consequences for the
ambiguity function, range-Doppler processing, and CFAR detection, alongside
the matching closed-form clipping analysis.
"""

__version__ = "0.1.0"

from .ambiguity import (
    AfMode,
    AmbiguitySurface,
    SidelobeMetrics,
    aaf,
    average_af,
    cross_af,
    paf,
    sidelobe_metrics,
    to_db,
    zero_delay_cut,
    zero_doppler_cut,
)
from .analytic import (
    BussgangAfTerms,
    ClipProbabilities,
    bussgang_af_decompose,
    clip_probabilities,
    expected_zero_doppler_bussgang,
    joint_below_prob,
    lag_correlation,
    sel_eisl,
    sel_zero_delay_cut,
    sel_zero_doppler_cut,
)
from .channel import ChannelConfig, Target, add_noise, apply_channel
from .detect import (
    CfarConfig,
    DetectionReport,
    PdCurve,
    PdPipeline,
    calibrate_cfar,
    pd_experiment,
    so_cfar,
)
from .errors import CalibrationError, ConfigError, IsacError, NumericError
from .experiments import ExperimentConfig, RunManifest, list_scenarios, run_scenario
from .pa import (
    BussgangStats,
    PaConfig,
    backoff_coefficient,
    estimate_bussgang,
    kappa_gaussian,
    limiter_compression_power,
    output_power_gaussian,
    sdr,
    sel_amplify,
    snr_eff,
)
from .radar import Periodogram, division_filter, periodogram, snr_per
from .signaling import (
    BasisKind,
    ConstellationSpec,
    FrameConfig,
    Scheme,
    SignalingBasis,
    add_cp,
    analyze,
    draw_symbols,
    parse_basis,
    parse_constellation,
    synthesize,
)
