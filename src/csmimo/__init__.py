"""Link-level simulator for compressive-sensing based MIMO multiplexing."""

from .analysis import UniquenessReport, rip_constant, spark, verify_uniqueness
from .channel import ChannelRealization, NoiseSpec, apply_channel, sample_channel
from .csmux import (
    MeasurementMatrix,
    MuxConfig,
    gen_phi,
    identity_phi,
    multiplex,
    transmit_gain,
)
from .detection import (
    Codebook,
    RecoveryResult,
    demux,
    recover_subblock_omp,
    sensing_matrix,
    zf_equalize,
)
from .dictionary import build_dictionary
from .errors import (
    BadSubblockShape,
    CsmimoError,
    DictionaryTooLarge,
    DimensionMismatch,
    IndivisibleBitLength,
    RankDeficientChannel,
    TooManyColumns,
)
from .harness import (
    ExperimentSpec,
    SweepResult,
    SweepRow,
    TrialRecord,
    load_spec,
    run_sweep,
    run_trial,
    throughput_proxy,
    wilson_interval,
)
from .modem import Constellation, demodulate, get_constellation, modulate

__version__ = "0.1.0"
