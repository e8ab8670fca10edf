"""Link-level simulator for compressive-sensing based MIMO multiplexing."""

from .analysis import UniquenessReport, rip_constant, spark, verify_uniqueness
from .channel import ChannelRealization, NoiseSpec, apply_channel, sample_channel
from .csmux import (
    MeasurementMatrix,
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
    SpecError,
    TooManyColumns,
)
from .harness import (
    SweepResult,
    SweepRow,
    TrialRecord,
    run_sweep,
    run_trial,
    throughput_proxy,
    wilson_interval,
)
from .modem import Constellation, demodulate, get_constellation, modulate
from .spec import ExperimentSpec, MuxConfig, load_spec

__version__ = "0.1.0"
