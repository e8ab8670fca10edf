"""Monte Carlo experiment driver: SNR sweeps, baselines, CSV output.

Every trial sends one channel use: fresh bits are modulated, compressed,
pushed through an independent Rayleigh draw plus AWGN, then recovered to
the point index the receiver decides for each symbol.  Its bit errors are
the label Hamming distances of the sent and decided points, read from the
constellation's table, which equal the count its demapped bits give; only
:func:`run_trial` demaps, for its record.  Trial
``t`` draws all of its randomness from the stream seeded by ``(master_seed,
t)``, so results do not depend on execution order and a trial index reuses
the same bits/channel across SNR points (common random numbers).  Sweeps
stop early at an SNR point once enough bit errors have accumulated for a
stable estimate, up to the configured trial cap.

Trials run trial-major, in chunks of consecutive indices.  Each trial draws
exactly the stream of ``default_rng([master_seed, t])`` in a fixed order:
bits, then the channel and any redraws, then the noise.  None of these
depend on the SNR, so a chunk is drawn once for every point, without a
``SeedSequence`` per trial: the chunk's seeds are hashed as
``SeedSequence`` hashes them in one numpy pass, numpy seeds each trial's
PCG64 from its hashed words, each trial's channel and noise come from one
normal draw, and one stacked inversion serves the usability check of every
channel, which takes singular values only of a channel whose Frobenius
bound on the condition number does not clear it.  A trial whose first
channel is not usable is replayed from a fresh
``default_rng([master_seed, t])``: bits, channel, redraws, then noise.
The chunk is sent through its channels once, and each point only scales
the chunk's noise and adds it (:func:`noisy`).
Each SNR point still running then walks the chunk in slices of its own
size.  The slices run in passes: a pass stacks the next slice of every
point still walking the chunk, up to the working-set budget, and runs the
same receiver functions a single trial uses once on the stack, so every
decision is bit for bit the one-at-a-time result.  A pass's channels are
a slice or gathered rows of the chunk's :class:`ChannelRealization` and
share what it caches (the pseudo-inverse and usability flags for ZF, the
QR for the ``oneshot`` search), so each is made once per chunk.  A
point's slices follow from a fixed working-set budget and from its own
early-stop progress, never from the other points or the passes, and the
chunk is the largest slice any running point asks for at its start.  A
point cuts its last slice back to the trial where its early stop fires
and leaves the sweep, so the CSV does not depend on the chunk, slice or
pass sizes.

Two baselines bound the scheme: plain spatial multiplexing with ZF
detection (``m`` streams), and the naive overload that crams all ``l``
streams onto the ``m`` spatial streams by plain summation instead of a
designed compression.  Both send ``z = S x`` with ``S = [I ... I]/sqrt(c)``
of ``c = streams/m`` identity blocks, the identity for ``zf``, draw and
check their channels as the scheme does, and slice ``S^T`` of the ZF
estimate of ``z``.  ``S`` has orthonormal rows, so ``S^T H^+`` is the
pseudo-inverse of ``H S`` (Greville, SIAM Review 8(4), 1966): the
minimum-norm least-squares estimate, which for the overload's duplicated
columns fails even without noise.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, dataclass, fields, replace
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate
from math import ceil, isfinite, isinf, sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, NoiseSpec, gains, noisy, sample_channel, unit_noise
from .channel import apply_channel  # noqa: F401  (perfbench traces it by this name)
from .csmux import MeasurementMatrix, MuxConfig, gen_phi, multiplex
from .csmux import require_int, require_ints
from .detection import _CHUNK_BYTES, SOLVERS, Codebook, block_width, channel_is_usable
from .detection import demux, zf_equalize
from .detection import build_dictionary, sensing_matrix  # noqa: F401  (perfbench traces them)
from .errors import RankDeficientChannel
from .modem import Constellation, get_constellation, nearest_point_indices, symbol_indices

BASELINES = (None, "zf", "overload")

CSV_HEADER = "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,throughput,ci_low,ci_high"

_MAX_CHANNEL_REDRAWS = 1000

# most points a start:step:stop SNR grid may hold
_MAX_GRID_POINTS = 10_000

# two-sided 95% standard normal quantile of the Wilson interval
_WILSON_Z = 1.959963984540054

# A fixed allowance per trial, within the working-set budget _CHUNK_BYTES,
# for what _chunk_cap does not count by shape: the trial's bits, symbols,
# normals drawn, and transmit and receive vectors.
_TRIAL_BYTES = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """Full parameterization of one sweep.

    ``snr_db`` takes any grid form :func:`parse_snr_grid` reads and is
    stored sorted; its points must be distinct, and finite with a finite
    noise variance ``m/10**(snr/10)`` or ``inf`` for a noiseless point.
    ``trials`` caps the Monte Carlo count per point; ``early_stop_errors``
    ends a point once that many bit errors have been seen (0 disables
    early stopping).  Counts and seeds must be integers.
    The scheme's ``solver`` must run on the setup, which
    :func:`~csmimo.detection.block_width` checks: its per-block table fits
    ``dictionary_cap`` and the int64 joint index, and ``omp`` has sub-blocks
    of ``m/j >= 2`` rows.  A baseline builds no table and runs on any
    setup.  Config files hold exactly these fields and those of
    :class:`MuxConfig`.
    """

    config: MuxConfig
    snr_db: tuple[float, ...]
    trials: int
    master_seed: int = 0
    solver: str = "ml"
    baseline: str | None = None
    early_stop_errors: int = 200

    def __post_init__(self) -> None:
        require_ints(self)
        grid = tuple(sorted(_snr_point(s, self.config.m) for s in parse_snr_grid(self.snr_db)))
        if not grid:
            raise ValueError("SNR grid must not be empty")
        for lo, hi in zip(grid, grid[1:]):
            if lo == hi:
                raise ValueError(f"SNR grid repeats {lo!r} dB")
        object.__setattr__(self, "snr_db", grid)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        if self.baseline not in BASELINES:
            raise ValueError(
                f"unknown baseline {self.baseline!r}; choose from {BASELINES[1:]}"
            )
        if self.baseline is None:
            block_width(self.config, self.solver)
        if self.baseline == "overload" and self.config.l % self.config.m:
            raise ValueError(
                "overload baseline needs l to be a multiple of m "
                f"(got l={self.config.l}, m={self.config.m})"
            )
        if self.early_stop_errors < 0:
            raise ValueError("early_stop_errors must be >= 0")

    @property
    def notation(self) -> str:
        """Setup label: antennas and multiplexed stream count."""
        return f"({self.config.nt},{self.config.nr})-{self.config.l}"

    @property
    def streams(self) -> int:
        """Modulated streams per channel use for the active mode."""
        return self.config.m if self.baseline == "zf" else self.config.l


@dataclass(frozen=True)
class TrialRecord:
    """Error counts and bit decisions of a single channel use."""

    trial_index: int
    snr_db: float
    bits: int
    bit_errors: int
    symbols: int
    symbol_errors: int
    redraws: int
    tx_bits: np.ndarray
    rx_bits: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    """Aggregated error rates for one SNR point."""

    snr_db: float
    trials: int
    bits: int
    bit_errors: int
    ber: float
    sym_errors: int
    ser: float
    throughput: float
    ci_low: float
    ci_high: float
    redraws: int = 0


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep plus the spec that produced them."""

    spec: ExperimentSpec
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        spec, cfg = self.spec, self.spec.config
        lines = [
            "# csmimo sweep result",
            f"# notation: {spec.notation}",
            f"# constellation: {cfg.constellation}",
            f"# nt: {cfg.nt}",
            f"# nr: {cfg.nr}",
            f"# l: {cfg.l}",
            f"# j: {cfg.j}",
            f"# m: {cfg.m}",
            f"# rho: {cfg.rho!r}",
            f"# solver: {spec.solver}",
            f"# baseline: {spec.baseline or 'none'}",
            f"# master_seed: {spec.master_seed}",
            f"# phi_seed: {cfg.phi_seed}",
            f"# trials_max: {spec.trials}",
            f"# early_stop_errors: {spec.early_stop_errors}",
            f"# streams_per_channel_use: {spec.streams}",
            # every point keeps a prefix of the same trials: count them once
            f"# channel_redraws: {max(r.redraws for r in self.rows)}",
            "# snr definition: snr_db = 10*log10(E_rx / sigma2), E_rx per receive"
            " antenna = number of unit-energy transmit dimensions",
            "# throughput is a proxy: streams * bits_per_symbol * (1 - ser) bits"
            " per channel use, not an information-theoretic rate",
            CSV_HEADER,
        ]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        repr(float(r.snr_db)),
                        str(r.trials),
                        str(r.bits),
                        str(r.bit_errors),
                        repr(float(r.ber)),
                        str(r.sym_errors),
                        repr(float(r.ser)),
                        repr(float(r.throughput)),
                        repr(float(r.ci_low)),
                        repr(float(r.ci_high)),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="ascii", newline="\n")


def wilson_interval(errors: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if not 0 <= errors <= total:
        raise ValueError(f"errors = {errors} must lie in [0, total = {total}]")
    p, z = errors / total, _WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def throughput_proxy(ber_row: SweepRow, spec: ExperimentSpec) -> float:
    """Delivered bits per channel use if symbol errors are simply discarded."""
    b = get_constellation(spec.config.constellation).bits_per_symbol
    return spec.streams * b * (1.0 - ber_row.ser)


@dataclass(frozen=True, eq=False)
class _Prepared:
    """Per-sweep precomputation shared by all trials.

    ``code`` is the scheme's; a baseline has none, since it slices the ZF
    estimate directly, and has instead its ``spread`` ``S``, which is
    ``None`` for the scheme.  ``chunk_cap`` is the most trials whose stacked
    arrays fit in ``_CHUNK_BYTES``.
    """

    spec: ExperimentSpec
    modem: Constellation
    code: Codebook | None
    chunk_cap: int
    spread: np.ndarray | None = None


def _chunk_cap(cfg: MuxConfig, solver: str | None) -> int:
    """Trials per chunk within ``_CHUNK_BYTES``: ``_TRIAL_BYTES``, the
    channel and its cached pseudo-inverse, ``nr·m`` complex entries each,
    and what ``solver`` holds per trial for each entry of its
    :func:`block_width` in each of the ``J`` blocks.  The ``ml`` scan holds
    its real metric, 8 B for each level tuple of both half-scans; the
    ``omp`` pick holds the complex correlation, its absolute value and the
    quotient by the column norms, 32 B per column; the ``oneshot`` search
    holds the cached QR, ``q``, its ``q.conj()`` temporary and ``r``.  The
    search's candidate contributions and scratch do not count here: it
    walks its slice in blocks of trials that each bound them by
    ``_CHUNK_BYTES`` of their own (see ``detection._demux_oneshot``).
    Complex entries count 16 B.  ``None`` is a baseline, which slices its
    ZF estimate and holds nothing more."""
    nr, m = cfg.nr, cfg.m
    entries = 2 * nr * m
    if solver == "oneshot":
        entries += 2 * nr * nr + nr * m
    per_entry = {"ml": 16, "omp": 32}.get(solver, 0)
    scan = per_entry * cfg.j * block_width(cfg, solver) if per_entry else 0
    return max(1, _CHUNK_BYTES // (_TRIAL_BYTES + 16 * entries + scan))


def _prepare(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> _Prepared:
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    if spec.baseline:
        if phi is not None:
            raise ValueError(f"the {spec.baseline} baseline compresses nothing; it takes no phi")
        copies = spec.streams // cfg.m
        spread = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        return _Prepared(spec, c, None, _chunk_cap(cfg, None), spread)
    code = Codebook(cfg, phi if phi is not None else gen_phi(cfg))
    return _Prepared(spec, c, code, _chunk_cap(cfg, spec.solver))


# run_trial's preparation of the (spec, phi) pairs it saw last; run_sweep
# prepares anew
_prepared = lru_cache(maxsize=8)(_prepare)


class _Drawn(NamedTuple):
    """What a chunk of ``n`` trials sends, the same at every SNR point:
    bits ``(n, bits per trial)``, symbol indices ``(n, streams)``, usable
    channels, noiseless receive vectors ``h z`` ``(n, nr)``, the
    :func:`unit_noise` of the noise normals ``(n, nr)`` and redraws per
    trial."""

    tx_bits: np.ndarray
    tx_idx: np.ndarray
    channel: ChannelRealization
    hz: np.ndarray
    noise: np.ndarray
    redraws: np.ndarray


class _Chunk(NamedTuple):
    """Per-trial outcome of a slice of a chunk at one SNR point: decided
    point indices ``(n, streams)``, bit errors and symbol errors."""

    rx_idx: np.ndarray
    bit_errors: np.ndarray
    symbol_errors: np.ndarray


# numpy's SeedSequence (numpy/random/bit_generator.pyx): hashmix's initial
# value and multiplier for mixing entropy into the 4-word pool and for
# generate_state, and mix's two multipliers.  numpy keeps these streams
# fixed across releases (NEP 19); the property tests hold _draw to
# default_rng on the installed numpy.
_MASK32 = (1 << 32) - 1
_HASH_POOL = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _words32(x: int) -> list[int]:
    """The 32-bit words of ``x >= 0``, least significant first, at least one."""
    return [x >> s & _MASK32 for s in range(0, 32 * max(1, -(-x.bit_length() // 32)), 32)]


def _hash_chain(init: int, mult: int, calls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hashmix's ``(xor, multiplier)`` constants for the call numbers
    ``calls`` of a chain that starts at ``init``: the hash constant before
    and after each call's step."""
    h = [init]
    for _ in range(calls.max() + 1):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[calls], h[calls + 1]


@lru_cache(maxsize=None)
def _seed_hashes(words: int) -> tuple[np.ndarray, ...]:
    """hashmix's read-only ``(xor, multiplier)`` constants for ``words``
    entropy words, in SeedSequence's call order.

    First the pool's, ``(steps, 4, 1)``, row ``d`` for pool word ``d``:
    step 0 hashes entropy word ``d`` (0 past the end) into it; step
    ``1 + s`` mixes pool word ``s`` into every other word (row ``s`` is
    unused); step ``w + 1`` mixes entropy word ``w >= 4`` into all four.
    Then generate_state's, ``(8, 1)``, for the pool words 0..3 twice."""
    calls = [[0, 1, 2, 3]]
    calls += [[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)] for s in range(4)]
    calls += [[4 * w + d for d in range(4)] for w in range(4, words)]
    hashes = (*_hash_chain(*_HASH_POOL, np.array(calls)[..., None]),
              *_hash_chain(*_HASH_STATE, np.arange(8)[:, None]))
    for h in hashes:
        h.flags.writeable = False
    return hashes


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``v`` at one step of its hash constant."""
    v = (v ^ xor) * mult
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of ``y`` into the pool word ``x``."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` of each column ``e`` of
    the uint32 ``entropy`` ``(words, n)``, as ``(n, 4)`` little-endian words."""
    words, n = entropy.shape
    xor, mult, state_xor, state_mult = _seed_hashes(words)
    pool = np.zeros((4, n), dtype=np.uint32)
    pool[: min(words, 4)] = entropy[:4]
    pool = _hashmix(pool, xor[0], mult[0])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], xor[1 + s], mult[1 + s]))
        mixed[s] = pool[s]  # a pool word is not mixed into itself
        pool = mixed
    for w in range(4, words):
        pool = _mix(pool, _hashmix(entropy[w], xor[1 + w], mult[1 + w]))
    state = _hashmix(np.concatenate((pool, pool)), state_xor, state_mult)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _trial_seeds(seed: int, t0: int, n: int) -> np.ndarray:
    """PCG64 seed words ``(n, 4)`` of ``SeedSequence([seed, t])`` for
    ``t = t0 .. t0+n-1``, hashed per run of trials whose ``t`` has the same
    number of 32-bit words."""
    head, runs, t = _words32(seed), [], t0
    while t < t0 + n:
        size = len(_words32(t))
        end = min(t0 + n, 1 << 32 * size)
        entropy = np.empty((len(head) + size, end - t), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head) :] = [[u >> s & _MASK32 for u in range(t, end)]
                                for s in range(0, 32 * size, 32)]
        runs.append(_pcg64_seeds(entropy))
        t = end
    return np.concatenate(runs)


class _SeedWords(NamedTuple):
    """A trial's hashed seed ``words``, a C-contiguous ``(4,)`` uint64 row,
    as the seed sequence ``np.random.PCG64`` reads its state from;
    :func:`_draw` registers the class as numpy's ``ISeedSequence``."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _draw(seed: int, t0: int, n: int, nbits: int, nr: int, m_tx: int) -> tuple[np.ndarray, ...]:
    """Bits ``(n, nbits)``, first channels ``(n, nr, m_tx)`` and noise
    normals ``(n, 2·nr)``, real parts first, of trials ``t0 .. t0+n-1``.

    Trial ``t`` draws exactly the stream of ``default_rng([seed, t])``: its
    bits as ``integers(0, 2, size=nbits, dtype=uint8)``, then in one
    normal draw the ``2·nr·m_tx`` normals of its channel (as
    :func:`sample_channel`) and the ``2·nr`` of its noise (as
    :func:`apply_channel`).  No ``SeedSequence`` is built per trial: the
    chunk's seeds are hashed as it hashes them in one pass, and numpy seeds
    each trial's PCG64 from its words.  ``integers``' bit draw takes
    one byte per bit from 32-bit halves of the 64-bit outputs, low half and
    low byte first, and keeps the byte's top bit (Lemire's bounded draw of
    a range of 2 is ``(2·byte) >> 8`` and never rejects); the normals start
    at the next 64-bit output, so ``ceil(nbits/8)`` raw outputs hold the
    bits.
    """
    # registered here, not at import, so that import csmimo loads no
    # numpy.random; registering again is a no-op
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    k, words = nr * m_tx, -(-nbits // 8)
    raw = np.empty((n, words), dtype="<u8")
    normals = np.empty((n, 2 * k + 2 * nr))
    for i, trial_words in enumerate(_trial_seeds(seed, t0, n)):
        bitgen = np.random.PCG64(_SeedWords(trial_words))
        raw[i] = bitgen.random_raw(words)
        np.random.Generator(bitgen).standard_normal(out=normals[i])
    bits = raw.view(np.uint8)[:, :nbits] >> 7
    return bits, gains(normals[:, : 2 * k], nr, m_tx), normals[:, 2 * k :]


def _replay(
    seed: int, t: int, nbits: int, nr: int, m_tx: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Trial ``t`` replayed from a fresh generator, for a first channel that
    is not usable: its usable channel, its noise normals drawn after the
    redraws, and the number of redraws."""
    rng = np.random.default_rng([seed, t])
    rng.integers(0, 2, size=nbits, dtype=np.uint8)
    draw, redraws = sample_channel(nr, m_tx, rng), 0
    while not channel_is_usable(draw):
        redraws += 1
        if redraws > _MAX_CHANNEL_REDRAWS:
            raise RankDeficientChannel(f"no usable channel in {_MAX_CHANNEL_REDRAWS} redraws")
        draw = sample_channel(nr, m_tx, rng)
    return draw.h, rng.standard_normal(2 * nr), redraws


def _draw_chunk(prep: _Prepared, t0: int, n: int) -> _Drawn:
    """Trials ``t0 .. t0+n-1`` drawn, modulated, multiplexed (or spread by
    a baseline) and sent through their usable channels."""
    spec, cfg, c = prep.spec, prep.spec.config, prep.modem
    nbits = spec.streams * c.bits_per_symbol
    tx_bits, h, normals = _draw(spec.master_seed, t0, n, nbits, cfg.nr, cfg.m)
    tx_idx = symbol_indices(tx_bits, c).reshape(n, spec.streams)
    x = c.points[tx_idx]
    if prep.code is None:
        # a baseline sums its streams onto the m spatial streams, c copies
        # each, with unit energy per transmit dimension: z = S x
        z = (prep.spread @ x[..., None])[..., 0]
    else:
        z = multiplex(x, prep.code.phi, cfg)
    channel, redraws = ChannelRealization(h), np.zeros(n, dtype=np.int64)
    for i in np.flatnonzero(~channel_is_usable(channel)):
        h[i], normals[i], redraws[i] = _replay(spec.master_seed, t0 + i, nbits, cfg.nr, cfg.m)
    if redraws.any():
        channel = ChannelRealization(h)
    # stacked matrix-vector products, bit for bit the single-draw ones
    hz = (h @ z[..., None])[..., 0]
    return _Drawn(tx_bits, tx_idx, channel, hz, unit_noise(normals), redraws)


def _detect(prep: _Prepared, drawn: _Drawn, slices: list[tuple[int, int, float]]) -> list[_Chunk]:
    """The trials ``lo .. hi-1`` of a drawn chunk at SNR point ``snr_db``,
    for each ``(lo, hi, snr_db)`` of ``slices``, detected in one stacked
    pass: each slice's receive vectors are formed at its own point and
    stacked, and the receiver runs once on the stack, a view of the chunk's
    channels for one slice and their gathered rows otherwise, which share
    the chunk's factorizations.  The scheme takes the point indices
    :func:`demux` decided; a baseline slices its ZF estimate to the nearest
    points.  A trial's bit errors are the label Hamming distances of its
    sent and decided points, the count its demapped bits would give.
    Returns one outcome per slice, bit for bit the slice's own pass."""
    spec, c, m = prep.spec, prep.modem, float(prep.spec.config.m)
    y = np.concatenate([noisy(drawn.hz[lo:hi], NoiseSpec.from_snr(snr, m), drawn.noise[lo:hi])
                        for lo, hi, snr in slices])
    if len(slices) == 1:
        # a view: gathering copies h and pinv, ~2x ZF time on a 60-trial (20,20)-40 slice
        rows = slice(*slices[0][:2])
    else:
        rows = np.concatenate([np.arange(lo, hi) for lo, hi, _ in slices])
    channel = drawn.channel[rows]
    if prep.code is None:
        # S has orthonormal rows, so S^T H^+ = (H S)^+
        x_hat = zf_equalize(y, channel) @ prep.spread
        rx_idx = nearest_point_indices(x_hat, c).reshape(len(y), spec.streams)
    else:
        rx_idx = demux(y, channel, prep.code, solver=spec.solver).x_indices
    tx_idx = drawn.tx_idx[rows]
    bit_errors = c.label_distances[tx_idx, rx_idx].sum(axis=1)
    symbol_errors = (tx_idx != rx_idx).sum(axis=1)
    ends = list(accumulate(hi - lo for lo, hi, _ in slices))
    return [_Chunk(rx_idx[a:b], bit_errors[a:b], symbol_errors[a:b])
            for a, b in zip([0, *ends], ends)]


def _tally_chunk(prep: _Prepared, t0: int, n: int, running: list[int], tally: np.ndarray) -> None:
    """Trials ``t0 .. t0+n-1`` drawn once, then walked by each running
    point in its own slices, each sized by :func:`_chunk_size` from the
    point's progress, up to the trial where its early stop fires; the kept
    trials are added to the point's row of ``tally``.  The slices run in
    passes, one :func:`_detect` call each: a pass takes, in point order,
    the next slice of each point still walking the chunk that fits in what
    is left of ``prep.chunk_cap`` trials, and always its first point's; a
    slice that does not fit waits for a later pass.  The drawn chunk is
    released on return."""
    spec, target = prep.spec, prep.spec.early_stop_errors
    drawn = _draw_chunk(prep, t0, n)
    # the next trial of each point still walking the chunk
    walking = dict.fromkeys(running, 0)
    while walking:
        passed, room = [], prep.chunk_cap
        for p, lo in walking.items():
            size = min(n - lo, _chunk_size(spec, prep.chunk_cap, t0 + lo, int(tally[p, 1])))
            if size <= room or not passed:
                passed.append((p, lo, lo + size))
                room -= size
        chunks = _detect(prep, drawn, [(lo, hi, spec.snr_db[p]) for p, lo, hi in passed])
        for (p, lo, hi), chunk in zip(passed, chunks):
            kept = hi - lo
            if target:
                hit = np.flatnonzero(tally[p, 1] + np.cumsum(chunk.bit_errors) >= target)
                kept = int(hit[0]) + 1 if hit.size else kept
            tally[p] += (kept, chunk.bit_errors[:kept].sum(), chunk.symbol_errors[:kept].sum(),
                         drawn.redraws[lo : lo + kept].sum())
            walking[p] = hi
            if hi == n or (target and tally[p, 1] >= target):
                del walking[p]


def _chunk_size(spec: ExperimentSpec, cap: int, done: int, errors: int) -> int:
    """Trials an SNR point detects next after ``done`` trials with
    ``errors`` bit errors: the size of its next slice, and the largest of
    these over the running points sizes the next drawn chunk.

    Without early stop it is the memory cap.  Otherwise it doubles
    (1, 2, 4, ...) until a first error, then it is the number of trials
    expected to reach the stop at the error rate seen so far, divided by
    ``1 + 2/sqrt(errors)``: the rate is known to about ``1/sqrt(errors)``
    of itself, so a slice seldom runs past the stop, where its trials are
    dropped.
    """
    size = min(spec.trials - done, cap)
    target = spec.early_stop_errors
    if target:
        if errors == 0:
            size = min(size, done + 1)
        else:
            size = min(size, ceil((target - errors) * done / (errors + 2 * sqrt(errors))))
    return size


def run_trial(
    spec: ExperimentSpec,
    trial_index: int,
    snr_db: float | None = None,
    phi: MeasurementMatrix | None = None,
) -> TrialRecord:
    """Run one deterministic trial; defaults to the first SNR grid point.

    The trial is a chunk of one, drawn as a sweep's chunks are and
    detected in a pass of one slice, so its bits equal those the trial has
    inside any sweep; the point indices it decides are demapped to its
    ``rx_bits``.  ``phi`` overrides the seeded Gaussian draw (e.g. an
    identity matrix for degenerate-equivalence checks).  The preparation
    of the last few ``(spec, phi)`` pairs is kept, so repeated calls build
    the codebook once.
    """
    trial_index = require_int(trial_index, "trial_index")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    point = spec.snr_db[0] if snr_db is None else _snr_point(snr_db, spec.config.m)
    prep = _prepared(spec, phi)
    drawn = _draw_chunk(prep, trial_index, 1)
    chunk, = _detect(prep, drawn, [(0, 1, point)])
    return TrialRecord(
        trial_index=trial_index,
        snr_db=point,
        bits=drawn.tx_bits.shape[1],
        bit_errors=int(chunk.bit_errors[0]),
        symbols=spec.streams,
        symbol_errors=int(chunk.symbol_errors[0]),
        redraws=int(drawn.redraws[0]),
        tx_bits=drawn.tx_bits[0],
        rx_bits=prep.modem.labels[chunk.rx_idx[0]].ravel(),
    )


def run_sweep(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> SweepResult:
    """Aggregate trials over the SNR grid, early-stopping on enough errors.

    Trials run in chunks (see the module docstring), each drawn once and
    walked by every SNR point still running, in slices of its own size
    that run in passes, several points' slices to a receiver call.  A
    point stops at the first trial whose cumulative bit errors reach
    ``early_stop_errors``, as if trials ran one at a time: later trials of
    its slice are dropped, and it detects no later slice.  When a chunk
    raises, the tally goes back to the chunk's start and its trials run
    again one at a time, so an error surfaces only from a trial the
    sequential rule reaches, the first such trial in trial order.
    """
    prep = _prepare(spec, phi)
    target = spec.early_stop_errors
    # per SNR point: trials, bit errors, symbol errors and redraws kept
    tally = np.zeros((len(spec.snr_db), 4), dtype=np.int64)
    running = list(range(len(spec.snr_db)))
    t0 = one_by_one_until = 0
    while running and t0 < spec.trials:
        if t0 < one_by_one_until:
            n = 1
        else:
            n = max(_chunk_size(spec, prep.chunk_cap, t0, int(tally[p, 1])) for p in running)
        before = tally.copy()
        try:
            _tally_chunk(prep, t0, n, running, tally)
        except Exception:
            # whatever a trial raises, rerun its chunk one trial at a time:
            # the error may belong to a trial past every stop
            if n == 1:
                raise
            tally[:] = before
            one_by_one_until = t0 + n
            continue
        t0 += n
        running = [p for p in running if not (target and tally[p, 1] >= target)]
    rows = []
    for snr, (trials, bit_errors, sym_errors, redraws) in zip(spec.snr_db, tally.tolist()):
        bits = trials * spec.streams * prep.modem.bits_per_symbol
        ci_low, ci_high = wilson_interval(bit_errors, bits)
        row = SweepRow(
            snr_db=snr,
            trials=trials,
            bits=bits,
            bit_errors=bit_errors,
            ber=bit_errors / bits,
            sym_errors=sym_errors,
            ser=sym_errors / (trials * spec.streams),
            throughput=0.0,
            ci_low=ci_low,
            ci_high=ci_high,
            redraws=redraws,
        )
        rows.append(replace(row, throughput=throughput_proxy(row, spec)))
    return SweepResult(spec, tuple(rows))


def _snr_point(value, m: int) -> float:
    """One SNR point in dB, read as a grid point is: ``inf`` (no noise), or
    finite with a finite noise variance at ``m``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"SNR grid point {value!r} is not a dB value")
    s = float(_grid_value(value, value))
    try:
        NoiseSpec.from_snr(s, m)
    except ValueError:
        raise ValueError(f"SNR grid point {s!r} dB must be finite and give a finite"
                         f" noise variance at m = {m}, or be inf") from None
    return s


def parse_snr_grid(value) -> tuple[float, ...]:
    """dB values from text (``start:step:stop``, a comma list or ``inf``),
    a single number, or any other iterable of numbers, in the given order.

    Text is read in decimal, so a ``start:step:stop`` range's points are the
    decimals written: ``float(start + i·step)`` for every ``i`` that does
    not pass ``stop``, at most ``_MAX_GRID_POINTS`` of them.  A finite
    value beyond the float range is rejected, not read as ``inf``."""
    if not isinstance(value, str):
        try:
            points = iter(value)
        except TypeError:  # a single number
            points = iter((value,))
        return tuple(float(_grid_value(v, value)) for v in points)
    text = value.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (_grid_value(p.strip(), text) for p in parts)
        if not all(d.is_finite() for d in (start, step, stop)):
            raise ValueError(f"grid {text!r} needs finite start, step and stop")
        if step <= 0:
            raise ValueError("grid step must be positive")
        span = stop - start
        if span < 0:
            raise ValueError(f"grid {text!r} is empty")
        if span >= step * _MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        return tuple(float(start + i * step) for i in range(int(span // step) + 1))
    return tuple(float(_grid_value(p.strip(), text)) for p in text.split(",") if p.strip())


def _grid_value(point, grid) -> Decimal:
    """``point`` exactly as a ``Decimal``: text and an ``int`` as written,
    any other number through ``float``.  Anything else, booleans included,
    and a finite value beyond the float range raise one line naming
    ``grid``, and ``point`` too unless it is the whole grid, so only an
    infinite spelling or number is infinite."""
    try:
        if isinstance(point, (bool, np.bool_)):
            raise TypeError
        exact = isinstance(point, (str, int))
        value = Decimal(point if exact else float(point))
        f = float(value)  # raises for a signalling NaN
        # float() saturates a finite longdouble or Decimal past its range
        beyond = isinf(f) and (value.is_finite() or not exact and f != point)
    except OverflowError:  # float() of a Fraction past the float range
        beyond = True
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"{_grid_label(point, grid)} is not a dB value") from None
    if beyond:
        raise ValueError(f"{_grid_label(point, grid)} dB is beyond the float range")
    return value


def _grid_label(point, grid) -> str:
    """``grid`` and the rejected ``point`` in it, or ``grid`` alone when
    the two read the same: a single number or a one-point text grid."""
    grid, point = _shown(grid), _shown(point)
    return f"grid {grid}" if grid == point else f"grid {grid}: {point}"


def _shown(value) -> str:
    """``repr(value)``, but an integer too long for Python's ``str`` (past
    ``sys.get_int_max_str_digits()``), alone or in a list or tuple, reads
    as its number of digits, and any other value whose ``repr`` fails as
    its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"a {Decimal(value).adjusted() + 1}-digit integer"
        if isinstance(value, (list, tuple)):
            inner = ", ".join(map(_shown, value))
            return f"[{inner}]" if isinstance(value, list) else f"({inner})"
        return f"a {type(value).__name__}"


def _json_value(field: Field, value):
    """A config-file value as ``field`` declares it: an integral number such
    as ``1e5`` as ``int``, ``str(value)`` for a string and ``None`` for a
    ``"none"`` or ``""`` baseline; the spec checks whatever else it gets."""
    if field.type == "int" and isinstance(value, float) and value.is_integer():
        return int(value)
    if field.type == "str | None" and value in (None, "", "none"):
        return None
    if field.type in ("str", "str | None"):
        return str(value)
    return value


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from config-file fields.

    The keys are the fields of :class:`MuxConfig` and :class:`ExperimentSpec`
    but ``config``; those without a default are required, and unknown keys
    are rejected so typos fail loudly.
    """
    schema = {f.name: f for cls in (MuxConfig, ExperimentSpec) for f in fields(cls)}
    del schema["config"]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {k for k, f in schema.items() if f.default is MISSING} - set(raw)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    values = {k: _json_value(schema[k], v) for k, v in raw.items()}
    cfg = MuxConfig(**{f.name: values.pop(f.name) for f in fields(MuxConfig) if f.name in values})
    return ExperimentSpec(cfg, **values)


def _json_float(text: str) -> float:
    """A JSON number with a fraction or exponent, which must not overflow to
    ``inf``: a JSON file has no spelling of ``inf`` that ``float`` reads."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"config number {text} is beyond the float range")
    return value


def read_config(path: str | Path) -> dict:
    """The fields of a JSON config file, unchecked: a caller may change
    them before :func:`spec_from_dict` checks them once.  Integers are read
    exactly at any length, past the digit limit of Python's ``int(text)``,
    so that one too large fails in the spec's checks, not in the parser."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, parse_float=_json_float, parse_int=lambda text: int(Decimal(text)))
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return raw


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read a JSON config file into an :class:`ExperimentSpec`."""
    return spec_from_dict(read_config(path))
