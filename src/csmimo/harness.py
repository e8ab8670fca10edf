"""Monte Carlo experiment driver: SNR sweeps, baselines, CSV output.

Every trial sends one channel use: fresh bits are modulated, compressed,
pushed through an independent Rayleigh draw plus AWGN, then recovered to
the point index the receiver decides for each symbol.  Its bit errors are
the label Hamming distances of the sent and decided points, read from the
constellation's table, which equal the count its demapped bits give, so
no decision is demapped.  Trial ``t`` draws all of its randomness from the
stream seeded by ``(master_seed, t)``, so results do not depend on
execution order and a trial index reuses the same bits/channel across SNR
points (common random numbers).  Sweeps stop early at an SNR point once
enough bit errors have accumulated for a stable estimate, up to the
configured trial cap.

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
The chunk is put once in the receiver's own space, where a point only
scales the chunk's unit noise ``u`` by its ``s = sqrt(sigma2/2)``, made
once per sweep, and adds it.  ZF is linear, ``H⁺(Hz + s·u) = z + s·H⁺u``,
so the ZF receivers (the ``ml`` and ``omp`` solvers and both baselines)
keep the sent vectors ``z``, equalize the noise once per chunk,
``w = H⁺u``, and detect ``z + s·w`` at every point: the ZF estimate of the
receive vector to rounding, and at a noiseless point exactly ``z``.  The
``oneshot`` search reads the receive vector itself, so it keeps ``Hz`` and
``u`` and detects ``Hz + s·u`` (:func:`~csmimo.channel.noisy`).
Each SNR point still running then walks the chunk in slices of its own
size.  The slices run in passes: a pass stacks the next slice of every
point still walking the chunk, up to the working-set budget, and runs the
same receiver functions a single trial uses once on the stack, so every
decision is bit for bit the one-at-a-time result.  The pseudo-inverse and
usability flags of the chunk's :class:`ChannelRealization` are made once,
when the chunk is drawn; a ``oneshot`` pass reads a slice or gathered rows
of it, which share its QR, so that too is made once per chunk.  A
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

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import ceil, sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, NoiseSpec, gains, sample_channel, unit_noise
from .channel import apply_channel  # noqa: F401  (perfbench traces it by this name)
from .csmux import MuxConfig, gen_phi, multiplex
from .detection import _CHUNK_BYTES, Codebook, channel_is_usable, demux, zf_equalize
from .detection import build_dictionary, sensing_matrix  # noqa: F401  (perfbench traces them)
from .errors import RankDeficientChannel, SpecError
from .modem import Constellation, get_constellation, nearest_point_indices, symbol_indices
from .spec import ExperimentSpec, block_width, checked
from .spec import load_spec  # noqa: F401  (perfbench reads its workloads through it)

CSV_HEADER = "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,throughput,ci_low,ci_high"

_MAX_CHANNEL_REDRAWS = 1000

# two-sided 95% standard normal quantile of the Wilson interval
_WILSON_Z = 1.959963984540054

# A fixed allowance per trial, within the working-set budget _CHUNK_BYTES,
# for what _chunk_cap does not count by shape: the trial's bits, symbols,
# normals drawn, its sent vector and unit noise in the receiver's space,
# and the vector a pass detects.
_TRIAL_BYTES = 2048


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
    """95% Wilson score interval for an error proportion; the counts are
    integers in their ranges of ``spec.RANGES``, ``errors <= total``."""
    total, errors = checked("total", total), checked("errors", errors)
    if errors > total:
        raise SpecError("errors must be at most total")
    p, z = errors / total, _WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True, eq=False)
class _Prepared:
    """Per-sweep precomputation shared by all trials.

    ``code`` and ``solver`` are the scheme's; a baseline has neither, since
    it slices the ZF estimate directly, and has instead its ``spread``
    ``S``, which is ``None`` for the scheme.  ``chunk_cap`` is the most
    trials whose stacked arrays fit in ``_CHUNK_BYTES``.  ``noise_scale``
    holds :attr:`NoiseSpec.scale`, ``sqrt(sigma2/2)``, of every SNR point,
    in grid order.
    """

    spec: ExperimentSpec
    modem: Constellation
    code: Codebook | None
    solver: str | None
    chunk_cap: int
    noise_scale: tuple[float, ...]
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
    ZF estimate and holds nothing more.  The ZF receivers read the channel
    and its pseudo-inverse only to equalize the chunk's noise once."""
    nr, m = cfg.nr, cfg.m
    entries = 2 * nr * m
    if solver == "oneshot":
        entries += 2 * nr * nr + nr * m
    per_entry = {"ml": 16, "omp": 32}.get(solver, 0)
    scan = per_entry * cfg.j * block_width(cfg, solver) if per_entry else 0
    return max(1, _CHUNK_BYTES // (_TRIAL_BYTES + 16 * entries + scan))


def _prepare(spec: ExperimentSpec) -> _Prepared:
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    scale = tuple(NoiseSpec.from_snr(snr, float(cfg.m)).scale for snr in spec.snr_db)
    if spec.baseline:
        copies = spec.streams // cfg.m
        spread = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        return _Prepared(spec, c, None, None, _chunk_cap(cfg, None), scale, spread)
    code = Codebook(cfg, gen_phi(cfg))
    return _Prepared(spec, c, code, spec.solver, _chunk_cap(cfg, spec.solver), scale)


class _Drawn(NamedTuple):
    """What a chunk of ``n`` trials sends, the same at every SNR point:
    symbol indices ``(n, streams)``, whose labels are the trials' bits,
    usable channels, and the sent vectors and unit noise in the receiver's
    own space, so that a point of noise scale ``s`` detects
    ``sent + s·noise``, and redraws per trial.  The ZF receivers hold the
    transmit vectors ``z`` ``(n, m)`` and the equalized noise ``H⁺u``; the
    ``oneshot`` search, which reads the receive vector, holds ``h z`` and
    the :func:`unit_noise` ``u`` of the noise normals, ``(n, nr)`` each."""

    tx_idx: np.ndarray
    channel: ChannelRealization
    sent: np.ndarray
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


def _hash_chain(init: int, mult: int, calls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hashmix's ``(xor, multiplier)`` constants for the call numbers
    ``calls`` of a chain that starts at ``init``: the hash constant before
    and after each call's step."""
    h = [init]
    for _ in range(calls.max() + 1):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[calls], h[calls + 1]


# hashmix's constants in SeedSequence's call order.  The pool's are
# (5, 4, 1), row d for pool word d: step 0 hashes entropy word d (0 past
# the end) into it, and step 1 + s mixes pool word s into every other word
# (row s is unused).  generate_state's are (8, 1), for the pool words 0..3
# twice.  A seed below 2**64 and a trial below 2**32 are at most three
# entropy words, so none is mixed in past the pool's four.
_POOL_XOR, _POOL_MULT = _hash_chain(*_HASH_POOL, np.array(
    [[0, 1, 2, 3]] + [[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)]
                      for s in range(4)])[..., None])
_STATE_XOR, _STATE_MULT = _hash_chain(*_HASH_STATE, np.arange(8)[:, None])


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
    the uint32 ``entropy`` ``(words, n)``, ``words <= 4``, as ``(n, 4)``
    little-endian words."""
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy
    pool = _hashmix(pool, _POOL_XOR[0], _POOL_MULT[0])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], _POOL_XOR[1 + s], _POOL_MULT[1 + s]))
        mixed[s] = pool[s]  # a pool word is not mixed into itself
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _trial_seeds(seed: int, t0: int, n: int) -> np.ndarray:
    """PCG64 seed words ``(n, 4)`` of ``SeedSequence([seed, t])`` for
    ``t = t0 .. t0+n-1``, ``seed < 2**64`` and ``t < 2**32``: the entropy
    is the seed's one or two 32-bit words, then ``t``."""
    head = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.empty((len(head) + 1, n), dtype=np.uint32)
    entropy[:-1] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(t0, t0 + n, dtype=np.uint32)
    return _pcg64_seeds(entropy)


@cache
def _seed_words() -> type:
    """numpy's ``ISeedSequence`` subclass that holds a trial's hashed seed
    ``words``, a C-contiguous ``(4,)`` uint64 row, as the seed sequence
    ``np.random.PCG64`` reads its state from.  Made at the first draw, not
    at import, so that ``import csmimo`` loads no ``numpy.random``."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 passes np.uint64 itself: the identity spares np.dtype
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError(f"seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
            return self.words

    return SeedWords


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
    seed_words, pcg64, generator = _seed_words(), np.random.PCG64, np.random.Generator
    k, words = nr * m_tx, -(-nbits // 8)
    raw = np.empty((n, words), dtype="<u8")
    normals = np.empty((n, 2 * k + 2 * nr))
    for i, trial_words in enumerate(_trial_seeds(seed, t0, n)):
        bitgen = pcg64(seed_words(trial_words))
        raw[i] = bitgen.random_raw(words)
        generator(bitgen).standard_normal(out=normals[i])
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
    a baseline) and put in the receiver's space: the ZF receivers keep the
    sent vectors and equalize the unit noise once through the usable
    channels, and ``oneshot`` sends the vectors through them."""
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
        z = multiplex(x, prep.code)
    channel, redraws = ChannelRealization(h), np.zeros(n, dtype=np.int64)
    for i in np.flatnonzero(~channel_is_usable(channel)):
        h[i], normals[i], redraws[i] = _replay(spec.master_seed, t0 + i, nbits, cfg.nr, cfg.m)
    if redraws.any():
        channel = ChannelRealization(h)
    unit = unit_noise(normals)
    if prep.solver == "oneshot":
        # stacked matrix-vector products, bit for bit the single-draw ones
        return _Drawn(tx_idx, channel, (h @ z[..., None])[..., 0], unit, redraws)
    # ZF is linear, H⁺(Hz + s·u) = z + s·H⁺u: one equalization for every point
    return _Drawn(tx_idx, channel, z, zf_equalize(unit, channel), redraws)


def _detect(prep: _Prepared, drawn: _Drawn, slices: list[tuple[int, int, int]]) -> list[_Chunk]:
    """The trials ``lo .. hi-1`` of a drawn chunk at SNR point ``p``, for
    each ``(lo, hi, p)`` of ``slices``, detected in one stacked pass: each
    slice's ``sent + s_p·noise`` is formed at its point's noise scale and
    stacked, and the receiver runs once on the stack.  A baseline slices
    ``S^T`` of that ZF estimate to the nearest points; the scheme takes the
    point indices :func:`demux` decided on it, and ``oneshot`` on the
    receive vectors with their channels, a view of the chunk's for one
    slice and their gathered rows otherwise, which share the chunk's QR.
    A trial's bit errors are the label Hamming distances of its sent and
    decided points, the count its demapped bits would give.  Returns one
    outcome per slice, bit for bit the slice's own pass."""
    spec, c = prep.spec, prep.modem
    received = np.concatenate([drawn.sent[lo:hi] + prep.noise_scale[p] * drawn.noise[lo:hi]
                               for lo, hi, p in slices])
    if len(slices) == 1:
        # a view: gathering copies h and its factorizations
        rows = slice(*slices[0][:2])
    else:
        rows = np.concatenate([np.arange(lo, hi) for lo, hi, _ in slices])
    if prep.code is None:
        # S has orthonormal rows, so S^T H^+ = (H S)^+
        x_hat = received @ prep.spread
        rx_idx = nearest_point_indices(x_hat, c).reshape(len(received), spec.streams)
    else:
        h = drawn.channel[rows] if prep.solver == "oneshot" else None
        rx_idx = demux(received, prep.code, prep.solver, h=h).x_indices
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
        chunks = _detect(prep, drawn, [(lo, hi, p) for p, lo, hi in passed])
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


def run_sweep(spec: ExperimentSpec) -> SweepResult:
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
    prep = _prepare(spec)
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
    b = prep.modem.bits_per_symbol
    for snr, (trials, bit_errors, sym_errors, redraws) in zip(spec.snr_db, tally.tolist()):
        bits = trials * spec.streams * b
        ser = sym_errors / (trials * spec.streams)
        ci_low, ci_high = wilson_interval(bit_errors, bits)
        rows.append(SweepRow(
            snr_db=snr,
            trials=trials,
            bits=bits,
            bit_errors=bit_errors,
            ber=bit_errors / bits,
            sym_errors=sym_errors,
            ser=ser,
            # delivered bits per channel use if symbol errors are simply discarded
            throughput=spec.streams * b * (1.0 - ser),
            ci_low=ci_low,
            ci_high=ci_high,
            redraws=redraws,
        ))
    return SweepResult(spec, tuple(rows))
