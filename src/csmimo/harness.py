"""Monte Carlo experiment driver: SNR sweeps, baselines, CSV output.

Every trial sends one channel use: fresh bits are modulated, compressed,
pushed through an independent Rayleigh draw plus AWGN, then recovered and
demapped.  Trial ``t`` draws all of its randomness from a generator seeded
by ``(master_seed, t)``, so results do not depend on execution order and a
trial index reuses the same bits/channel across SNR points (common random
numbers).  Sweeps stop early at an SNR point once enough bit errors have
accumulated for a stable estimate, up to the configured trial cap.

Trials run trial-major, in chunks of consecutive indices.  Each trial draws
from its own generator in a fixed order: bits, then the channel and any
redraws, then the noise.  None of these depend on the SNR, so a chunk is
drawn once for every point: each trial's generator is built once, its
channel and noise come from one normal draw, and one stacked SVD checks
every channel.  A trial whose first channel is not usable is replayed from
a fresh generator: bits, channel, redraws, then noise.  The chunk is then
detected at each SNR point still running, in one stacked pass per point
through the same receiver functions a single trial uses, so every decision
is bit for bit the one-at-a-time result.  Every point is handed the same
:class:`ChannelRealization`, so the factorizations cached on it (the SVD
for ZF, the QR for the ``oneshot`` search) are made once per chunk.  The
chunk size follows from a fixed working-set budget and from the early-stop
progress of the running points.  A point cuts the chunk back to the trial where its early stop
fires and leaves the sweep, so the CSV does not depend on the chunk size.

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
from functools import lru_cache
from math import ceil, sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, NoiseSpec, gains, received, sample_channel
from .channel import apply_channel  # noqa: F401  (perfbench traces it by this name)
from .csmux import MeasurementMatrix, MuxConfig, gen_phi, multiplex
from .csmux import require_int, require_ints
from .detection import SOLVERS, Codebook, channel_is_usable, demux, zf_equalize
from .detection import build_dictionary, sensing_matrix  # noqa: F401  (perfbench traces them)
from .errors import RankDeficientChannel
from .modem import Constellation, get_constellation, nearest_point_indices, symbol_indices

BASELINES = (None, "zf", "overload")

CSV_HEADER = "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,throughput,ci_low,ci_high"

_MAX_CHANNEL_REDRAWS = 1000

# Working-set budget of one chunk, in bytes, and a fixed allowance per trial
# for what _chunk_cap does not count by shape: the trial's bits, symbols,
# normals drawn, and transmit and receive vectors.
_CHUNK_BYTES = 1 << 20
_TRIAL_BYTES = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """Full parameterization of one sweep.

    ``snr_db`` takes any grid form :func:`parse_snr_grid` reads and is
    stored sorted; its points must be distinct and finite, or ``inf`` for a
    noiseless point.  ``trials`` caps the Monte Carlo count per SNR point;
    ``early_stop_errors`` ends a point once that many bit errors have been
    seen (0 disables early stopping).  Counts and seeds must be integers.
    Config files hold exactly these fields and those of :class:`MuxConfig`.
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
        grid = tuple(sorted(_snr_point(s) for s in parse_snr_grid(self.snr_db)))
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
            f"# channel_redraws: {sum(r.redraws for r in self.rows)}",
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


def wilson_interval(errors: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion."""
    if total < 1:
        raise ValueError("total must be >= 1")
    p = errors / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def throughput_proxy(ber_row: SweepRow, spec: ExperimentSpec) -> float:
    """Delivered bits per channel use if symbol errors are simply discarded."""
    b = get_constellation(spec.config.constellation).bits_per_symbol
    return spec.streams * b * (1.0 - ber_row.ser)


@dataclass(frozen=True)
class _Prepared:
    """Per-sweep precomputation shared by all trials.

    ``code`` is the scheme's; a baseline has none, since it slices the ZF
    estimate directly.  ``chunk_cap`` is the most trials whose stacked
    arrays fit in ``_CHUNK_BYTES``.
    """

    spec: ExperimentSpec
    modem: Constellation
    code: Codebook | None
    chunk_cap: int


def _chunk_cap(cfg: MuxConfig, solver: str | None) -> int:
    """Trials per chunk within ``_CHUNK_BYTES``: ``_TRIAL_BYTES``, the
    channel and its SVD factors, and what ``solver`` holds per trial.  The
    ``ml`` scan holds its real metric, 8 B per candidate it scores: the
    ``2·J·√q**n`` I/Q level tuples of its two half-scans; the ``omp``
    pick holds the complex correlation, its absolute value and the
    quotient by the column norms, 32 B per candidate; the ``oneshot``
    search holds the cached QR, ``q``, its ``q.conj()`` temporary and ``r``.
    Complex entries count 16 B.  ``None`` is a baseline, which slices its ZF
    estimate and holds nothing more."""
    nr, m = cfg.nr, cfg.m
    entries = 2 * nr * m + m * m
    if solver == "oneshot":
        entries += 2 * nr * nr + nr * m
    c, n = get_constellation(cfg.constellation), cfg.subblock_cols
    candidates = 2 * cfg.j * c.iq_levels.size**n if solver == "ml" else cfg.j * c.order**n
    per_candidate = {"ml": 8, "omp": 32}.get(solver, 0)
    return max(1, _CHUNK_BYTES // (_TRIAL_BYTES + 16 * entries + per_candidate * candidates))


def _prepare(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> _Prepared:
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    if spec.baseline:
        if phi is not None:
            raise ValueError(f"the {spec.baseline} baseline compresses nothing; it takes no phi")
        return _Prepared(spec, c, None, _chunk_cap(cfg, None))
    code = Codebook(cfg, phi if phi is not None else gen_phi(cfg))
    return _Prepared(spec, c, code, _chunk_cap(cfg, spec.solver))


# run_trial's preparation of the (spec, phi) pairs it saw last; run_sweep
# prepares anew
_prepared = lru_cache(maxsize=8)(_prepare)


class _Chunk(NamedTuple):
    """Per-trial outcome of a chunk at one SNR point; bit arrays are
    ``(n, bits per trial)``."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    bit_errors: np.ndarray
    symbol_errors: np.ndarray
    redraws: np.ndarray


def _draw(seed: int, t0: int, n: int, nbits: int, nr: int, m_tx: int) -> tuple[np.ndarray, ...]:
    """Bits ``(n, nbits)``, first channels ``(n, nr, m_tx)`` and noise
    normals ``(n, 2·nr)``, real parts first, of trials ``t0 .. t0+n-1``.

    Trial ``t`` draws from ``default_rng([seed, t])`` its bits, then in one
    normal draw the ``2·nr·m_tx`` normals of its channel (as
    :func:`sample_channel`) and the ``2·nr`` of its noise (as
    :func:`apply_channel`).
    """
    k = nr * m_tx
    bits = np.empty((n, nbits), dtype=np.uint8)
    normals = np.empty((n, 2 * k + 2 * nr))
    for t, b, out in zip(range(t0, t0 + n), bits, normals):
        rng = np.random.default_rng([seed, t])
        b[:] = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        rng.standard_normal(out=out)
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


def _run_chunk(prep: _Prepared, t0: int, n: int, snrs: tuple[float, ...]) -> list[_Chunk]:
    """Trials ``t0 .. t0+n-1`` drawn once, then detected at each SNR point of
    ``snrs`` in one stacked pass per point."""
    spec, cfg, c = prep.spec, prep.spec.config, prep.modem
    nbits = spec.streams * c.bits_per_symbol
    tx_bits, h, normals = _draw(spec.master_seed, t0, n, nbits, cfg.nr, cfg.m)
    tx_idx = symbol_indices(tx_bits, c).reshape(n, spec.streams)
    x = c.points[tx_idx]

    if prep.code is None:
        # a baseline sums its streams onto the m spatial streams, c copies
        # each, with unit energy per transmit dimension: z = S x
        copies = spec.streams // cfg.m
        spread = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        z = (spread @ x[..., None])[..., 0]
    else:
        z = multiplex(x, prep.code.phi, cfg)
    channel, redraws = ChannelRealization(h), np.zeros(n, dtype=np.int64)
    for i in np.flatnonzero(~channel_is_usable(channel)):
        h[i], normals[i], redraws[i] = _replay(spec.master_seed, t0 + i, nbits, cfg.nr, cfg.m)
    if redraws.any():
        channel = ChannelRealization(h)

    chunks = []
    for snr_db in snrs:
        y = received(h, z, NoiseSpec.from_snr(snr_db, float(cfg.m)), normals)
        if prep.code is None:
            # S has orthonormal rows, so S^T H^+ = (H S)^+
            x_hat = zf_equalize(y, channel).z_hat @ spread
        else:
            x_hat = demux(y, channel, prep.code, solver=spec.solver).x_hat
        rx_idx = nearest_point_indices(x_hat, c).reshape(n, spec.streams)
        rx_bits = c.labels[rx_idx].reshape(n, -1)
        bit_errors = (tx_bits != rx_bits).sum(axis=1)
        sym_errors = (tx_idx != rx_idx).sum(axis=1)
        chunks.append(_Chunk(tx_bits, rx_bits, bit_errors, sym_errors, redraws))
    return chunks


def _chunk_size(spec: ExperimentSpec, cap: int, done: int, errors: int) -> int:
    """Trials in the next chunk of an SNR point after ``done`` trials.

    Without early stop it is the memory cap.  Otherwise the chunk doubles
    (1, 2, 4, ...) until a first error, then it is the number of trials
    expected to reach the stop at the error rate seen so far, divided by
    ``1 + 2/sqrt(errors)``: the rate is known to about ``1/sqrt(errors)``
    of itself, so a chunk seldom runs past the stop, where its trials are
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

    The trial is a chunk of one through the sweep engine, so its bits equal
    those the trial has inside any sweep.  ``phi`` overrides the seeded
    Gaussian draw (e.g. an identity matrix for degenerate-equivalence
    checks).  The preparation of the last few ``(spec, phi)`` pairs is
    kept, so repeated calls build the codebook once.
    """
    trial_index = require_int(trial_index, "trial_index")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    point = spec.snr_db[0] if snr_db is None else _snr_point(snr_db)
    prep = _prepared(spec, phi)
    (chunk,) = _run_chunk(prep, trial_index, 1, (point,))
    return TrialRecord(
        trial_index=trial_index,
        snr_db=point,
        bits=chunk.tx_bits.shape[1],
        bit_errors=int(chunk.bit_errors[0]),
        symbols=spec.streams,
        symbol_errors=int(chunk.symbol_errors[0]),
        redraws=int(chunk.redraws[0]),
        tx_bits=chunk.tx_bits[0],
        rx_bits=chunk.rx_bits[0],
    )


def run_sweep(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> SweepResult:
    """Aggregate trials over the SNR grid, early-stopping on enough errors.

    Trials run in chunks (see the module docstring), each drawn once and
    detected at every SNR point still running.  A point stops at the first
    trial whose cumulative bit errors reach ``early_stop_errors``, as if
    trials ran one at a time: later trials of its chunk are dropped, and
    when a chunk raises, its trials run again one at a time, so an error
    surfaces only from a trial the sequential rule reaches, the first such
    trial in trial order.
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
            n = min(_chunk_size(spec, prep.chunk_cap, t0, int(tally[p, 1])) for p in running)
        try:
            chunks = _run_chunk(prep, t0, n, tuple(spec.snr_db[p] for p in running))
        except Exception:
            # whatever a trial raises, rerun its chunk one trial at a time:
            # the error may belong to a trial past every stop
            if n == 1:
                raise
            one_by_one_until = t0 + n
            continue
        for p, chunk in zip(running, chunks):
            kept = n
            if target:
                hit = np.flatnonzero(tally[p, 1] + np.cumsum(chunk.bit_errors) >= target)
                kept = int(hit[0]) + 1 if hit.size else n
            tally[p] += (kept, chunk.bit_errors[:kept].sum(), chunk.symbol_errors[:kept].sum(),
                         chunk.redraws[:kept].sum())
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


def _snr_point(value) -> float:
    """One SNR point in dB, which must be finite or ``inf`` (no noise)."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"SNR grid point {value!r} is not a dB value")
    s = float(value)
    if np.isnan(s) or s == -np.inf:
        raise ValueError(f"SNR grid point {s!r} dB must be finite or inf")
    return s


def parse_snr_grid(value) -> tuple[float, ...]:
    """dB values from text (``start:step:stop``, a comma list or ``inf``),
    a single number, or any other iterable of numbers, in the given order."""
    if not isinstance(value, str):
        try:
            points = iter(value)
        except TypeError:  # a single number
            points = iter((value,))
        return tuple(_grid_value(v, value) for v in points)
    text = value.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (_grid_value(p.strip(), text) for p in parts)
        if not all(np.isfinite([start, step, stop])):
            raise ValueError(f"grid {text!r} needs finite start, step and stop")
        if step <= 0:
            raise ValueError("grid step must be positive")
        n = int(np.floor((stop - start) / step + 0.5)) + 1
        if n < 1:
            raise ValueError(f"grid {text!r} is empty")
        return tuple(start + i * step for i in range(n))
    return tuple(_grid_value(p.strip(), text) for p in text.split(",") if p.strip())


def _grid_value(point, grid) -> float:
    try:
        if isinstance(point, (bool, np.bool_)):
            raise TypeError
        return float(point)
    except (TypeError, ValueError):
        raise ValueError(f"grid {grid!r}: {point!r} is not a dB value") from None


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


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read a JSON config file into an :class:`ExperimentSpec`."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return spec_from_dict(raw)
