"""Monte Carlo experiment driver: SNR sweeps, baselines, CSV output.

Every trial sends one channel use: fresh bits are modulated, compressed,
pushed through an independent Rayleigh draw plus AWGN, then recovered and
demapped.  Trial ``t`` draws all of its randomness from a generator seeded
by ``(master_seed, t)``, so results do not depend on execution order and a
trial index reuses the same bits/channel across SNR points (common random
numbers).  Sweeps stop early at an SNR point once enough bit errors have
accumulated for a stable estimate, up to the configured trial cap.

Trials run in chunks of consecutive indices.  Each trial of a chunk draws
from its own generator in a fixed order (bits, then the channel and any
redraws, then the noise); everything else runs once per chunk on stacked
arrays through the same receiver functions a single trial uses, so every
decision is bit for bit the one-at-a-time result.  The chunk size follows
from a fixed working-set budget and from early-stop progress, and a chunk
that runs past the trial where early stop fires is cut back to that trial,
so the CSV does not depend on it.

Two baselines bound the scheme: plain spatial multiplexing with ZF
detection (``m`` streams), and the naive overload that crams all ``l``
streams onto the ``m`` spatial streams by plain summation instead of a
designed compression.  Plain ZF runs the compressed-sensing receiver with
``l = j = m`` and an identity matrix, whose per-symbol scan is ZF slicing.
The summed mapping of the overload baseline duplicates columns of the
composed channel, so the receiver faces an underdetermined least-squares
problem that fails even without noise.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, dataclass, fields, replace
from math import sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, NoiseSpec, apply_channel, sample_channel
from .csmux import MeasurementMatrix, MuxConfig, gen_phi, identity_phi, multiplex
from .csmux import require_int, require_ints
from .detection import SOLVERS, Codebook, channel_is_usable, demux, sensing_matrix
from .detection import zf_equalize  # noqa: F401  (perfbench traces it by this name)
from .dictionary import build_dictionary
from .errors import RankDeficientChannel
from .modem import Constellation, get_constellation, nearest_point_indices, symbol_indices

BASELINES = (None, "zf", "overload")

CSV_HEADER = "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,throughput,ci_low,ci_high"

_MAX_CHANNEL_REDRAWS = 1000

# Working-set budget of one chunk, in bytes, and the part of it each trial
# takes whatever its shape: a generator object is about 1.7 kB.
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

    ``cfg`` and ``solver`` are what the trials run: the spec's, except that
    the ``zf`` baseline runs the ``ml`` scan on ``l = j = m`` with an
    identity ``phi``.  The overload baseline has no ``code``.  ``chunk_cap``
    is the most trials whose stacked arrays fit in ``_CHUNK_BYTES``.
    """

    spec: ExperimentSpec
    cfg: MuxConfig
    solver: str
    modem: Constellation
    code: Codebook | None
    chunk_cap: int


def _chunk_cap(cfg: MuxConfig, scan_entries: int) -> int:
    """Trials per chunk within ``_CHUNK_BYTES``: the generator, the channel
    and its SVD factors at 16 B per complex entry, and 24 B per candidate
    the ``ml`` scan scores."""
    per_trial = _TRIAL_BYTES + 16 * (2 * cfg.nr * cfg.m + cfg.m * cfg.m) + 24 * scan_entries
    return max(1, _CHUNK_BYTES // per_trial)


def _prepare(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> _Prepared:
    cfg, solver = spec.config, spec.solver
    c = get_constellation(cfg.constellation)
    if spec.baseline == "overload":
        return _Prepared(spec, cfg, solver, c, None, _chunk_cap(cfg, 0))
    if spec.baseline == "zf":
        cfg = replace(cfg, l=cfg.m, j=cfg.m)
        phi, solver = identity_phi(cfg), "ml"
    phi_m = phi if phi is not None else gen_phi(cfg)
    dictionary = build_dictionary(c, cfg.subblock_cols, cap=cfg.dictionary_cap)
    code = Codebook(cfg, phi_m, dictionary, sensing_matrix(phi_m, dictionary))
    scan = cfg.j * dictionary.d if solver == "ml" else 0
    return _Prepared(spec, cfg, solver, c, code, _chunk_cap(cfg, scan))


class _Chunk(NamedTuple):
    """Per-trial outcome of a chunk; bit arrays are ``(n, bits per trial)``."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    bit_errors: np.ndarray
    symbol_errors: np.ndarray
    redraws: np.ndarray


def _usable_channels(h: np.ndarray, rngs) -> tuple[ChannelRealization, np.ndarray]:
    """The stack ``h`` with every unusable draw replaced by redraws from its
    own trial's generator, and the redraw count per trial."""
    redraws = np.zeros(len(rngs), dtype=np.int64)
    channel = ChannelRealization(h)
    for i in np.flatnonzero(~channel_is_usable(channel)):
        draw = None
        while draw is None or not channel_is_usable(draw):
            redraws[i] += 1
            if redraws[i] > _MAX_CHANNEL_REDRAWS:
                raise RankDeficientChannel(
                    f"no usable channel in {_MAX_CHANNEL_REDRAWS} redraws"
                )
            draw = sample_channel(channel.nr, channel.m_tx, rngs[i])
        h[i] = draw.h
    return (ChannelRealization(h) if redraws.any() else channel), redraws


def _run_chunk(prep: _Prepared, t0: int, n: int, snr_db: float) -> _Chunk:
    """Trials ``t0 .. t0+n-1`` at one SNR point in one stacked pass."""
    spec, cfg, c = prep.spec, prep.cfg, prep.modem
    rngs = [np.random.default_rng([spec.master_seed, t]) for t in range(t0, t0 + n)]
    tx_bits = np.empty((n, cfg.l * c.bits_per_symbol), dtype=np.uint8)
    h = np.empty((n, cfg.nr, cfg.m), dtype=np.complex128)
    for i, rng in enumerate(rngs):
        tx_bits[i] = rng.integers(0, 2, size=tx_bits.shape[1], dtype=np.uint8)
        h[i] = sample_channel(cfg.nr, cfg.m, rng).h
    tx_idx = symbol_indices(tx_bits, c).reshape(n, cfg.l)
    x = c.points[tx_idx]
    noise = NoiseSpec.from_snr(snr_db, float(cfg.m))

    if prep.code is None:
        # overload: l streams summed onto the m spatial streams, unit energy
        # per transmit dimension; the composed channel has duplicated columns
        copies = cfg.l // cfg.m
        stack = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        redraws = np.zeros(n, dtype=np.int64)
        y = apply_channel(ChannelRealization(h), (stack @ x[..., None])[..., 0], noise, rngs)
        # minimum-norm least squares on the underdetermined composed system
        x_hat = np.stack(
            [np.linalg.lstsq(h_i @ stack, y_i, rcond=None)[0] for h_i, y_i in zip(h, y)]
        )
    else:
        z = multiplex(x, prep.code.phi, cfg)
        channel, redraws = _usable_channels(h, rngs)
        y = apply_channel(channel, z, noise, rngs)
        x_hat = demux(y, channel, prep.code, solver=prep.solver).x_hat

    rx_idx = nearest_point_indices(x_hat, c).reshape(n, cfg.l)
    rx_bits = c.labels[rx_idx].reshape(n, -1)
    return _Chunk(
        tx_bits,
        rx_bits,
        (tx_bits != rx_bits).sum(axis=1),
        (tx_idx != rx_idx).sum(axis=1),
        redraws,
    )


def _chunk_size(spec: ExperimentSpec, cap: int, done: int, errors: int) -> int:
    """Trials in the next chunk of an SNR point after ``done`` trials.

    Without early stop it is the memory cap.  Otherwise the chunk doubles
    (1, 2, 4, ...) until a first error, then it is the expected number of
    trials left to the stop at the error rate seen so far.
    """
    size = min(spec.trials - done, cap)
    target = spec.early_stop_errors
    if target:
        size = min(size, done + 1 if errors == 0 else -(-(target - errors) * done // errors))
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
    checks).
    """
    trial_index = require_int(trial_index, "trial_index")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    point = spec.snr_db[0] if snr_db is None else _snr_point(snr_db)
    prep = _prepare(spec, phi)
    chunk = _run_chunk(prep, trial_index, 1, point)
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

    Trials run in chunks (see the module docstring).  A point stops at the
    first trial whose cumulative bit errors reach ``early_stop_errors``, as
    if trials ran one at a time: later trials of its chunk are dropped, and
    when a chunk raises, its trials run again one at a time, so an error
    surfaces only from a trial the sequential rule reaches.
    """
    prep = _prepare(spec, phi)
    target = spec.early_stop_errors
    rows = []
    for snr in spec.snr_db:
        trials = bit_errors = sym_errors = redraws = 0
        one_by_one_until = 0
        while trials < spec.trials and not (target and bit_errors >= target):
            if trials < one_by_one_until:
                n = 1
            else:
                n = _chunk_size(spec, prep.chunk_cap, trials, bit_errors)
            try:
                chunk = _run_chunk(prep, trials, n, snr)
            except Exception:
                # whatever a trial raises, rerun its chunk one trial at a
                # time: the error may belong to a trial past the stop
                if n == 1:
                    raise
                one_by_one_until = trials + n
                continue
            if target:
                hit = np.flatnonzero(bit_errors + np.cumsum(chunk.bit_errors) >= target)
                n = int(hit[0]) + 1 if hit.size else n
            trials += n
            bit_errors += int(chunk.bit_errors[:n].sum())
            sym_errors += int(chunk.symbol_errors[:n].sum())
            redraws += int(chunk.redraws[:n].sum())
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
