"""Monte Carlo experiment driver: SNR sweeps, baselines, CSV output.

Every trial sends one channel use: fresh bits are modulated, compressed,
pushed through an independent Rayleigh draw plus AWGN, then recovered and
demapped.  Trial ``t`` draws all of its randomness from a generator seeded
by ``(master_seed, t)``, so results do not depend on execution order and a
trial index reuses the same bits/channel across SNR points (common random
numbers).  Sweeps stop early at an SNR point once enough bit errors have
accumulated for a stable estimate, up to the configured trial cap.

Two baselines bound the scheme: plain spatial multiplexing with ZF
detection (``m`` streams), and the naive overload that crams all ``l``
streams onto the ``m`` spatial streams by plain summation instead of a
designed compression.  The summed mapping duplicates columns of the
composed channel, so the receiver faces an underdetermined least-squares
problem that fails even without noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import sqrt
from pathlib import Path

import numpy as np

from .channel import NoiseSpec, apply_channel, sample_channel
from .csmux import MeasurementMatrix, MuxConfig, gen_phi, multiplex
from .detection import SOLVERS, channel_is_usable, demux, sensing_matrix, zf_equalize
from .dictionary import SubblockDictionary, build_dictionary
from .errors import RankDeficientChannel
from .modem import Constellation, get_constellation, nearest_point_indices, symbol_indices

BASELINES = (None, "zf", "overload")

CSV_HEADER = "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,throughput,ci_low,ci_high"

_MAX_CHANNEL_REDRAWS = 1000


@dataclass(frozen=True)
class ExperimentSpec:
    """Full parameterization of one sweep.

    ``snr_db`` points must be distinct and finite, or ``inf`` for a
    noiseless point.  ``trials`` caps the Monte Carlo count per SNR point;
    ``early_stop_errors`` ends a point once that many bit errors have been
    seen (0 disables early stopping).
    """

    config: MuxConfig
    snr_db: tuple[float, ...]
    trials: int
    master_seed: int = 0
    solver: str = "ml"
    baseline: str | None = None
    early_stop_errors: int = 200

    def __post_init__(self) -> None:
        grid = tuple(sorted(float(s) for s in self.snr_db))
        if not grid:
            raise ValueError("SNR grid must not be empty")
        for s in grid:
            if np.isnan(s) or s == -np.inf:
                raise ValueError(f"SNR grid point {s!r} dB must be finite or inf")
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
    """Per-sweep precomputation shared by all trials."""

    spec: ExperimentSpec
    modem: Constellation
    phi: MeasurementMatrix | None
    dictionary: SubblockDictionary | None
    sensing: np.ndarray | None


def _prepare(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> _Prepared:
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    if spec.baseline is not None:
        return _Prepared(spec, c, None, None, None)
    phi_m = phi if phi is not None else gen_phi(cfg)
    dictionary = build_dictionary(c, cfg.subblock_cols, cap=cfg.dictionary_cap)
    return _Prepared(spec, c, phi_m, dictionary, sensing_matrix(phi_m, dictionary))


def _draw_usable_channel(nr, m_tx, rng):
    redraws = 0
    h = sample_channel(nr, m_tx, rng)
    while not channel_is_usable(h):
        redraws += 1
        if redraws > _MAX_CHANNEL_REDRAWS:
            raise RankDeficientChannel(
                f"no usable channel in {_MAX_CHANNEL_REDRAWS} redraws"
            )
        h = sample_channel(nr, m_tx, rng)
    return h, redraws


def _run_prepared_trial(prep: _Prepared, trial_index: int, snr_db: float) -> TrialRecord:
    spec = prep.spec
    cfg = spec.config
    c = prep.modem
    rng = np.random.default_rng([spec.master_seed, trial_index])

    n_streams = spec.streams
    tx_bits = rng.integers(0, 2, size=n_streams * c.bits_per_symbol, dtype=np.uint8)
    tx_idx = symbol_indices(tx_bits, c)
    x = c.points[tx_idx]
    redraws = 0

    if spec.baseline == "zf":
        h, redraws = _draw_usable_channel(cfg.nr, n_streams, rng)
        noise = NoiseSpec.from_snr(snr_db, float(n_streams))
        y = apply_channel(h, x, noise, rng)
        rx_idx = nearest_point_indices(zf_equalize(y, h).z_hat, c)
    elif spec.baseline == "overload":
        # l streams summed onto the m spatial streams, unit energy per
        # transmit dimension; the composed channel has duplicated columns
        copies = cfg.l // cfg.m
        stack = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        z = stack @ x
        h = sample_channel(cfg.nr, cfg.m, rng)
        noise = NoiseSpec.from_snr(snr_db, float(cfg.m))
        y = apply_channel(h, z, noise, rng)
        # minimum-norm least squares on the underdetermined composed system
        x_ls = np.linalg.lstsq(h.h @ stack, y, rcond=None)[0]
        rx_idx = nearest_point_indices(x_ls, c)
    else:
        z = multiplex(x, prep.phi, cfg)
        h, redraws = _draw_usable_channel(cfg.nr, cfg.m, rng)
        noise = NoiseSpec.from_snr(snr_db, float(cfg.m))
        y = apply_channel(h, z, noise, rng)
        rec = demux(y, h, prep.phi, prep.dictionary, cfg, prep.sensing, solver=spec.solver)
        rx_idx = nearest_point_indices(rec.x_hat, c)

    rx_bits = c.labels[rx_idx].ravel()
    return TrialRecord(
        trial_index=trial_index,
        snr_db=snr_db,
        bits=tx_bits.size,
        bit_errors=int(np.sum(tx_bits != rx_bits)),
        symbols=n_streams,
        symbol_errors=int(np.sum(tx_idx != rx_idx)),
        redraws=redraws,
        tx_bits=tx_bits,
        rx_bits=rx_bits,
    )


def run_trial(
    spec: ExperimentSpec,
    trial_index: int,
    snr_db: float | None = None,
    phi: MeasurementMatrix | None = None,
) -> TrialRecord:
    """Run one deterministic trial; defaults to the first SNR grid point.

    ``phi`` overrides the seeded Gaussian draw (e.g. an identity matrix for
    degenerate-equivalence checks).
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    point = spec.snr_db[0] if snr_db is None else float(snr_db)
    return _run_prepared_trial(_prepare(spec, phi), trial_index, point)


def run_sweep(spec: ExperimentSpec, phi: MeasurementMatrix | None = None) -> SweepResult:
    """Aggregate trials over the SNR grid, early-stopping on enough errors."""
    prep = _prepare(spec, phi)
    rows = []
    for snr in spec.snr_db:
        bits = bit_errors = symbols = sym_errors = redraws = 0
        trials_run = 0
        for t in range(spec.trials):
            rec = _run_prepared_trial(prep, t, snr)
            bits += rec.bits
            bit_errors += rec.bit_errors
            symbols += rec.symbols
            sym_errors += rec.symbol_errors
            redraws += rec.redraws
            trials_run += 1
            if spec.early_stop_errors and bit_errors >= spec.early_stop_errors:
                break
        ci_low, ci_high = wilson_interval(bit_errors, bits)
        row = SweepRow(
            snr_db=snr,
            trials=trials_run,
            bits=bits,
            bit_errors=bit_errors,
            ber=bit_errors / bits,
            sym_errors=sym_errors,
            ser=sym_errors / symbols,
            throughput=0.0,
            ci_low=ci_low,
            ci_high=ci_high,
            redraws=redraws,
        )
        rows.append(replace(row, throughput=throughput_proxy(row, spec)))
    return SweepResult(spec, tuple(rows))


_SPEC_KEYS = {
    "nt", "nr", "l", "j", "constellation", "phi_seed", "dictionary_cap",
    "snr_db", "trials", "master_seed", "solver", "baseline", "early_stop_errors",
}
_REQUIRED_KEYS = {"nt", "nr", "l", "j", "snr_db", "trials"}


def parse_snr_grid(value) -> tuple[float, ...]:
    """Accept a list of dB values, ``start:step:stop`` or a comma list."""
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    if isinstance(value, (int, float)):
        return (float(value),)
    text = str(value).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (_grid_value(p, text) for p in parts)
        if not all(np.isfinite([start, step, stop])):
            raise ValueError(f"grid {text!r} needs finite start, step and stop")
        if step <= 0:
            raise ValueError("grid step must be positive")
        n = int(np.floor((stop - start) / step + 0.5)) + 1
        if n < 1:
            raise ValueError(f"grid {text!r} is empty")
        return tuple(start + i * step for i in range(n))
    return tuple(_grid_value(p, text) for p in text.split(",") if p.strip())


def _grid_value(field: str, text: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise ValueError(f"grid {text!r}: {field.strip()!r} is not a dB value") from None


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from config-file fields.

    Unknown keys are rejected so typos fail loudly.
    """
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    cfg = MuxConfig(
        nt=int(raw["nt"]),
        nr=int(raw["nr"]),
        l=int(raw["l"]),
        j=int(raw["j"]),
        phi_seed=int(raw.get("phi_seed", 0)),
        constellation=str(raw.get("constellation", "qpsk")),
        dictionary_cap=int(raw.get("dictionary_cap", 65536)),
    )
    baseline = raw.get("baseline")
    return ExperimentSpec(
        config=cfg,
        snr_db=parse_snr_grid(raw["snr_db"]),
        trials=int(raw["trials"]),
        master_seed=int(raw.get("master_seed", 0)),
        solver=str(raw.get("solver", "ml")),
        baseline=None if baseline in (None, "", "none") else str(baseline),
        early_stop_errors=int(raw.get("early_stop_errors", 200)),
    )


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read a JSON config file into an :class:`ExperimentSpec`."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return spec_from_dict(raw)
