"""The input boundary: the setup and sweep a caller asks for, checked once.

Every integer of :class:`MuxConfig` and :class:`ExperimentSpec`, and the
counts a caller hands ``wilson_interval``, lies in its range of
:data:`RANGES`; every SNR point lies in the dB range there or is ``inf``.  Anything else, or a
name that is not one of its field's choices, raises :class:`SpecError` in
one line that names the field and its range or choices, never the value.
A seed below ``2**64`` and a trial index below ``trials``, so below
``2**32``, are at most three 32-bit words of ``SeedSequence`` entropy, all
the sweep's stream code hashes.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, Field, dataclass, fields
from decimal import Decimal
from numbers import Real
from pathlib import Path

from .errors import BadSubblockShape, DictionaryTooLarge, SpecError
from .modem import get_constellation

SOLVERS = ("ml", "omp", "oneshot")

BASELINES = (None, "zf", "overload")

# the config-file spellings of the scheme itself, no baseline
NO_BASELINE = (None, "", "none")

# name -> (lo, hi), both included: every integer an input holds, the SNR
# points in dB and the number of points in a grid
RANGES = {
    "nt": (1, 256),
    "nr": (1, 256),
    "l": (1, 4096),
    "j": (1, 4096),
    "phi_seed": (0, 2**64 - 1),
    "dictionary_cap": (1, 2**20),  # a 2**20-tuple ml table takes about 1 s and 0.5 GB
    "trials": (1, 2**32 - 1),
    "master_seed": (0, 2**64 - 1),
    "early_stop_errors": (0, 2**32),
    "total": (1, 2**63 - 1),  # the sweep tallies in int64
    "errors": (0, 2**63 - 1),
    "snr_db": (-1000, 1000),
    "snr_db points": (1, 10_000),
}


def _range(name: str) -> str:
    """``RANGES[name]`` as ``lo..hi``, a bound past ``2**16`` that is a
    power of two, or one less, written as such."""
    def bound(v):
        for k, text in ((v, "2**{}"), (v + 1, "2**{}-1")):
            if k > 2**16 and k & (k - 1) == 0:
                return text.format(k.bit_length() - 1)
        return str(v)
    return "..".join(map(bound, RANGES[name]))


def checked(name: str, value) -> int:
    """``value`` as ``int`` if it is a Python or numpy integer, not a
    boolean, in ``RANGES[name]``; otherwise :class:`SpecError`."""
    lo, hi = RANGES[name]
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not lo <= number <= hi:
        raise SpecError(f"{name} must be an integer in {_range(name)}")
    return number


def db_point(name: str, value) -> float:
    """``value`` as a float dB point: a real number, or decimal text read
    exactly, in the ``snr_db`` range of :data:`RANGES`, or ``+inf`` (no
    noise); otherwise :class:`SpecError` naming ``name``."""
    lo, hi = RANGES["snr_db"]
    try:
        if isinstance(value, str):
            value = Decimal(value.strip())
        # float first: the sweep checks each slice's point, always a float
        elif isinstance(value, bool) or not isinstance(value, (float, Real, Decimal)):
            raise TypeError
        fits = value == math.inf or lo <= value <= hi
    except (TypeError, ValueError, ArithmeticError):
        fits = False
    if not fits:
        raise SpecError(f"{name} must be in {_range('snr_db')} dB, or inf")
    return float(value)


def _points(count: int) -> None:
    lo, hi = RANGES["snr_db points"]
    if not lo <= count <= hi:
        raise SpecError(f"snr_db must hold {_range('snr_db points')} points")


def _choice(name: str, value, choices) -> None:
    """:class:`SpecError` unless ``value`` is ``None`` or a string, and one
    of ``choices``."""
    if not (value is None or isinstance(value, str)) or value not in choices:
        shown = tuple(c for c in choices if c is not None)
        raise SpecError(f"{name} must be one of {shown}" + (" or none" if None in choices else ""))


def _check_ints(obj) -> None:
    """:func:`checked` on each field of a frozen dataclass annotated
    ``int``, stored back as ``int``.  Annotations are postponed, so a
    field's type is its text."""
    for name in [f.name for f in fields(obj) if f.type == "int"]:
        object.__setattr__(obj, name, checked(name, getattr(obj, name)))


@dataclass(frozen=True)
class MuxConfig:
    """Physical-layer configuration of one multiplexing setup.

    ``m = min(nt, nr)`` spatial streams carry ``l >= m`` modulated streams,
    so the compression ratio is ``rho = m / l``.  ``j`` must divide both
    ``l`` and ``m`` so the sub-blocks have integral shape, and
    ``constellation`` must name a registry alphabet exactly.
    ``dictionary_cap`` bounds the entries of the largest per-block table a
    solver builds, which :func:`block_width` checks per solver; a baseline
    builds none.  Each integer lies in its range of :data:`RANGES`.
    """

    nt: int
    nr: int
    l: int
    j: int
    phi_seed: int = 0
    constellation: str = "qpsk"
    dictionary_cap: int = 65536

    def __post_init__(self) -> None:
        _check_ints(self)
        if self.l < self.m:
            raise SpecError("l must be at least m = min(nt, nr)")
        if self.l % self.j or self.m % self.j:
            raise BadSubblockShape(f"j={self.j} must divide both l={self.l} and m={self.m}")
        get_constellation(self.constellation)

    @property
    def m(self) -> int:
        return min(self.nt, self.nr)

    @property
    def rho(self) -> float:
        return self.m / self.l

    @property
    def subblock_rows(self) -> int:
        return self.m // self.j

    @property
    def subblock_cols(self) -> int:
        return self.l // self.j


# Most bytes one trial's oneshot search may hold in its candidate
# contributions, 16 B for each of the d candidates of each of the J blocks
# on each of the nr rows: eight times the (4,4)-8 QAM16 search's 8 MiB.
# The search walks its trials in blocks of at least one, so a setup past
# this would take that much memory per trial, however small the sweep.
ONESHOT_TRIAL_BYTES = 1 << 26


def block_width(cfg: MuxConfig, solver: str) -> int:
    """Entries in the largest per-block table ``solver`` builds for ``cfg``,
    whose sub-blocks hold ``n = l/j`` symbols of an alphabet of ``q``: the
    ``√q**n`` real I/Q level tuples each ``ml`` half-scan scores, and
    ``q**n`` for the dictionary of ``omp`` and ``oneshot`` and the pairwise
    level-tuple distances of ``analyze``.  The one check that ``solver``
    runs on ``cfg``: :class:`DictionaryTooLarge` when ``q**n`` overflows the
    int64 joint index or the width exceeds ``cfg.dictionary_cap``, or when
    one ``oneshot`` trial's candidate contributions, ``16·J·nr·d`` bytes,
    exceed :data:`ONESHOT_TRIAL_BYTES`, and :class:`BadSubblockShape` for
    ``omp`` on one-row sub-blocks, where every column's normalized
    correlation is ``|z|``, so rounding makes the pick.
    """
    c, n = get_constellation(cfg.constellation), cfg.subblock_cols
    # q = 2**bits: compare exponents, so a long sub-block costs no power
    if c.bits_per_symbol * n >= 63:
        raise DictionaryTooLarge(f"joint index range {c.order}^{n} does not fit in int64")
    base = c.iq_levels.size if solver == "ml" else c.order
    width = base**n  # at most q**n < 2**63
    if width > cfg.dictionary_cap:
        raise DictionaryTooLarge(
            f"{solver} per-block table width {base}^{n} = {width} "
            f"exceeds cap {cfg.dictionary_cap}"
        )
    if solver == "oneshot" and 16 * cfg.j * cfg.nr * width > ONESHOT_TRIAL_BYTES:
        raise DictionaryTooLarge(
            f"oneshot candidate contributions of one trial, 16*J*nr*d = 16*{cfg.j}*{cfg.nr}*"
            f"{width} B, exceed {ONESHOT_TRIAL_BYTES} B"
        )
    if solver == "omp" and cfg.subblock_rows == 1:
        raise BadSubblockShape(
            "omp needs m/j >= 2: with one-row sub-blocks every column ties on |z|"
        )
    return width


@dataclass(frozen=True)
class ExperimentSpec:
    """Full parameterization of one sweep.

    ``snr_db`` takes any grid form :func:`parse_snr_grid` reads and is
    stored sorted; its points must be distinct.  ``trials`` caps the Monte
    Carlo count per point; ``early_stop_errors`` ends a point once that
    many bit errors have been seen (0 disables early stopping).  Counts and
    seeds are integers in their ranges of :data:`RANGES`.  The scheme's
    ``solver`` must run on the setup, which :func:`block_width` checks: its
    per-block table fits ``dictionary_cap`` and the int64 joint index,
    ``oneshot``'s per-trial contributions fit :data:`ONESHOT_TRIAL_BYTES`,
    and ``omp`` has sub-blocks of ``m/j >= 2`` rows.  A baseline builds no
    table and runs on any setup.  Config files hold exactly these fields
    and those of :class:`MuxConfig`.
    """

    config: MuxConfig
    snr_db: tuple[float, ...]
    trials: int
    master_seed: int = 0
    solver: str = "ml"
    baseline: str | None = None
    early_stop_errors: int = 200

    def __post_init__(self) -> None:
        _check_ints(self)
        grid = tuple(sorted(parse_snr_grid(self.snr_db)))
        if any(lo == hi for lo, hi in zip(grid, grid[1:])):
            raise SpecError("snr_db must not repeat a point")
        object.__setattr__(self, "snr_db", grid)
        _choice("solver", self.solver, SOLVERS)
        _choice("baseline", self.baseline, BASELINES)
        if self.baseline is None:
            block_width(self.config, self.solver)
        if self.baseline == "overload" and self.config.l % self.config.m:
            raise SpecError("the overload baseline needs l to be a multiple of m")

    @property
    def notation(self) -> str:
        """Setup label: antennas and multiplexed stream count."""
        return f"({self.config.nt},{self.config.nr})-{self.config.l}"

    @property
    def streams(self) -> int:
        """Modulated streams per channel use for the active mode."""
        return self.config.m if self.baseline == "zf" else self.config.l


def parse_snr_grid(value) -> tuple[float, ...]:
    """dB points from text (``start:step:stop``, a comma list or ``inf``),
    a single number, or any other iterable of numbers, in the given order,
    each a :func:`db_point`, 1 to 10 000 of them.

    Text is read in decimal, so a ``start:step:stop`` range's points are the
    decimals written: ``float(start + i·step)`` for every ``i`` that does
    not pass ``stop``, counted before any is built."""
    if isinstance(value, str):
        text = value.strip()
        if ":" in text:
            return _range_points(text)
        points = [p for p in text.split(",") if p.strip()]
    else:
        try:
            points = list(value)
        except TypeError:  # a single number
            points = [value]
    _points(len(points))
    return tuple(db_point("snr_db", p) for p in points)


def _range_points(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) != 3:
        raise SpecError("snr_db must be start:step:stop, a comma list or a number")
    if float("inf") in (db_point("snr_db", parts[0]), db_point("snr_db", parts[2])):
        raise SpecError("snr_db start:step:stop needs a finite start and stop")
    try:
        step = Decimal(parts[1])
    except ArithmeticError:
        step = Decimal("NaN")
    if not (step.is_finite() and step > 0):
        raise SpecError("snr_db start:step:stop needs a positive finite step")
    start = Decimal(parts[0])
    span = Decimal(parts[2]) - start
    # span / most < step: fewer than most steps fit, and no quotient overflows
    most = RANGES["snr_db points"][1]
    count = int(span // step) + 1 if 0 <= span and span / most < step else 0
    _points(count)
    return tuple(float(start + i * step) for i in range(count))


def _json_value(field: Field, value):
    """A config-file value as ``field`` declares it: an integral number such
    as ``1e5`` as ``int``, and ``None`` for a baseline spelled as in
    :data:`NO_BASELINE`; the spec checks whatever else it gets."""
    if field.type == "int" and isinstance(value, (float, Decimal)):
        # Decimal() of either never raises, and a finite one compares exactly
        exact = Decimal(value)
        if exact.is_finite() and -(2**64) < exact < 2**64 and exact == int(exact):
            return int(exact)
    if field.type == "str | None" and value in NO_BASELINE:
        return None
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
        raise SpecError(f"unknown config keys: {sorted(map(str, unknown))}")
    missing = {k for k, f in schema.items() if f.default is MISSING} - set(raw)
    if missing:
        raise SpecError(f"missing config keys: {sorted(missing)}")
    values = {k: _json_value(schema[k], v) for k, v in raw.items()}
    cfg = MuxConfig(**{f.name: values.pop(f.name) for f in fields(MuxConfig) if f.name in values})
    return ExperimentSpec(cfg, **values)


def read_config(path: str | Path) -> dict:
    """The fields of a JSON config file, unchecked: a caller may change
    them before :func:`spec_from_dict` checks them once.  Numbers with a
    fraction or exponent are read as exact ``Decimal``, so one beyond the
    float range fails its field's range, not as ``inf``.  A file that is
    not JSON Python reads, an integer past its digit limit included, raises
    one :class:`SpecError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=Decimal)
        except (ValueError, RecursionError):
            raise SpecError(f"config {path} is not readable JSON: bad syntax or encoding,"
                            " or an integer too long to read") from None
    if not isinstance(raw, dict):
        raise SpecError(f"config {path} must hold a JSON object")
    return raw


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read a JSON config file into an :class:`ExperimentSpec`."""
    return spec_from_dict(read_config(path))
