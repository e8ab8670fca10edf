"""Tests of the input boundary: declared ranges, one-line ``SpecError``s, and
a fuzz over config dicts and ``csmimo simulate`` argv."""

import ast
import json
import string
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import recipe_path
import csmimo
from csmimo import harness
from csmimo.cli import main
from csmimo.errors import BadSubblockShape, CsmimoError, DictionaryTooLarge, SpecError
from csmimo.spec import (BASELINES, RANGES, SOLVERS, TRIAL_BYTES, MuxConfig, read_config,
                         spec_from_dict)

RECIPES = ("mimo2x2_l4", "mimo4x4_l8", "mimo20x20_l40")

INT_FIELDS = ("nt", "nr", "l", "j", "phi_seed", "dictionary_cap", "trials", "master_seed",
              "early_stop_errors")


def recipe(name: str = "mimo2x2_l4") -> dict:
    return read_config(recipe_path(f"{name}.json"))


def refused(make) -> CsmimoError:
    """The error ``make()`` raises: a library error whose message is one line."""
    with pytest.raises(CsmimoError) as err:
        make()
    message = str(err.value)
    assert message and "\n" not in message and "\r" not in message
    return err.value


@pytest.mark.parametrize("field, value, message", [
    ("trials", 0, "trials must be an integer in 1..2**32-1"),
    ("nt", "a", "nt must be an integer in 1..256"),
    ("nr", 0, "nr must be an integer in 1..256"),
    ("snr_db", None, "snr_db must be in -1000..1000 dB, or inf"),
    ("constellation", "psk8", "constellation must be one of ('qpsk', 'qam16')"),
    ("constellation", "QPSK", "constellation must be one of ('qpsk', 'qam16')"),
    ("solver", None, "solver must be one of ('ml', 'omp', 'oneshot')"),
    ("baseline", "mmse", "baseline must be one of ('zf', 'overload') or none"),
    ("j", 0, "j must be an integer in 1..4096"),
    ("master_seed", -1, "master_seed must be an integer in 0..2**64-1"),
    ("master_seed", 2**64, "master_seed must be an integer in 0..2**64-1"),
    ("early_stop_errors", -1, "early_stop_errors must be an integer in 0..2**32"),
    ("dictionary_cap", 2**20 + 1, "dictionary_cap must be an integer in 1..2**20"),
    pytest.param("l", 4 * 10**5000, "l must be an integer in 1..4096", id="l-5001-digits"),
    ("turbo", True, "unknown config keys: ['turbo']"),
])
def test_each_bad_field_is_one_spec_error_line(field, value, message):
    """A bad value of any field raises :class:`SpecError`, a ``ValueError``
    too, whose one line names the field and its range or choices, never the
    value."""
    err = refused(lambda: spec_from_dict({**recipe(), field: value}))
    assert type(err) is SpecError and isinstance(err, ValueError)
    assert str(err) == message


def test_setup_rules_keep_their_errors():
    """A sub-block count that does not divide ``l`` stays
    :class:`BadSubblockShape`; fewer streams than ``m`` and an overload of
    ``l`` not a multiple of ``m`` are :class:`SpecError`."""
    assert type(refused(lambda: spec_from_dict({**recipe(), "l": 3}))) is BadSubblockShape
    assert str(refused(lambda: MuxConfig(nt=4, nr=4, l=2, j=1))).startswith("l must be at least m")
    err = refused(lambda: spec_from_dict({**recipe("mimo4x4_l8"), "l": 6, "baseline": "overload"}))
    assert str(err) == "the overload baseline needs l to be a multiple of m"


def test_ranges_name_every_integer_field():
    """The range table covers every integer field of both config classes."""
    assert set(INT_FIELDS) <= set(RANGES)
    for field in INT_FIELDS:
        lo, hi = RANGES[field]
        base = recipe()
        # the integer range's ends are accepted where the setup allows them
        if field in ("phi_seed", "master_seed", "trials", "early_stop_errors"):
            for value in (lo, hi):
                assert spec_from_dict({**base, field: value}) is not None
        for value in (lo - 1, hi + 1):
            assert str(refused(lambda: spec_from_dict({**base, field: value}))).startswith(
                f"{field} must be an integer in ")


def test_largest_setups_are_accepted():
    """The antenna and stream ranges' upper ends are a setup: a
    (256,256)-4096 zf baseline runs a trial."""
    spec = spec_from_dict({**recipe(), "nt": 256, "nr": 256, "l": 4096, "j": 256,
                           "baseline": "zf", "snr_db": [10], "trials": 1})
    assert harness.run_sweep(spec).rows[0].trials == 1
    assert type(refused(lambda: MuxConfig(nt=257, nr=4, l=8, j=2))) is SpecError


@pytest.mark.parametrize("setup, product", [
    ({"nt": 256, "nr": 256, "l": 2048, "j": 256}, "16*256*256*65536 B"),
    ({"nt": 20, "nr": 256, "l": 40, "j": 10, "constellation": "qam16"}, "16*10*256*65536 B"),
], ids=["(256,256)-2048", "(20,256)-40-qam16"])
def test_oneshot_past_its_trial_bytes_is_refused(setup, product):
    """A ``oneshot`` setup whose one trial's candidate contributions,
    ``16·J·nr·d`` bytes, pass ``TRIAL_BYTES`` is refused in one line
    at once, before any table or trial: the (256,256)-2048 search would
    need 64 GiB a trial and the (20,256)-40 QAM16 one 2.5 GiB.  ``ml`` and
    the baselines build no such contributions and keep the setup."""
    raw = {**recipe(), **setup, "solver": "oneshot"}
    start = time.perf_counter()
    err = refused(lambda: spec_from_dict(raw))
    assert time.perf_counter() - start < 1.0
    assert type(err) is DictionaryTooLarge
    assert str(err) == (f"oneshot candidate contributions of one trial, 16*J*nr*d = {product},"
                        f" exceed {TRIAL_BYTES} B")
    assert spec_from_dict({**raw, "solver": "ml"}).solver == "ml"
    assert spec_from_dict({**raw, "baseline": "zf"}).baseline == "zf"


def test_oneshot_trial_bytes_bound_is_inclusive():
    """QAM16 (4,4)-5 at J = 1 and ``d = 16**5``: its 4 receive rows take
    exactly ``TRIAL_BYTES`` and are accepted, a fifth is not."""
    raw = {**recipe(), "nt": 4, "l": 5, "j": 1, "constellation": "qam16",
           "dictionary_cap": 2**20, "solver": "oneshot"}
    assert 16 * 4 * 2**20 == TRIAL_BYTES
    assert spec_from_dict({**raw, "nr": 4}).config.nr == 4
    assert type(refused(lambda: spec_from_dict({**raw, "nr": 5}))) is DictionaryTooLarge


@pytest.mark.parametrize("setup, message", [
    ({"nt": 256, "nr": 256, "l": 2560, "j": 128, "dictionary_cap": 2**20},
     "ml scan of one trial, 16*J*width = 16*128*1048576 B"),
    ({"nt": 256, "nr": 256, "l": 4096, "j": 256}, "ml scan of one trial, 16*J*width = 16*256*65536 B"),
    ({"nt": 256, "nr": 256, "l": 1024, "j": 128, "solver": "omp"},
     "omp scan of one trial, 32*J*width = 32*128*65536 B"),
], ids=["(256,256)-2560-ml", "(256,256)-4096-ml", "(256,256)-1024-omp"])
def test_a_scan_past_its_trial_bytes_is_refused(setup, message):
    """An ``ml`` or ``omp`` setup whose one-trial scan, ``16·J·width`` or
    ``32·J·width`` bytes, passes ``TRIAL_BYTES`` is refused in one line at
    once, before any table or trial: 2 GiB a trial for the (256,256)-2560
    ``ml`` scan at J = 128, 256 MiB for (256,256)-4096 ``ml`` at J = 256 and
    for (256,256)-1024 ``omp`` at J = 128.  A baseline keeps the setup."""
    raw = {**recipe(), **setup}
    start = time.perf_counter()
    err = refused(lambda: spec_from_dict(raw))
    assert time.perf_counter() - start < 1.0
    assert type(err) is DictionaryTooLarge
    assert str(err) == f"{message}, exceeds {TRIAL_BYTES} B"
    assert spec_from_dict({**raw, "baseline": "zf"}).baseline == "zf"


def test_scan_trial_bytes_bound_is_inclusive():
    """The largest setup run today, a (4,4)-8 QAM16 ``omp`` pick, holds
    4 MiB and is accepted.  A QPSK ``ml`` scan of ``2**20`` level tuples
    (``n = 20``) holds exactly ``TRIAL_BYTES`` at J = 4, and a QPSK ``omp``
    pick over ``4**10`` columns (``n = 10``) at J = 2: each is accepted
    there and at every smaller J, and refused at the next."""
    qam16 = {**recipe("mimo4x4_l8"), "constellation": "qam16", "solver": "omp"}
    assert spec_from_dict(qam16).solver == "omp"
    assert 16 * 4 * 2**20 == 32 * 2 * 4**10 == TRIAL_BYTES
    for solver, n in [("ml", 20), ("omp", 10)]:
        for j, fits in [(1, True), (2, True), (4, solver == "ml"), (8, False)]:
            raw = {**recipe(), "nt": 2 * j, "nr": 2 * j, "l": n * j, "j": j,
                   "dictionary_cap": 2**20, "solver": solver}
            if fits:
                assert spec_from_dict(raw).config.j == j
            else:
                assert type(refused(lambda: spec_from_dict(raw))) is DictionaryTooLarge


def test_unreadable_config_is_one_line_naming_the_file(tmp_path):
    """Bad JSON, an integer past Python's 4300-digit limit and nesting past
    the parser's recursion limit each fail as the file, in one line."""
    path = tmp_path / "cfg.json"
    for text in ('{"nt": ', '{"l": 4' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        path.write_text(text)
        err = refused(lambda: read_config(path))
        assert type(err) is SpecError and str(err).startswith(f"config {path} is not readable JSON")
    path.write_bytes(b'{"nt": "\xff"}')
    assert type(refused(lambda: read_config(path))) is SpecError
    path.write_text("[1, 2]")
    assert str(refused(lambda: read_config(path))) == f"config {path} must hold a JSON object"


def test_json_numbers_are_read_exactly(tmp_path):
    """A fractional or exponent number is an exact ``Decimal``: ``1e400``
    is past the dB range, not ``inf``, ``1e5`` trials are 100000, and
    ``0.1`` dB is the float ``0.1``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**recipe(), "snr_db": [0.5], "trials": 0.5})
                    .replace("[0.5]", "[0.1, 1e400]").replace(": 0.5", ": 1e5"))
    raw = read_config(path)
    assert raw["snr_db"] == [Decimal("0.1"), Decimal("1e400")]
    assert str(refused(lambda: spec_from_dict(raw))) == "snr_db must be in -1000..1000 dB, or inf"
    spec = spec_from_dict({**raw, "snr_db": raw["snr_db"][:1]})
    assert spec.trials == 100_000 and type(spec.trials) is int and spec.snr_db == (0.1,)


@pytest.mark.parametrize("changes, flags, message", [
    ({"l": "4" + "0" * 5000}, [], "config {path} is not readable JSON"),
    ({"nt": 10**7, "nr": 10**7, "l": 10**7}, ["--baseline", "zf"],
     "nt must be an integer in 1..256"),
    ({"master_seed": 2**64}, [], "master_seed must be an integer in 0..2**64-1"),
    ({"constellation": "QPSK"}, [], "constellation must be one of ('qpsk', 'qam16')"),
], ids=["hugel", "bignt", "bigseed", "upper-case-name"])
def test_cli_refuses_exotic_configs_in_one_line(tmp_path, capsys, changes, flags, message):
    """A 5001-digit ``l`` fails as the file, since Python's JSON reader
    refuses the integer; ``nt = nr = l = 10**7`` with ``--baseline zf``
    fails at its range instead of in ``np.eye``; a seed of ``2**64`` and
    an upper-case constellation name fail at the spec."""
    path = tmp_path / "cfg.json"
    text = json.dumps({**recipe(), **changes})
    for value in changes.values():
        if isinstance(value, str) and value.isdigit():
            # json.dumps cannot write an integer past 4300 digits: its digits go in as text
            text = text.replace(json.dumps(value), value)
    path.write_text(text)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", str(path), *flags, "--trials", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err.startswith("csmimo: error: " + message.format(path=path)) and err.count("\n") == 1


# --- fuzz ------------------------------------------------------------------

# A value of the wrong kind for any field: what read_config hands over
# (fractions and exponents as Decimal), and Decimals no JSON file holds.
_ODD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.floats(), st.decimals(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([10**400, -(10**400), Decimal("1e999999999"), Decimal("-1e-999999999"),
                     Decimal("NaN"), Decimal("sNaN")]),
    st.lists(st.integers(-3, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(),
                                                              max_size=1),
)


def _int_field(name: str, small: tuple[int, int] | None = None):
    """Values of an integer field: in its range (drawn from ``small`` for a
    size, so that a 3-trial sweep stays quick), at and past its ends,
    integral numbers written with an exponent, and odd values."""
    lo, hi = RANGES[name]
    valid = st.integers(*(small or (lo, hi)))
    edges = st.sampled_from([lo - 1, hi + 1] + ([lo, hi] if small is None else [lo]))
    exponent = valid.map(lambda v: Decimal(v).normalize() if v % 2 else float(v))
    # valid twice: about half the draws are in range
    return st.one_of(valid, valid, edges, exponent, _ODD)


_DB = st.one_of(st.floats(-1000, 1000), st.just(float("inf")),
                st.integers(-1000, 1000), st.decimals(-1000, 1000, places=3))
_DB_TEXT = st.one_of(
    st.decimals(-1000, 1000, places=2).map(str), st.sampled_from(["inf", " Infinity", "-inf", "nan"]),
    st.text(alphabet=string.digits + ".e-+", max_size=6))
# every grid form --snr takes as text
_GRID_TEXT = st.one_of(
    _DB_TEXT, st.lists(_DB_TEXT, min_size=1, max_size=3).map(", ".join),
    st.tuples(_DB_TEXT, st.sampled_from(["0.5", "1", "2", "0", "-1", "x", "1e-9", "1e999999999",
                                         "1e-999999999", "sNaN"]), _DB_TEXT)
    .map(":".join),
    st.text(max_size=12), st.sampled_from(["1e400", "0:1:1e400", "-1000:0.1:999.9", "1:2:3:4"]),
)
_GRID = st.one_of(_DB, st.lists(_DB, min_size=1, max_size=4), st.lists(_DB | _ODD, max_size=3),
                  _GRID_TEXT, st.just(10**400), _ODD)
_NAME_ODD = st.one_of(st.text(max_size=8), _ODD)

FIELDS = {
    "nt": _int_field("nt", (1, 8)),
    "nr": _int_field("nr", (1, 8)),
    "l": _int_field("l", (1, 24)),
    "j": _int_field("j", (1, 8)),
    "phi_seed": _int_field("phi_seed"),
    "dictionary_cap": _int_field("dictionary_cap"),
    "trials": _int_field("trials"),
    "master_seed": _int_field("master_seed"),
    "early_stop_errors": _int_field("early_stop_errors"),
    "snr_db": _GRID,
    "constellation": st.one_of(st.sampled_from(["qpsk", "qam16", "QPSK", "Qam16"]), _NAME_ODD),
    "solver": st.one_of(st.sampled_from(SOLVERS), _NAME_ODD),
    "baseline": st.one_of(st.sampled_from(BASELINES + ("none", "", "ZF")), _NAME_ODD),
}


@st.composite
def configs(draw) -> dict:
    """A shipped recipe with up to five fields changed, sometimes a field
    dropped or an unknown one added."""
    raw = recipe(draw(st.sampled_from(RECIPES)))
    for field in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=5, unique=True)):
        raw[field] = draw(FIELDS[field])
    if draw(st.integers(0, 9)) == 0:
        raw.pop(draw(st.sampled_from(sorted(raw))))
    if draw(st.integers(0, 9)) == 0:
        raw[draw(st.text(min_size=1, max_size=4))] = 1
    return raw


def _three_trials(spec):
    return harness.run_sweep(replace(spec, trials=min(spec.trials, 3)))


@given(raw=configs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_config_dicts(raw):
    """A config dict is refused with one library error in one line, or its
    spec runs a 3-trial sweep, which may stop only with a library error (a
    joint search past its budget, say); no other exception escapes."""
    try:
        spec = spec_from_dict(raw)
    except CsmimoError:
        refused(lambda: spec_from_dict(raw))
        return
    try:
        rows = _three_trials(spec).rows
    except CsmimoError:
        refused(lambda: _three_trials(spec))
        return
    assert [r.snr_db for r in rows] == list(spec.snr_db)


_FLAGS = {
    "--snr": _GRID_TEXT,
    "--trials": st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, 2**32 - 1, 2**32]),
    "--seed": st.integers(-(10**30), 10**30) | st.sampled_from([0, 2**64 - 1, 2**64]),
    "--solver": st.sampled_from(SOLVERS),
    "--baseline": st.sampled_from(["zf", "overload"]),
}


@given(name=st.sampled_from(RECIPES),
       flags=st.dictionaries(st.sampled_from(sorted(_FLAGS)), st.none(), max_size=5),
       data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                     HealthCheck.function_scoped_fixture])
def test_fuzz_simulate_argv(tmp_path, capsys, name, flags, data):
    """``csmimo simulate`` with any flags, valued as argparse types them,
    writes its CSV and exits 0, or prints one error line and exits 2."""
    argv = ["simulate", "--config", recipe_path(f"{name}.json")]
    for flag in flags:
        argv.append(f"{flag}={data.draw(_FLAGS[flag])}")
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    with mock.patch("csmimo.cli.run_sweep", side_effect=_three_trials):
        rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 0:
        assert err == "" and out.read_text().startswith("# csmimo sweep result")
    else:
        assert rc == 2 and err.startswith("csmimo: error: ") and err.count("\n") == 1
        assert not out.exists()


# the package's raises of a plain ValueError or TypeError, as (module,
# innermost function, exception): none is a caller-input error
PLAIN_RAISES = sorted([
    ("harness.py", "generate_state", "ValueError"),  # a guard on numpy's seeding request
    ("spec.py", "db_point", "TypeError"),  # caught on the next line
])


def test_caller_input_errors_are_csmimo_errors():
    """Every other error the package raises on bad input is a
    ``CsmimoError``, which ``csmimo`` prints in one line: no module raises
    a plain ``ValueError`` or ``TypeError`` outside :data:`PLAIN_RAISES`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append((path.name, where, exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(csmimo.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    assert sorted(found) == PLAIN_RAISES
