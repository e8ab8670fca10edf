"""End-to-end tests of the command line interface."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from conftest import recipe_path
from csmimo.cli import main
from csmimo.harness import CSV_HEADER

GOLDEN = Path(__file__).parent / "golden"


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main(
        [
            "simulate",
            "--config", recipe_path("mimo2x2_l4.json"),
            "--snr", "0:10:10",
            "--trials", "60",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == CSV_HEADER
    assert len(data) == 3  # header + two SNR points
    assert "(2,2)-4" in capsys.readouterr().out


def test_simulate_baseline_flag(tmp_path):
    out = tmp_path / "zf.csv"
    rc = main(
        [
            "simulate",
            "--config", recipe_path("mimo4x4_l8.json"),
            "--snr", "10",
            "--trials", "40",
            "--baseline", "zf",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "# baseline: zf" in text
    assert "# streams_per_channel_use: 4" in text


def test_simulate_solver_override(tmp_path):
    out = tmp_path / "oneshot.csv"
    rc = main(
        [
            "simulate",
            "--config", recipe_path("mimo2x2_l4.json"),
            "--snr", "inf",
            "--trials", "25",
            "--solver", "oneshot",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "# solver: oneshot" in out.read_text()


def test_simulate_rejects_bad_config(tmp_path, capsys):
    """Bad input prints one error line on stderr and exits 2, no traceback."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nt": 2, "nope": 1}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("csmimo: error: unknown config keys: ['nope']")
    assert err.count("\n") == 1


def test_fractional_count_is_one_line(tmp_path, capsys):
    raw = json.loads(Path(recipe_path("mimo2x2_l4.json")).read_text(encoding="utf-8"))
    cfg = tmp_path / "frac.json"
    cfg.write_text(json.dumps({**raw, "trials": 2.7}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "csmimo: error: trials must be an integer, got 2.7\n"


@pytest.mark.parametrize("snr", ["5000", "1e308", "-1e308", "-3200"])
def test_snr_without_finite_noise_variance_is_one_line(tmp_path, capsys, snr):
    """An SNR point whose noise variance over- or underflows fails at the
    spec, not as a traceback from inside a trial."""
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", recipe_path("mimo2x2_l4.json"), "--trials", "3",
               f"--snr={snr}", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"csmimo: error: SNR grid point {float(snr)!r} dB must be finite")
    assert err.count("\n") == 1


def test_overflowing_snr_is_one_line(tmp_path, capsys):
    """An SNR beyond the float range is rejected, not run as a noiseless
    point."""
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", recipe_path("mimo2x2_l4.json"), "--trials", "3",
               "--snr=1e400", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == "csmimo: error: grid '1e400': '1e400' dB is beyond the float range\n"


def test_missing_config_file_is_one_line(tmp_path, capsys):
    rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("csmimo: error: ")


def test_analyze_report(capsys):
    rc = main(["analyze", "--config", recipe_path("mimo4x4_l8.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "setup: (4,4)-8" in text
    assert "spark(phi): 3" in text
    assert "unique=True" in text
    assert "delta_2(phi*psi)" in text


def test_analyze_report_matches_the_golden(capsys):
    rc = main(["analyze", "--config", recipe_path("mimo4x4_l8.json")])
    assert rc == 0
    golden = (GOLDEN / "mimo4x4_l8_analyze.txt").read_text(encoding="ascii")
    assert capsys.readouterr().out == golden


def test_analyze_compares_the_qam16_level_tuples(tmp_path, capsys):
    """A QAM16 (4,4)-8 dictionary has d = 65536 columns; its uniqueness is
    read off the 256 real I/Q level tuples of each half."""
    raw = json.loads(Path(recipe_path("mimo4x4_l8.json")).read_text(encoding="utf-8"))
    cfg = tmp_path / "qam16.json"
    cfg.write_text(json.dumps({**raw, "constellation": "qam16"}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dictionary: n=4, d=65536 columns" in text
    assert "uniqueness(phi*psi): unique=True, min pairwise distance 0.0450147" in text
    assert text == (GOLDEN / "mimo4x4_l8_qam16_analyze.txt").read_text(encoding="ascii")


@pytest.mark.parametrize("constellation", ["qpsk", "qam16"])
def test_analyze_builds_no_dictionary(tmp_path, capsys, constellation):
    """``analyze`` prints ``d = q**n`` and reads uniqueness off the I/Q level
    tuples, so it builds no ``q**n`` dictionary, and its report is still the
    golden one."""
    raw = json.loads(Path(recipe_path("mimo4x4_l8.json")).read_text(encoding="utf-8"))
    cfg = tmp_path / "recipe.json"
    cfg.write_text(json.dumps({**raw, "constellation": constellation}))
    with mock.patch("csmimo.dictionary.build_dictionary") as build, \
            mock.patch("csmimo.detection.build_dictionary", build):
        rc = main(["analyze", "--config", str(cfg)])
    assert rc == 0
    assert build.call_count == 0
    golden = {"qpsk": "mimo4x4_l8_analyze.txt", "qam16": "mimo4x4_l8_qam16_analyze.txt"}
    assert capsys.readouterr().out == (GOLDEN / golden[constellation]).read_text(encoding="ascii")


def recipe_copy(tmp_path, recipe: str, **changes) -> str:
    """A shipped recipe with ``changes`` applied, written under ``tmp_path``."""
    raw = json.loads(Path(recipe_path(recipe)).read_text(encoding="utf-8"))
    cfg = tmp_path / "copy.json"
    cfg.write_text(json.dumps({**raw, **changes}))
    return str(cfg)


def j4_copy(tmp_path) -> str:
    """The shipped (20,20)-40 recipe at J = 4: n = 10, so 2**10 level tuples
    per ``ml`` half and 4**10 dictionary columns."""
    return recipe_copy(tmp_path, "mimo20x20_l40.json", j=4)


def test_simulate_past_the_cap_is_one_line_before_any_trial(tmp_path, capsys):
    with mock.patch("csmimo.cli.run_sweep") as sweep:
        rc = main(["simulate", "--config", j4_copy(tmp_path), "--solver", "omp",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2 and sweep.call_count == 0
    assert capsys.readouterr().err == (
        "csmimo: error: omp per-block table width 4^10 = 1048576 exceeds cap 65536\n"
    )


def test_analyze_past_the_cap_is_one_line_and_allocates_nothing(tmp_path, capsys):
    """The J = 4 copy is an ``ml`` setup, but its uniqueness check would
    hold 2**10 x 2**10 distances: ``analyze`` refuses before it draws phi."""
    config = j4_copy(tmp_path)
    tracemalloc.start()
    try:
        with mock.patch("csmimo.cli.gen_phi") as gen:
            rc = main(["analyze", "--config", config])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and gen.call_count == 0
    assert capsys.readouterr().err == (
        "csmimo: error: analyze per-block table width 4^10 = 1048576 exceeds cap 65536\n"
    )
    assert peak < 1 << 20


def test_wide_setup_runs_only_the_baselines(tmp_path, capsys):
    """(4,4)-36 at J = 2 holds 2**18 level tuples per ``ml`` half-scan:
    the ``ml`` sweep and ``analyze`` refuse it in one line, and a baseline,
    which builds no table, runs on it."""
    config, out = recipe_copy(tmp_path, "mimo4x4_l8.json", l=36), str(tmp_path / "x.csv")
    refused = "csmimo: error: ml per-block table width 2^18 = 262144 exceeds cap 65536\n"
    assert main(["simulate", "--config", config, "--trials", "3", "--out", out]) == 2
    assert capsys.readouterr().err == refused
    assert main(["analyze", "--config", config]) == 2
    assert capsys.readouterr().err == refused
    assert main(["simulate", "--config", config, "--baseline", "zf", "--snr", "0,10,20",
                 "--trials", "30", "--out", out]) == 0
    assert "# baseline: zf" in Path(out).read_text()


@pytest.mark.parametrize("changes, flag", [
    ({"solver": "omp"}, ["--solver", "ml"]),  # omp on the one-row (2,2)-4 sub-blocks
    ({"snr_db": "5000"}, ["--snr", "10"]),  # no finite noise variance
])
def test_flags_replace_file_values_before_the_check(tmp_path, capsys, changes, flag):
    """A file value the spec refuses does not stop a run whose flag
    replaces it: the spec is checked once, with the flags applied."""
    config, out = recipe_copy(tmp_path, "mimo2x2_l4.json", **changes), str(tmp_path / "x.csv")
    assert main(["simulate", "--config", config, "--trials", "3", "--out", out]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert main(["simulate", "--config", config, "--trials", "3", *flag, "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_phi_seed_flag_replaces_the_file_value_before_the_check(tmp_path, capsys):
    config = recipe_copy(tmp_path, "mimo2x2_l4.json", phi_seed=-1)
    assert main(["analyze", "--config", config]) == 2
    assert capsys.readouterr().err == "csmimo: error: phi_seed must be non-negative\n"
    assert main(["analyze", "--config", config, "--phi-seed", "17"]) == 0
    assert "seed 17" in capsys.readouterr().out


def test_analyze_phi_seed_override(capsys):
    rc = main(
        ["analyze", "--config", recipe_path("mimo2x2_l4.json"), "--phi-seed", "17"]
    )
    assert rc == 0
    assert "seed 17" in capsys.readouterr().out


def test_analyze_dump_phi(tmp_path, capsys):
    """The dump reads back bit for bit with ``np.loadtxt``."""
    from csmimo.csmux import MuxConfig, gen_phi

    dump = tmp_path / "phi.txt"
    rc = main(
        [
            "analyze",
            "--config", recipe_path("mimo4x4_l8.json"),
            "--dump-phi", str(dump),
        ]
    )
    assert rc == 0
    expected = gen_phi(MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880))
    import numpy as np

    np.testing.assert_array_equal(np.loadtxt(dump, ndmin=2), expected.phi)


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["plot"])
