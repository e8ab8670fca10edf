"""End-to-end tests of the command line interface."""

import json

import pytest

from conftest import recipe_path
from csmimo.cli import main
from csmimo.harness import CSV_HEADER


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
    raw = json.loads(open(recipe_path("mimo2x2_l4.json")).read())
    cfg = tmp_path / "frac.json"
    cfg.write_text(json.dumps({**raw, "trials": 2.7}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "csmimo: error: trials must be an integer, got 2.7\n"


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


def test_analyze_phi_seed_override(capsys):
    rc = main(
        ["analyze", "--config", recipe_path("mimo2x2_l4.json"), "--phi-seed", "17"]
    )
    assert rc == 0
    assert "seed 17" in capsys.readouterr().out


def test_analyze_dump_phi(tmp_path, capsys):
    from csmimo.csmux import MuxConfig, gen_phi, phi_from_text

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

    np.testing.assert_array_equal(phi_from_text(dump.read_text()).phi, expected.phi)


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["plot"])
