import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from twrc import GAIN_FIELDS, Geometry, NoRootError, cli

from helpers import R2T3_GAINS, R3T5_GAINS


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_child(*argv):
    """Run ``python -m twrc`` on this checkout's ``src``, whatever
    ``PYTHONPATH`` or installed copy the parent process has. Kept for the
    tests where the process is the thing tested: one smoke test per
    subcommand, ``--help`` and the two-run determinism checks."""
    env = dict(os.environ)
    env.pop("TWRC_GRID_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "twrc", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*argv, env_extra=None):
    """Run ``cli.main(argv)`` in this process and return what a
    ``python -m twrc`` child would: the exit code (``main``'s return value
    or a ``SystemExit`` code), stdout and stderr. ``TWRC_GRID_CAP`` is
    unset and ``env_extra`` applied for the call. An exception that
    escapes ``main`` fails the test, where a child would exit 1."""
    env = {k: v for k, v in os.environ.items() if k != "TWRC_GRID_CAP"}
    env.update(env_extra or {})
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(["twrc", *argv], code, out.getvalue(), err.getvalue())


def gain_flags(g):
    flags = []
    for name in GAIN_FIELDS:
        flags += [f"--{name}", repr(getattr(g, name))]
    flags += ["--p", repr(g.p)]
    return flags


class TestClassify:
    def test_inline_showcase_gains(self):
        proc = run_child("classify", *gain_flags(R3T5_GAINS))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["regime"] == {"r": "R3", "t": "T5", "side_condition": True}
        assert payload["assignment"] == {"user1": "Both", "user2": "Both"}
        assert payload["source"] == "table"
        assert payload["mu"] == 0.75
        assert "ambiguous" not in payload

    def test_low_weight_uses_transposed_lookup(self):
        proc = run_cli("classify", *gain_flags(R3T5_GAINS), "--mu", "0.4")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["regime"]["r"] == "R3"
        assert payload["assignment"] == {"user1": "Both", "user2": "Both"}
        assert payload["source"] == "table"

    def test_equal_weights_report_the_tie(self):
        proc = run_cli("classify", *gain_flags(R3T5_GAINS), "--mu", "0.5")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ambiguous"] is True
        assert "alternate_assignment" in payload

    def test_gains_file_matches_inline(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps(R3T5_GAINS.to_dict()))
        from_file = run_cli("classify", "--gains", str(path))
        inline = run_cli("classify", *gain_flags(R3T5_GAINS))
        assert from_file.returncode == 0, from_file.stderr
        assert json.loads(from_file.stdout) == json.loads(inline.stdout)
        # --p overrides the file's budget
        from_file = run_cli("solve", "--gains", str(path), "--p", "2")
        inline = run_cli("solve", *gain_flags(replace(R3T5_GAINS, p=2.0)))
        assert from_file.returncode == 0, from_file.stderr
        assert from_file.stdout == inline.stdout

    def test_gains_file_without_p_uses_unit_budget(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({name: getattr(R3T5_GAINS, name) for name in GAIN_FIELDS}))
        from_file = run_cli("classify", "--gains", str(path))
        inline = run_cli("classify", *gain_flags(replace(R3T5_GAINS, p=1.0)))
        assert from_file.returncode == 0, from_file.stderr
        assert from_file.stdout == inline.stdout

    @pytest.mark.parametrize("flag, data, key", [
        ("--gains", dict(R3T5_GAINS.to_dict(), P=2.0), "P"),
        ("--geometry", {"user1": [0, 0], "user2": [20, 0], "rely": [5, 5]}, "rely"),
    ], ids=["gains", "geometry"])
    def test_unknown_key_in_file_is_invalid_input(self, tmp_path, flag, data, key):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        proc = run_cli("classify", flag, str(path))
        assert proc.returncode == 2
        assert f"unknown keys: {key}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [("classify", "--gains"), ("map", "--resolution", "2", "--geometry")],
                             ids=["classify-gains", "map-geometry"])
    def test_file_that_is_not_utf8_is_invalid_input(self, tmp_path, argv):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}")
        proc = run_cli(*argv, str(path))
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON"),
        ("[0.5, 0.5]", "must hold a JSON object"),
        (json.dumps(dict(R3T5_GAINS.to_dict(), g12="0.25", g21=True)),
         "gains values must be numbers: g12 is '0.25'"),
    ], ids=["invalid", "array", "string-and-bool"])
    def test_file_that_is_not_a_gains_object_is_invalid_input(self, tmp_path, text, message):
        path = tmp_path / "gains.json"
        path.write_text(text)
        proc = run_cli("classify", "--gains", str(path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    def test_geometry_file_midpoint_relay(self, tmp_path):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(Geometry().to_dict()))
        proc = run_cli("classify", "--geometry", str(path))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["regime"]["r"] == "R2"
        assert payload["regime"]["t"] == "T3"
        assert payload["assignment"] == {"user1": "Ind", "user2": "Ind"}

    def test_non_numeric_geometry_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"user1": ["a", 0]}))
        proc = run_cli("classify", "--geometry", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "numbers" in proc.stderr

    def test_two_sources_rejected(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps(R3T5_GAINS.to_dict()))
        proc = run_cli("classify", "--gains", str(path), *gain_flags(R3T5_GAINS))
        assert proc.returncode == 2
        assert "mutually exclusive" in proc.stderr

    def test_missing_inline_flag_named(self):
        flags = gain_flags(R3T5_GAINS)
        idx = flags.index("--gr2")
        del flags[idx:idx + 2]
        proc = run_cli("classify", *flags)
        assert proc.returncode == 2
        assert "missing inline gain flags: --gr2" in proc.stderr

    def test_no_source_rejected(self):
        proc = run_cli("classify")
        assert proc.returncode == 2
        assert "no gains given" in proc.stderr


class TestSolve:
    def test_independent_cell_reports_minimum_relay_power(self):
        proc = run_cli("solve", *gain_flags(R2T3_GAINS))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["closed_form_beta3"] == pytest.approx(
            0.42715596330275235, rel=1e-9)
        # the one numeric path reproduces the paper's formula
        assert payload["method"] == "numeric"
        assert payload["allocation"]["beta3"] == pytest.approx(payload["closed_form_beta3"], rel=1e-9)
        assert payload["relay_full_power"] is False
        assert payload["full_power_ok"] is True
        assert payload["assignment"] == {"user1": "Ind", "user2": "Ind"}
        alloc = payload["allocation"]
        relay_total = alloc["pw1"] + alloc["pw2"] + alloc["beta3"]
        assert relay_total < R2T3_GAINS.p

    def test_showcase_runs_relay_at_full_power(self):
        proc = run_child("solve", *gain_flags(R3T5_GAINS))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["assignment"] == {"user1": "Both", "user2": "Both"}
        assert payload["relay_full_power"] is True
        assert payload["full_power_ok"] is True
        assert payload["method"] == "numeric"
        assert payload["regime"] == {"r": "R3", "t": "T5", "side_condition": True}
        assert payload["closed_form_beta3"] is None

    def test_relay_full_power_is_relative_to_a_small_budget(self, capsys):
        g = replace(R2T3_GAINS, p=1e-8)
        assert cli.main(["solve", *gain_flags(g), "--mu", "0.75"]) == 0
        payload = json.loads(capsys.readouterr().out)
        alloc = payload["allocation"]
        assert alloc["pw1"] + alloc["pw2"] + alloc["beta3"] < 0.9 * g.p
        assert payload["relay_full_power"] is False
        assert payload["full_power_ok"] is True

    def test_unreachable_relay_stays_silent(self):
        proc = run_cli(
            "solve",
            "--g12", "0.3", "--g21", "0.3", "--g1r", "0.5",
            "--gr1", "0", "--g2r", "0.5", "--gr2", "0",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        alloc = payload["allocation"]
        assert alloc["pw1"] == 0.0
        assert alloc["pw2"] == 0.0
        assert alloc["beta3"] == 0.0
        assert payload["assignment"] == {"user1": "DT", "user2": "DT"}

    def test_other_twrc_error_exits_one(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NoRootError("no root in the bracket")

        monkeypatch.setattr(cli, "solve", fail)
        proc = run_cli("solve", *gain_flags(R3T5_GAINS))
        assert proc.returncode == 1
        assert proc.stderr == "error: no root in the bracket\n"

    def test_weight_out_of_range(self):
        proc = run_cli("solve", *gain_flags(R3T5_GAINS), "--mu", "1.5")
        assert proc.returncode == 2
        assert "--mu" in proc.stderr


class TestRegion:
    def test_direct_summary_and_csv(self):
        proc = run_child("region", *gain_flags(R3T5_GAINS), "--restrict", "direct")
        assert proc.returncode == 0, proc.stderr
        corner = format(math.log2(1.0625), ".9g")
        total = format(2 * math.log2(1.0625), ".9g")
        assert f"vertices=3 max_sum_rate={total}" in proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) == 4
        assert lines[2] == f"{corner},{corner}"

    def test_json_format(self):
        proc = run_cli("region", *gain_flags(R3T5_GAINS),
                       "--restrict", "direct", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["restriction"] == "direct"
        assert payload["step"] == 0.05
        assert len(payload["vertices"]) == 3
        corner = math.log2(1.0625)
        assert payload["vertices"][1]["r1"] == pytest.approx(corner, abs=1e-12)
        assert payload["vertices"][1]["r2"] == pytest.approx(corner, abs=1e-12)

    def test_out_file_moves_summary_to_stdout(self, tmp_path):
        path = tmp_path / "hull.csv"
        proc = run_cli("region", *gain_flags(R3T5_GAINS),
                       "--restrict", "direct", "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        assert path.read_text().startswith("r1,r2\n")
        assert "vertices=3" in proc.stdout
        assert proc.stderr == ""

    def test_step_zero_rejected(self):
        proc = run_cli("region", *gain_flags(R3T5_GAINS), "--step", "0")
        assert proc.returncode == 2
        assert "step" in proc.stderr

    def test_unknown_restriction(self):
        proc = run_cli("region", *gain_flags(R3T5_GAINS), "--restrict", "bogus")
        assert proc.returncode == 2
        assert "unknown restriction" in proc.stderr

    def test_grid_cap_env_stops_large_grids(self):
        proc = run_cli("region", *gain_flags(R3T5_GAINS),
                       env_extra={"TWRC_GRID_CAP": "10"})
        assert proc.returncode == 3
        assert "grid needs at least 21 evaluations" in proc.stderr
        assert "TWRC_GRID_CAP" in proc.stderr

    def test_tiny_step_stops_at_the_grid_cap(self, monkeypatch, capsys):
        monkeypatch.delenv("TWRC_GRID_CAP", raising=False)
        assert cli.main(["region", *gain_flags(R3T5_GAINS), "--step", "1e-13"]) == 3
        assert "grid needs at least 10000000000001 evaluations" in capsys.readouterr().err

    def test_malformed_grid_cap_env_is_invalid_input(self):
        proc = run_cli("region", *gain_flags(R3T5_GAINS),
                       env_extra={"TWRC_GRID_CAP": "1e9"})
        assert proc.returncode == 2
        assert "TWRC_GRID_CAP" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deterministic_output(self):
        args = ("region", *gain_flags(R3T5_GAINS), "--step", "0.2")
        first = run_child(*args)
        second = run_child(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestMap:
    def test_minimal_resolution(self):
        proc = run_child("map", "--resolution", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,y,r_index,t_index,user1,user2"
        assert len(lines) == 5
        assert lines[1] == "-20,-30,R1,T1,DT,DT"
        assert lines[4] == "40,30,R1,T1,DT,DT"

    def test_relay_on_user_marked_na(self):
        proc = run_cli("map", "--xmin", "-10", "--xmax", "10",
                       "--ymin", "-10", "--ymax", "10", "--resolution", "3")
        assert proc.returncode == 0, proc.stderr
        assert "0,0,NA,NA,NA,NA" in proc.stdout.splitlines()

    def test_json_source_field(self):
        proc = run_cli("map", "--xmin", "-10", "--xmax", "10",
                       "--ymin", "-10", "--ymax", "10",
                       "--resolution", "3", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        cells = json.loads(proc.stdout)["cells"]
        assert len(cells) == 9
        center = cells[4]
        assert (center["x"], center["y"]) == (0.0, 0.0)
        assert center["source"] == "skipped"
        assert center["r"] is None
        assert center["user1"] is None

    def test_deterministic_output(self):
        args = ("map", "--resolution", "5")
        first = run_child(*args)
        second = run_child(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_resolution_validation(self):
        proc = run_cli("map", "--resolution", "1")
        assert proc.returncode == 2
        assert "resolution" in proc.stderr

    def test_non_numeric_geometry_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"gamma1": None}))
        proc = run_cli("map", "--geometry", str(path), "--resolution", "2")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "numbers" in proc.stderr


class TestRelayPower:
    def test_single_sample_row_and_summary(self):
        proc = run_child("relay-power", "--samples", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,y,beta3"
        assert len(lines) == 2
        x, y, beta3 = lines[1].split(",")
        assert float(x) == pytest.approx(10.0)
        assert float(y) == pytest.approx(0.0)
        assert 0.0 < float(beta3) < 1.0
        assert f"min_power_fraction={beta3} max_power_fraction={beta3}" in proc.stderr

    def test_segment_outside_bounds(self):
        proc = run_cli("relay-power", "--x0", "-50", "--y0", "0",
                       "--x1", "0", "--y1", "0")
        assert proc.returncode == 2
        assert "outside the bounds" in proc.stderr

    def test_half_specified_segment(self):
        proc = run_cli("relay-power", "--x0", "5", "--samples", "1")
        assert proc.returncode == 2
        assert "--x0 and --y0" in proc.stderr

    def test_json_points(self):
        proc = run_cli("relay-power", "--samples", "3", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        points = json.loads(proc.stdout)["points"]
        assert [pt["x"] for pt in points] == pytest.approx([5.0, 10.0, 15.0])
        assert all(0.0 <= pt["beta3"] <= 1.0 + 1e-12 for pt in points)


class TestParser:
    def test_help_exits_cleanly(self):
        proc = run_child("--help")
        assert proc.returncode == 0
        for name in ("classify", "region", "solve", "map", "relay-power"):
            assert name in proc.stdout

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2
