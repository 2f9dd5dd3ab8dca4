import hashlib
import json
import os

import pytest

from kvgeom.cli import main
from kvgeom.freelie import bch_cache_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def strip_timestamp(text):
    doc = json.loads(text[text.index("{"):])
    doc.pop("timestamp", None)
    return doc


class TestBCH:
    def test_prints_half_coefficient(self, capsys):
        code, out = run_cli(["bch", "--degree", "4", "--order", "XY"], capsys)
        assert code == 0
        assert "xy: 1/2" in out
        assert "xxy: 1/12" in out

    def test_report_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "bch.json")
        code, _ = run_cli(["bch", "--degree", "3", "--out", out_path], capsys)
        assert code == 0
        doc = json.load(open(out_path))
        assert doc["degree"] == 3 and doc["order"] == "XY"

    def test_cache_deleted_and_recomputed_identically(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, out1 = run_cli(["bch", "--degree", "4", "--cache", cache], capsys)
        assert code == 0
        path = bch_cache_path(cache, 4, "XY")
        first = open(path, "rb").read()
        os.unlink(path)
        code, out2 = run_cli(["bch", "--degree", "4", "--cache", cache], capsys)
        assert code == 0
        assert open(path, "rb").read() == first
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("KVGEOM_CACHE_DIR", cache)
        code, _ = run_cli(["bch", "--degree", "2"], capsys)
        assert code == 0
        assert os.path.exists(bch_cache_path(cache, 2, "XY"))


class TestSolveCommands:
    # SHA-256 of the degree-6 solve-kv report without its timestamp, as
    # json.dumps(..., indent=2, sort_keys=True); the eq1-only report carries
    # a nonzero trace residual, so it pins delta_derivative's output too
    SOLVE_KV_6_SHA256 = {
        "eq1-only": "5ed56f5fdec90886d86b9e3f85bc3ddde693a4fb86bf587ccd067526fe206ad2",
        "joint-eq1-eq2": "b4c0206974255d6b86bd3383d7aff3e317d1bc0228e32f0e05c34c3db14ae9ce",
    }

    @pytest.mark.parametrize("strategy", sorted(SOLVE_KV_6_SHA256))
    def test_solve_kv_report_golden(self, strategy, capsys):
        code, out = run_cli(["solve-kv", "--degree", "6", "--strategy", strategy], capsys)
        assert code == 0
        text = json.dumps(strip_timestamp(out), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SOLVE_KV_6_SHA256[strategy]

    def test_check_kv1_passes(self, capsys):
        code, out = run_cli(["check-kv1", "--degree", "5"], capsys)
        assert code == 0
        doc = strip_timestamp(out)
        assert doc["residual1"] == "0" and doc["pass"] is True

    def test_solve_kv_report_fields(self, capsys):
        code, out = run_cli(["solve-kv", "--degree", "3"], capsys)
        assert code == 0
        doc = strip_timestamp(out)
        assert doc["strategy"] == "eq1-only"
        assert {"word": "x", "c": "1/2"} in doc["B"]
        assert doc["residual1"] == "0"
        assert "raw" in doc["residual2_report"]
        assert "mod_reversal" in doc["residual2_report"]

    def test_check_kv2_joint_zero(self, capsys):
        code, out = run_cli(["check-kv2", "--degree", "3",
                             "--strategy", "joint-eq1-eq2"], capsys)
        assert code == 0
        doc = strip_timestamp(out)
        assert doc["pass"] is True

    def test_check_kv2_eq1_only_reports_nonzero(self, capsys):
        # the eq1-only representative does not close the raw necklace
        # equation at every degree; the report carries the residual
        code, out = run_cli(["check-kv2", "--degree", "1"], capsys)
        doc = strip_timestamp(out)
        assert doc["pass"] is (code == 0)


class TestGeomRun:
    def test_small_sweep_passes_and_is_deterministic(self, tmp_path, capsys):
        args = ["geom-run", "--algebra", "so3", "--samples", "3", "--seed", "42",
                "--radius", "0.25", "--steps", "30"]
        code1, out1 = run_cli(args + ["--out", str(tmp_path / "r1.json")], capsys)
        code2, out2 = run_cli(args + ["--out", str(tmp_path / "r2.json")], capsys)
        assert code1 == code2 == 0
        d1 = json.load(open(tmp_path / "r1.json"))
        d2 = json.load(open(tmp_path / "r2.json"))
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2
        assert d1["pass"] is True
        assert set(d1["residuals"]) == {"eq1", "eq2", "kappaVsLambda", "jacobi",
                                        "momentMap", "transportPhi", "transportVol"}

    def test_tolerance_flag_fails_run(self, capsys):
        code, out = run_cli(["geom-run", "--algebra", "so3", "--samples", "3",
                             "--seed", "42", "--radius", "0.25", "--steps", "30",
                             "--tol-eq1", "1e-18"], capsys)
        assert code == 1
        doc = strip_timestamp(out)
        assert doc["pass"] is False
        assert doc["tolerances"]["eq1"] == 1e-18

    def test_custom_algebra_file(self, tmp_path, capsys):
        desc = {"name": "abelian2",
                "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                "form": "trace", "domain_radius": 1.0}
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps(desc))
        code, out = run_cli(["geom-run", "--algebra-file", str(path),
                             "--samples", "2", "--seed", "1", "--radius", "0.2",
                             "--steps", "20"], capsys)
        assert code == 0
        assert strip_timestamp(out)["algebra"] == "abelian2"

    def test_all_with_algebra_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps({"name": "abelian2",
                                    "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}))
        code = main(["geom-run", "--algebra", "all", "--algebra-file", str(path),
                     "--samples", "2", "--steps", "20"])
        assert code == 2
        assert "--algebra all" in capsys.readouterr().err


class TestFlowCommand:
    def test_flow_report(self, capsys):
        code, out = run_cli(["flow", "--algebra", "so3", "--samples", "2",
                             "--seed", "3", "--radius", "0.2", "--steps", "40"],
                            capsys)
        assert code == 0
        doc = strip_timestamp(out)
        assert doc["pass"] is True
        assert doc["transportPhi"]["max"] <= 1e-6


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bch", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_degree_guard(self, capsys):
        code = main(["bch", "--degree", "11"])
        assert code == 2
