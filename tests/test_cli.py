import hashlib
import json
import os

import pytest

from kvgeom import cyclic, kvsolve
from kvgeom.cli import main
from kvgeom.freelie import LieSeries, bch_cache_path, lyndon_basis


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

    # SHA-256 of the degree-8 bch report without its timestamp, dumped as
    # in TestSolveCommands.SOLVE_KV_6_SHA256
    BCH_8_SHA256 = {
        "XY": "e0f55814f50866ab58d2122a3ea208e22db5fef5af2805055c2cab947581c946",
        "YX": "0c9eb6a76945149eb4a4de32600d432e4f99bdfb1ca4302d8342c4e8b96cc0f3",
    }

    @pytest.mark.parametrize("order", sorted(BCH_8_SHA256))
    def test_bch_report_golden(self, order, capsys):
        code, out = run_cli(["bch", "--degree", "8", "--order", order], capsys)
        assert code == 0
        text = json.dumps(strip_timestamp(out), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BCH_8_SHA256[order]

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

    # the same digest for the degree-6 check-kv2 report, with its exit code:
    # eq1-only leaves a nonzero raw necklace residual, joint closes it
    CHECK_KV2_6 = {
        "eq1-only": (1, "d71fca774a5c6c3a963f2e71e2bf832894196b764f541f124d81760e9aaad54d"),
        "joint-eq1-eq2": (0, "f47a757bb2f99f6ac93b46d67c3ca74d7ea89b82a50be63f552260547a700def"),
    }

    @pytest.mark.parametrize("strategy", sorted(CHECK_KV2_6))
    def test_check_kv2_report_golden(self, strategy, capsys):
        code, out = run_cli(["check-kv2", "--degree", "6", "--strategy", strategy], capsys)
        text = json.dumps(strip_timestamp(out), indent=2, sort_keys=True)
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == self.CHECK_KV2_6[strategy]

    def test_check_kv1_passes(self, capsys):
        code, out = run_cli(["check-kv1", "--degree", "5"], capsys)
        assert code == 0
        doc = strip_timestamp(out)
        assert doc["residual1"] == "0" and doc["pass"] is True

    def test_kv1_check_sees_top_degree(self, capsys, monkeypatch):
        # A_4 first enters the first equation at degree 5, so a wrong top
        # part only shows when the check runs through degree + 1
        solve = kvsolve.solve_kv

        def corrupted(degree, strategy="eq1-only"):
            pair = solve(degree, strategy)
            bump = LieSeries(degree, {lyndon_basis(degree)[0]: 7})
            return kvsolve.KVPair(pair.A + bump, pair.B, degree, strategy)

        monkeypatch.setattr(kvsolve, "solve_kv", corrupted)
        code, out = run_cli(["solve-kv", "--degree", "4"], capsys)
        assert code == 1
        assert strip_timestamp(out)["residual1"] != "0"

    def test_check_kv1_skips_trace_residual(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("check-kv1 does not report the trace residual")

        monkeypatch.setattr(cyclic, "kv2_residual", unused)
        code, out = run_cli(["check-kv1", "--degree", "3"], capsys)
        assert code == 0 and strip_timestamp(out)["pass"] is True

    def test_check_kv2_skips_first_residual(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("check-kv2 does not report the first residual")

        monkeypatch.setattr(kvsolve, "kv1_residual", unused)
        code, out = run_cli(["check-kv2", "--degree", "3",
                             "--strategy", "joint-eq1-eq2"], capsys)
        assert code == 0 and strip_timestamp(out)["pass"] is True

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

    def test_cache_only_on_bch(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-kv", "--cache", str(tmp_path)])
        assert exc.value.code == 2

    def test_degree_guard(self, capsys):
        code = main(["bch", "--degree", "11"])
        assert code == 2
