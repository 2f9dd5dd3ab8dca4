import hashlib
import json

import pytest

from kvgeom import cli, cyclic, kvsolve
from kvgeom.cli import main
from kvgeom.freelie import LieSeries, lyndon_basis


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

    def test_cache_flag_removed(self, tmp_path, capsys):
        # bch has no on-disk cache: --cache is an unknown flag
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["bch", "--degree", "4", "--cache", str(cache)])
        assert exc.value.code == 2
        assert not cache.exists()

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

    def test_cache_env_var_ignored(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("KVGEOM_CACHE_DIR", str(cache))
        code, out = run_cli(["bch", "--degree", "2"], capsys)
        assert code == 0 and "xy: 1/2" in out
        assert not cache.exists()


class TestSolveCommands:
    # SHA-256 of the degree-6 solve-kv report without its timestamp, as
    # json.dumps(..., indent=2, sort_keys=True); the eq1-only report carries
    # a nonzero trace residual, so it pins cyclic.trace_column's and
    # cyclic._trace_rhs's output too
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

    # SHA-256 of the A, B and residual2_report entries of the degree-9 and
    # degree-10 solve-kv reports, each dumped as above: degree 10 is the
    # deepest the suite solves, so the integer ad matrices, the eq1 kernel
    # and elimination are pinned where the systems are largest
    SOLVE_KV_9_SHA256 = {
        "eq1-only": {
            "A": "e0493c0484d0abef941d0ea5e38125089ced1ec1db49a1664b59f75de1da3e16",
            "B": "33304199f4ed14cfb0a4194432f6d7974e9e93bee91f36e4381692ca829ae96a",
            "residual2_report":
                "f4d5eb7a8768358741bd740d4d54be0162100c23b98b84c408169244437d8be0",
        },
        "joint-eq1-eq2": {
            "A": "2e2145ac2b73bfe83160fecc8c20e2063795a967c3d676b94656361bb3fcb24c",
            "B": "a4161fcdc3ce31992a8e2e16ae00b1e63ea73c382226a35d6df05f92656a8b98",
            "residual2_report":
                "d532b7ffa732b1dd50381d93d5ad552ccdfdb5825fbc074f2edd287e80d24f1e",
        },
    }
    SOLVE_KV_10_SHA256 = {
        "eq1-only": {
            "A": "2257a15c70ff9502a47ae09408fdc64cb3fadd903fc12a03863acd3cb5fe8154",
            "B": "07a85508d0cb61ff447b1e5924fdf8c97dcdd3ceee5da973d3e9eb3d7b9cd79b",
            "residual2_report":
                "60f03e17b4f79d703e673ba3240d888b2bbbe6892371d9e674d7d41ab7030a54",
        },
        "joint-eq1-eq2": {
            "A": "9ece4b736727bc0e0739614521acc5fb394e267b12c86813c2ac0550a5ff9aa9",
            "B": "96cf203b8a7d68a0ec6f4e99d27b58744f93b8f2a5be67f57d814aefeca06894",
            "residual2_report":
                "0080fa80c0509f440605ddce5cd3280f3451440bc4433ef8391df75e9ef1a962",
        },
    }

    @staticmethod
    def solve_kv_digests(degree, strategy, capsys):
        code, out = run_cli(["solve-kv", "--degree", str(degree), "--strategy", strategy],
                            capsys)
        assert code == 0
        doc = strip_timestamp(out)
        return {key: hashlib.sha256(json.dumps(doc[key], indent=2, sort_keys=True)
                                    .encode()).hexdigest()
                for key in ("A", "B", "residual2_report")}

    @pytest.mark.parametrize("strategy", sorted(SOLVE_KV_9_SHA256))
    def test_solve_kv_degree_9_golden(self, strategy, capsys):
        assert self.solve_kv_digests(9, strategy, capsys) == self.SOLVE_KV_9_SHA256[strategy]

    @pytest.mark.parametrize("strategy", sorted(SOLVE_KV_10_SHA256))
    def test_solve_kv_degree_10_golden(self, strategy, capsys):
        assert self.solve_kv_digests(10, strategy, capsys) == self.SOLVE_KV_10_SHA256[strategy]

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

    @pytest.mark.parametrize("command", ["solve-kv", "check-kv1", "check-kv2"])
    def test_infeasible_degree_reported(self, command, capsys, monkeypatch):
        def infeasible(degree, strategy="eq1-only"):
            raise kvsolve.InfeasibleDegreeError(degree, 3, 4, 5)

        monkeypatch.setattr(kvsolve, "solve_kv", infeasible)
        code, out = run_cli([command, "--degree", "4"], capsys)
        doc = strip_timestamp(out)
        assert code == 1
        assert doc["command"] == command and "infeasible" in doc["error"]

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

    @pytest.mark.parametrize("steps", ["30", "41"])
    def test_volume_drift_at_any_step_count(self, steps, capsys):
        # every step is checked, so an odd node of the density quadrature
        # is read whatever the step count; each is as accurate as the even ones
        code, out = run_cli(["flow", "--algebra", "so3", "--samples", "4",
                             "--steps", steps], capsys)
        assert code == 0
        assert strip_timestamp(out)["transportVol"]["max"] <= 1e-12

    def test_flow_takes_only_transport_tolerances(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--samples", "1", "--steps", "4", "--tol-eq1", "1e-18"])
        assert exc.value.code == 2
        code, out = run_cli(["flow", "--samples", "1", "--seed", "3", "--radius", "0.2",
                             "--steps", "10", "--tol-transport-vol", "1e-30"], capsys)
        doc = strip_timestamp(out)
        assert code == 1 and doc["pass"] is False
        assert doc["tolerances"]["transportVol"] == 1e-30


class TestUsage:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main builds its parser once; a call's flags and a usage error
        # leave nothing behind for the next call
        out_path = tmp_path / "bch.json"
        assert run_cli(["bch", "--degree", "3", "--out", str(out_path)], capsys)[0] == 0
        parser = cli._parser()
        with pytest.raises(SystemExit) as exc:
            main(["bch", "--frobnicate"])
        assert exc.value.code == 2
        out_path.unlink()
        code, out = run_cli(["bch", "--degree", "2"], capsys)
        assert code == 0 and strip_timestamp(out)["degree"] == 2
        assert not out_path.exists() and cli._parser() is parser
        assert cli.build_parser() is not parser

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

    @pytest.mark.parametrize("case", ["missing", "list", "flat basis"])
    def test_bad_algebra_file_exits_2(self, case, tmp_path, capsys):
        # a usage error, not a FileNotFoundError, TypeError or einsum traceback
        path = tmp_path / "descriptor.json"
        if case == "list":
            path.write_text(json.dumps([[[1, 0], [0, 0]]]))
        elif case == "flat basis":
            path.write_text(json.dumps({"basis": [[1, 0], [0, 1]], "form": "trace"}))
        code = main(["flow", "--algebra-file", str(path), "--samples", "1",
                     "--steps", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        if case == "flat basis":
            assert err == "error: basis must be a (d, n, n) array\n"

    @pytest.mark.parametrize("field,value,message", [
        ("domain_radius", None, "domain_radius must be a number"),
        ("domain_radius", [0.3], "domain_radius must be a number"),
        ("form", {"a": 1}, "form must be an array of numbers"),
        ("name", [1], "name must be a string"),
    ])
    def test_wrong_field_type_exits_2(self, field, value, message, tmp_path, capsys):
        # a usage error on one line, not a TypeError traceback or a report
        # written under a name that is not a string
        desc = {"name": "abelian2", "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                "form": "trace", "domain_radius": 1.0, field: value}
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(desc))
        code = main(["geom-run", "--algebra-file", str(path), "--samples", "2",
                     "--radius", "0.2", "--steps", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_outside_domain_exits_1(self, sl2, tmp_path, capsys):
        # the sl2 basis at a domain radius past the series' reach: the tail
        # gate raises OutsideDomainError, reported on one line with no traceback
        path = tmp_path / "sl2wide.json"
        path.write_text(json.dumps({"name": "sl2wide", "basis": sl2.basis.tolist(),
                                    "form": "trace", "domain_radius": 1.3}))
        code = main(["geom-run", "--algebra-file", str(path), "--radius", "1.3",
                     "--samples", "40", "--steps", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: outside V: truncated series tail")
        assert captured.err.count("\n") == 1

    def test_degree_guard(self, capsys):
        code = main(["bch", "--degree", "11"])
        assert code == 2

    @pytest.mark.parametrize("command", ["flow", "geom-run"])
    @pytest.mark.parametrize("steps", ["0", "-1", "1"])
    def test_steps_guard(self, command, steps, capsys):
        # a usage error, not the ZeroDivisionError (0) or IndexError (-1)
        # the flow would raise, nor a trapezoid-rule log-density (1) that
        # misses the volume tolerance
        code = main([command, "--samples", "1", "--steps", steps])
        assert code == 2
        assert "steps must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flow", "geom-run"])
    @pytest.mark.parametrize("radius", ["-5", "-0.45", "nan"])
    def test_radius_guard(self, command, radius, capsys):
        # a usage error, not a report of a negative radius (-0.45), an
        # OutsideDomainError from the so3 chart (-5) or a failure in exp_chart (nan)
        code = main([command, "--algebra", "so3", "--samples", "1", "--steps", "2",
                     "--radius", radius])
        assert code == 2
        assert f"radius {float(radius)} is not in" in capsys.readouterr().err

    def test_radius_checked_on_every_algebra_before_any_sweep(self, capsys):
        # 0.45 is inside the so3 and sl2 domains (0.5) and outside gl2's (0.4)
        code = main(["geom-run", "--algebra", "all", "--radius", "0.45",
                     "--samples", "1", "--steps", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "radius 0.45 is not in [0, 0.4], the gl2 domain radius" in captured.err
