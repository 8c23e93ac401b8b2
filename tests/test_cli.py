"""Command-line driver tests (run in-process via main)."""

import argparse
import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gausstopo as gt
from gausstopo import cli, engine, lattice, topo
from gausstopo.engine import GaussGraph

from conftest import loop_straddling

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    lines = [line for line in path.read_text().splitlines() if line]
    assert lines[0].startswith("# generated ")
    return lines[1], lines[2:]


class TestBuild:
    def test_cluster_round_trip(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        code, stdout, _ = run(capsys, "build", "--rows", "4", "--cols", "4",
                              "--log-s", "1.0", "--kind", "cluster",
                              "--out", str(out))
        assert code == 0
        assert "modes: 16" in stdout
        loaded = GaussGraph.from_json(out.read_text())
        reference = gt.cluster_graph(gt.LatticeSpec(4, 4, "torus", 1.0))
        assert np.array_equal(loaded.v_part, reference.v_part)
        assert np.array_equal(loaded.u_part, reference.u_part)

    def test_pipeline_parity_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "build", "--rows", "5", "--cols", "6",
                              "--kind", "surface-pipeline",
                              "--out", str(tmp_path / "x.json"))
        assert code == cli.EXIT_VALIDATION
        assert "even" in stderr

    @pytest.mark.parametrize("argv", [("map", "--rows", "2", "--cols", "4"),
                                      ("build", "--kind", "surface-pipeline",
                                       "--rows", "6", "--cols", "2")])
    def test_pipeline_refuses_two_wide_torus(self, tmp_path, capsys, argv):
        # wrapped links saturate there, as for the closed form and SurfaceGraph
        out = tmp_path / "m.json"
        code, _, stderr = run(capsys, *argv, "--log-s", "1", "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert "even rows and cols >= 4" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("tee", "--rows", "5", "--cols", "5", "--log-s", "1"),
        ("build", "--kind", "surface-analytic", "--rows", "2", "--cols", "2"),
    ])
    def test_analytic_refuses_other_tori(self, tmp_path, capsys, argv):
        if argv[0] == "build":
            argv += ("--out", str(tmp_path / "x.json"))
        code, _, stderr = run(capsys, *argv)
        assert code == cli.EXIT_VALIDATION
        assert "the closed-form surface code needs a torus with even sides >= 4" in stderr

    def test_map_writes_index(self, tmp_path, capsys):
        out = tmp_path / "sc.json"
        code, stdout, _ = run(capsys, "map", "--rows", "6", "--cols", "6",
                              "--log-s", "0.5", "--out", str(out))
        assert code == 0
        assert "modes: 18" in stdout
        index = json.loads((tmp_path / "sc.json.map.json").read_text())
        assert len(index["kept"]) == 18

    def test_map_singular_pivot_exits_numerical(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "map", "--rows", "4", "--cols", "4",
                              "--log-s", "14", "--out", str(tmp_path / "sc.json"))
        assert code == cli.EXIT_NUMERICAL
        assert "pivot" in stderr

    @pytest.mark.parametrize("argv", [("map", "--rows", "4", "--cols", "4", "--log-s", "13"),
                                      ("tee", "--rows", "8", "--cols", "8", "--log-s", "14")])
    def test_rounding_loss_of_definiteness_exits_numerical(self, tmp_path, capsys, argv):
        if argv[0] == "map":
            argv += ("--out", str(tmp_path / "sc.json"))
        code, _, stderr = run(capsys, *argv)
        assert code == cli.EXIT_NUMERICAL
        assert "positive definite" in stderr


class TestDiagnostics:
    def test_tee_matches_library(self, capsys, surface_state):
        code, stdout, _ = run(capsys, "tee", "--rows", "12", "--cols", "12",
                              "--log-s", "1.0")
        assert code == 0
        record = json.loads(stdout)
        spec, cov = surface_state(12, 12, 1.0)
        expected = topo.tee_kp(cov, topo.kp_regions(spec))
        assert record["tee"] == pytest.approx(expected, abs=1e-10)

    def test_tmi_with_lower(self, capsys):
        code, stdout, _ = run(capsys, "tmi", "--rows", "12", "--cols", "12",
                              "--log-s", "1.0", "--kappa", "10", "--lower")
        assert code == 0
        record = json.loads(stdout)
        assert record["tmi_lower"] <= record["tmi"] + 1e-9

    def test_tmi_rejects_kappa_below_one(self, capsys, monkeypatch):
        def no_setup(spec):
            raise AssertionError("kappa must be rejected before the covariance is built")

        monkeypatch.setattr(cli, "_surface_cov", no_setup)
        for kappa in ("0.5", "nan", "inf"):
            code, stdout, stderr = run(capsys, "tmi", "--rows", "12", "--cols", "12",
                                       "--log-s", "1.0", "--kappa", kappa)
            assert code == cli.EXIT_VALIDATION
            assert stdout == ""
            assert "kappa" in stderr

    def test_lw_empty_part_names_the_annulus(self, capsys):
        # D is empty with no hole on a 16 x 16 grid: refused as regions are built
        code, stdout, stderr = run(capsys, "tee", "--rows", "16", "--cols", "16",
                                   "--log-s", "1.0", "--method", "lw", "--inner", "0")
        assert code == cli.EXIT_VALIDATION
        assert stdout == ""
        assert stderr.startswith("error: annulus has an empty part")

    def test_upper_bound(self, capsys):
        code, stdout, _ = run(capsys, "upper-bound", "--log-s", "0.0")
        assert code == 0
        record = json.loads(stdout)
        assert record["tee_upper"] == pytest.approx(topo.tee_upper_bound(1.0))

    def test_ill_conditioned_exits_numerical(self, capsys):
        code, _, stderr = run(capsys, "tee", "--rows", "12", "--cols", "12",
                              "--log-s", "8.0")
        assert code == cli.EXIT_NUMERICAL
        assert "numerical" in stderr

    @pytest.mark.parametrize("command", ["tee", "tln", "tmi"])
    @pytest.mark.parametrize("log_s", ["8", "9", "13"])
    def test_extreme_squeezing_exits_numerical(self, capsys, command, log_s):
        # cond(U) above 1e12 at log s 8 and 9; at 13 the closed-form smallest
        # eigenvalue of U rounds to zero
        code, stdout, stderr = run(capsys, command, "--rows", "12", "--cols", "12",
                                   "--log-s", log_s)
        assert code == cli.EXIT_NUMERICAL
        assert stdout == ""
        assert "numerical failure" in stderr


class TestSpectrum:
    def test_gap_csv(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code, _, _ = run(capsys, "spectrum", "--n", "3", "--m", "3",
                         "--log-s", "0", "--out", str(out))
        assert code == 0
        header, rows = read_rows(out)
        assert header.split(",") == ["n", "m", "log_s", "gap",
                                     "gap_asymptotic", "ratio"]
        gap_val = float(rows[0].split(",")[3])
        assert gap_val == pytest.approx(1 / 3, abs=1e-12)


class TestBounds:
    def test_no_violations(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--rows", "12", "--cols", "12",
                              "--log-s", "1.0")
        assert code == 0
        assert json.loads(stdout)["n_violations"] == 0

    @pytest.mark.parametrize("log_s", ["-3", "-4", "-8", "-10"])
    def test_weak_squeezing_has_no_noise_violations(self, capsys, log_s):
        # far correlations sink below the rounding of U^-1, and the envelope
        # below that; the excess is noise, not a violation
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, _ = run(capsys, "bounds", "--rows", "12", "--cols", "12",
                                  "--log-s=" + log_s)
        assert code == cli.EXIT_OK
        assert json.loads(stdout)["n_violations"] == 0

    def test_large_torus(self, capsys):
        # 8337408 pairs, read from the two cell columns of U^-1
        code, stdout, _ = run(capsys, "bounds", "--rows", "64", "--cols", "64",
                              "--log-s", "1")
        assert code == cli.EXIT_OK
        report = json.loads(stdout)
        assert report["n_pairs"] == 8337408 and report["n_violations"] == 0

    def test_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.corr, "verify_bound",
                            lambda *a, **k: {"n_pairs": 1, "n_violations": 1,
                                             "max_violation": 0.1, "max_ratio": 2.0})
        code, _, _ = run(capsys, "bounds", "--rows", "12", "--cols", "12",
                         "--log-s", "1.0")
        assert code == cli.EXIT_THRESHOLD


class TestCorrelationsCmd:
    def test_csv_and_fit(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        code, stdout, _ = run(capsys, "correlations", "--rows", "20",
                              "--cols", "20", "--log-s", "1.0",
                              "--fit", "--out", str(out))
        assert code == 0
        header, rows = read_rows(out)
        assert header == "separation,correlation,bound_value"
        assert len(rows) >= 8
        record = json.loads(stdout)
        assert record["xi_a"] <= record["xi_b"]

    @pytest.mark.parametrize("boundary", ["planar", "torus"])
    def test_weak_squeezing_warns_nothing(self, capsys, boundary):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the planar closed form warns
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, _ = run(capsys, "correlations", "--rows", "12", "--cols", "12",
                                  "--boundary", boundary, "--log-s=-10")
        assert code == cli.EXIT_OK
        assert len(stdout.splitlines()) > 2

    def test_non_finite_samples_exit_validation(self, monkeypatch, capfd):
        # a NaN sample reaches the fit as a ValidationError, not as an SVD
        # that did not converge
        seps = np.arange(1.0, 14.0)
        monkeypatch.setattr(cli.corr, "axis_samples",
                            lambda *a, **k: (seps, np.where(seps == 4.0, np.nan, np.exp(-seps))))
        code = cli.main(["correlations", "--rows", "12", "--cols", "12", "--fit"])
        err = capfd.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert "must be finite" in err and "DLASCL" not in err

    def test_one_wide_lattice_exits_validation(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        code, _, err = run(capsys, "correlations", "--rows", "1", "--cols", "20",
                           "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert "at least 2 wide" in err
        assert not out.exists()


SWEEP_ARGS = ("sweep", "--rows", "8", "--cols", "8", "--log-s-min", "0",
              "--log-s-max", "1", "--steps", "2", "--metrics",
              "tee_kp,tee_upper")


class TestSweep:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *SWEEP_ARGS, "--out", str(a))[0] == 0
        assert run(capsys, *SWEEP_ARGS, "--out", str(b))[0] == 0
        assert read_rows(a) == read_rows(b)
        header, rows = read_rows(a)
        assert header.split(",") == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 2

    def test_resume_skips_existing(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(capsys, *SWEEP_ARGS, "--out", str(out))
        lines = out.read_text().splitlines()
        # drop the last point and plant a sentinel value in the first one
        first = lines[2].split(",")
        first[1] = "999"
        out.write_text("\n".join(lines[:2] + [",".join(first)]) + "\n")
        code, _, _ = run(capsys, *SWEEP_ARGS, "--out", str(out))
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert rows[0].split(",")[1] == "999"  # kept, not recomputed
        assert rows[1].split(",")[0] == "1"

    def test_degenerate_single_point(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "sweep", "--rows", "12", "--cols", "12",
                         "--log-s-min", "1", "--log-s-max", "1", "--steps", "1",
                         "--metrics", "tee_kp", "--out", str(out))
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        tee_sweep = float(rows[0].split(",")[1])
        code, stdout, _ = run(capsys, "tee", "--rows", "12", "--cols", "12",
                              "--log-s", "1.0")
        assert tee_sweep == pytest.approx(json.loads(stdout)["tee"], abs=1e-10)

    def test_json_report_stream(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        jout = tmp_path / "s.jsonl"
        code, _, _ = run(capsys, *SWEEP_ARGS, "--out", str(out),
                         "--json-out", str(jout))
        assert code == 0
        records = [json.loads(line) for line in jout.read_text().splitlines()]
        assert len(records) == 2
        assert {"log_s", "tee_kp", "tee_upper", "geometry"} <= set(records[0])

    def test_json_report_spectra_meta(self, tmp_path, capsys):
        jout = tmp_path / "m.jsonl"
        code, _, _ = run(capsys, "sweep", "--rows", "12", "--cols", "12", "--log-s-min", "1",
                         "--log-s-max", "2", "--steps", "2", "--kappas", "1,10",
                         "--out", str(tmp_path / "m.csv"), "--json-out", str(jout))
        assert code == 0
        records = [json.loads(line) for line in jout.read_text().splitlines()]
        assert len(records) == 4
        spec = gt.LatticeSpec(12, 12, "torus", 1.0)
        graph = gt.surface_code_graph_analytic(spec)
        kp = topo.kp_regions(spec)
        for record in records[:2]:  # log s 1, kappa 1 and 10
            meta = record["spectra_meta"]
            assert meta["path"] == "torus"
            assert meta["cond_u"] == pytest.approx(np.linalg.cond(graph.u_part), rel=1e-9)
            assert list(meta["kp_unions"]) == ["A", "B", "C", "AB", "BC", "AC", "ABC"]
            for names, sign in zip(topo.KP_SUBSETS, topo.KP_SIGNS):
                union = meta["kp_unions"]["".join(names)]
                region = kp.union(*names)
                # |dS|: the modes outside S that U couples to S
                coupled = np.flatnonzero(graph.u_part[:, region].any(axis=1))
                assert union["boundary"] == np.setdiff1d(coupled, region).size
                # |d'S|: the modes of S that U couples outside S
                outside = np.setdiff1d(np.arange(graph.n_modes), region)
                rim = np.flatnonzero(graph.u_part[np.ix_(outside, region)].any(axis=0))
                assert union["rim"] == rim.size
                assert union["n_above"] + union["n_half"] == len(region)
                assert 0 < union["n_above"] <= min(union["rim"], union["boundary"])
                # |P|: the p-nodes with a mode in S and one outside it
                assert union["p_nodes"] == loop_straddling(spec, region)
                assert union["n_above"] <= union["p_nodes"]

    def test_json_report_region_entropies(self, tmp_path, capsys):
        out, jout = tmp_path / "e.csv", tmp_path / "e.jsonl"
        code, _, _ = run(capsys, "sweep", "--rows", "12", "--cols", "12", "--log-s-min", "1",
                         "--log-s-max", "2.8", "--steps", "3", "--kappas", "1,10",
                         "--out", str(out), "--json-out", str(jout))
        assert code == 0
        assert read_rows(out)[0] == ",".join(cli.SWEEP_COLUMNS)
        records = [json.loads(line) for line in jout.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            entropies = record["region_entropies"]
            assert list(entropies) == ["A", "B", "C", "AB", "BC", "AC", "ABC"]
            signed = -sum(sign * entropies["".join(names)]
                          for names, sign in zip(topo.KP_SUBSETS, topo.KP_SIGNS))
            tee = [r["tee_kp"] for r in records
                   if r["log_s"] == record["log_s"] and r["kappa"] == 1.0]
            assert abs(signed - tee[0]) <= 1e-12

    @pytest.mark.parametrize("extra,message", [
        (("--radius", "9"), "region of reach"),
        (("--metrics", "tee_lw", "--inner", "20"), "region of reach"),
        (("--radius", "-100"), "radius must be positive, not -100"),
        (("--rows", "16", "--cols", "16", "--metrics", "tee_lw", "--inner", "-100"),
         "annulus has an empty part"),
        (("--rows", "16", "--cols", "16", "--metrics", "tee_lw", "--inner", "nan"),
         "annulus has an empty part"),
        (("--rows", "16", "--cols", "16", "--metrics", "tee_lw", "--inner", "0"),
         "annulus has an empty part"),
        (("--rows", "16", "--cols", "16", "--metrics", "tee_lw", "--width", "nan"),
         "width must be positive"),
    ], ids=["kp-radius", "lw-inner", "kp-negative-radius", "lw-negative-inner", "lw-nan-inner",
            "lw-empty-d", "lw-nan-width"])
    def test_region_that_does_not_fit_refused(self, tmp_path, capsys, monkeypatch, extra,
                                              message):
        # the regions are built before any point: a validation error, no CSV
        monkeypatch.setattr(cli, "_sweep_point", None)  # no point may run
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, "sweep", "--rows", "12", "--cols", "12",
                                   "--log-s-min", "1", "--log-s-max", "2", "--steps", "2",
                                   *extra, "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert stdout == ""
        assert stderr.startswith("error: " + message)
        assert not out.exists()

    def test_regions_built_once_per_sweep(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("kp_regions", "lw_regions"):
            build = getattr(topo, name)
            monkeypatch.setattr(topo, name, lambda *a, _build=build, _name=name, **k:
                                calls.append(_name) or _build(*a, **k))
        code, _, _ = run(capsys, "sweep", "--rows", "16", "--cols", "16", "--log-s-min", "1",
                         "--log-s-max", "2.8", "--steps", "4", "--kappas", "1,10",
                         "--metrics", ",".join(cli.SWEEP_COLUMNS[1:-1]),
                         "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert calls == ["kp_regions", "lw_regions"]
        assert len(read_rows(tmp_path / "s.csv")[1]) == 8

    def test_invalid_range(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--rows", "8", "--cols", "8",
                         "--log-s-min", "2", "--log-s-max", "1", "--steps", "2",
                         "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_VALIDATION

    def test_kappas_share_log_s_work(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, "sweep", "--rows", "8", "--cols", "8",
                         "--log-s-min", "0.5", "--log-s-max", "1.5", "--steps", "2",
                         "--kappas", "1,10", "--out", str(out))
        assert code == 0
        header, rows = read_rows(out)
        col = {name: i for i, name in enumerate(header.split(","))}
        rows = [row.split(",") for row in rows]
        assert [(r[col["log_s"]], r[col["kappa"]]) for r in rows] == [
            ("0.5", "1"), ("0.5", "10"), ("1.5", "1"), ("1.5", "10")]
        for pure, hot in (rows[:2], rows[2:]):
            for name in ("tee_kp", "tmi_lower"):
                assert pure[col[name]] == hot[col[name]] != ""
            assert pure[col["tmi"]] == pure[col["tee_kp"]]
            assert float(hot[col["tmi"]]) < float(pure[col["tmi"]])
            # the TLN follows kappa, as the library does on the scaled state
            spec = gt.LatticeSpec(8, 8, "torus", float(pure[col["log_s"]]))
            cov = engine.covariance_from_graph(gt.surface_code_graph_analytic(spec))
            for row in (pure, hot):
                expected = topo.tln_kp(engine.thermal_scale(cov, float(row[col["kappa"]])),
                                       topo.kp_regions(spec))
                assert float(row[col["tln"]]) == pytest.approx(expected, abs=1e-10)
            assert float(hot[col["tln"]]) < float(pure[col["tln"]])

    def test_resume_appends_only_missing_kappa(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        args = ("sweep", "--rows", "8", "--cols", "8", "--log-s-min", "0",
                "--log-s-max", "1", "--steps", "2", "--kappas", "1,10",
                "--out", str(out))
        run(capsys, *args)
        lines = out.read_text().splitlines()
        dropped = lines[3]  # log s 0, kappa 10
        assert dropped.startswith("0,") and dropped.endswith(",10")
        out.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert out.read_text().splitlines() == lines[:3] + lines[4:] + [dropped]

    @pytest.mark.parametrize("grid,expected", [
        (("--log-s-min", "0", "--log-s-max", "1", "--steps", "2", "--kappas", "1,10,1"),
         [("0", "1"), ("0", "10"), ("1", "1"), ("1", "10")]),
        (("--log-s-min", "1", "--log-s-max", "1.0000000000001", "--steps", "3",
          "--kappas", "1,1.0000000000001"), [("1", "1")]),
    ], ids=["repeated-kappa", "equal-keys"])
    def test_each_printed_key_runs_once(self, tmp_path, capsys, grid, expected):
        # rows are keyed as printed: the first (log s, kappa) of each key
        # runs, and a rerun finds every key done
        out, jout = tmp_path / "d.csv", tmp_path / "d.jsonl"
        args = ("sweep", "--rows", "8", "--cols", "8", *grid, "--metrics", "tee_kp,tmi",
                "--out", str(out), "--json-out", str(jout))
        assert run(capsys, *args)[0] == cli.EXIT_OK
        _, rows = read_rows(out)
        assert [(row.split(",")[0], row.split(",")[-1]) for row in rows] == expected
        records = [json.loads(line) for line in jout.read_text().splitlines()]
        assert [(r["log_s"], r["kappa"]) for r in records] == [
            (float(log_s), float(kappa)) for log_s, kappa in expected]
        first = out.read_text(), jout.read_text()
        assert run(capsys, *args)[0] == cli.EXIT_OK
        assert (out.read_text(), jout.read_text()) == first

    def test_interrupted_sweep_keeps_finished_points(self, tmp_path, capsys, monkeypatch):
        class Interrupt(BaseException):
            pass

        args = ("sweep", "--rows", "8", "--cols", "8", "--log-s-min", "0",
                "--log-s-max", "1.5", "--steps", "4", "--kappas", "1,10")
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        assert run(capsys, *args, "--out", str(full), "--json-out", str(full) + ".jsonl")[0] == 0
        point, calls = cli._sweep_point, []

        def interrupted(spec_base, log_s, kappas, point_args, regions):
            calls.append(log_s)
            if len(calls) == 3:
                raise Interrupt
            return point(spec_base, log_s, kappas, point_args, regions)

        monkeypatch.setattr(cli, "_sweep_point", interrupted)
        with pytest.raises(Interrupt):
            cli.main([*args, "--out", str(cut), "--json-out", str(cut) + ".jsonl"])
        header, rows = read_rows(full)
        assert read_rows(cut) == (header, rows[:4])  # both kappa rows of log s 0 and 0.5
        records = (tmp_path / "full.csv.jsonl").read_text().splitlines()
        assert (tmp_path / "cut.csv.jsonl").read_text().splitlines() == records[:4]

        calls.clear()
        monkeypatch.setattr(cli, "_sweep_point", lambda *a: calls.append(a[1]) or point(*a))
        assert run(capsys, *args, "--out", str(cut), "--json-out", str(cut) + ".jsonl")[0] == 0
        assert calls == [1.0, 1.5]
        assert read_rows(cut) == (header, rows)
        assert (tmp_path / "cut.csv.jsonl").read_text().splitlines() == records

    def test_failed_point_exits_numerical(self, tmp_path, capsys):
        # U is too ill-conditioned at log s = 8; log s = 1 still succeeds
        out = tmp_path / "f.csv"
        code, _, stderr = run(capsys, "sweep", "--rows", "8", "--cols", "8",
                              "--log-s-min", "1", "--log-s-max", "8", "--steps", "2",
                              "--kappas", "1,10", "--out", str(out))
        assert code == cli.EXIT_NUMERICAL
        _, rows = read_rows(out)
        assert [row.split(",")[0] for row in rows] == ["1", "1"]
        assert stderr.count("failed") == 2
        assert "log_s=8 kappa=10" in stderr

    def test_extreme_squeezing_points_exit_numerical(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "sweep", "--rows", "12", "--cols", "12",
                              "--log-s-min", "8", "--log-s-max", "13", "--steps", "6",
                              "--out", str(out))
        assert code == cli.EXIT_NUMERICAL
        assert read_rows(out)[1] == []
        for log_s in ("8", "9", "13"):
            assert "point log_s=%s kappa=1 failed: " % log_s in stderr

    def test_unknown_metric_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_point", None)  # no point may run
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, *SWEEP_ARGS[:-1], "tee,tln_kp", "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert "tee,tln_kp" in stderr
        assert not out.exists()

    def test_blas_thread_count_invariance(self, tmp_path):
        # the KP path (cell-column FFT of U, small boundary eigensolves) prints the
        # same bits under 1 and 2 BLAS threads; the gate leaves room for last digits
        argv = ["sweep", "--rows", "16", "--cols", "16", "--log-s-min", "1",
                "--log-s-max", "3.2", "--steps", "4", "--kappas", "1,2,10",
                "--metrics", ",".join(cli.SWEEP_COLUMNS[1:-1])]
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / ("t%s.csv" % threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([SRC] + sys.path))
            subprocess.run([sys.executable, "-m", "gausstopo.cli", *argv, "--out", str(out)],
                           env=env, check=True, timeout=300)
            _, rows = read_rows(out)
            tables.append(np.array([[float(x) for x in row.split(",")] for row in rows]))
        assert tables[0].shape == (12, len(cli.SWEEP_COLUMNS))
        assert np.abs(tables[0] - tables[1]).max() <= 1e-9

    def test_kappa_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for kappas in ("1,0.5", "1,nan", "1,inf", "1,x"):
            code, _, _ = run(capsys, *SWEEP_ARGS, "--kappas", kappas, "--out", str(out))
            assert code == cli.EXIT_VALIDATION
            assert not out.exists()

    def test_pattern_built_and_regions_planned_once(self, tmp_path, capsys, monkeypatch):
        # U's pattern is built once, each point fills its values in, and the
        # batch of the KP unions and that of the LW regions are planned, and
        # so checked, at the first point only
        calls = {"pattern": [], "graph": [], "plans": []}
        for module, name, key in ((lattice, "_cell_stencil", "pattern"),
                                  (lattice, "surface_code_graph_analytic", "graph"),
                                  (engine, "_region_ids", "plans")):
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _k=key:
                                calls[_k].append(a) or _f(*a))
        code, _, _ = run(capsys, "sweep", "--rows", "16", "--cols", "16", "--log-s-min", "1",
                         "--log-s-max", "2.8", "--steps", "4", "--kappas", "1,10",
                         "--metrics", ",".join(cli.SWEEP_COLUMNS[1:-1]),
                         "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert len(calls["pattern"]) == 1 and len(calls["graph"]) == 4
        spec = gt.LatticeSpec(16, 16, "torus", 1.0)
        lw = topo.lw_regions(spec)
        planned = [key for batch, _ in calls["plans"] for key in batch]
        assert sorted(planned) == sorted(list(topo.kp_regions(spec).kp_unions)
                                         + [tuple(lw.regions[name]) for name in "ABCD"])

    def test_resumed_sweep_builds_no_graph(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r.csv"
        assert run(capsys, *SWEEP_ARGS, "--out", str(out))[0] == 0
        written = out.read_text()
        for name in ("_surface_code_pattern", "surface_code_graph_analytic"):
            monkeypatch.setattr(lattice, name, None)
        monkeypatch.setattr(cli, "_sweep_point", None)
        assert run(capsys, *SWEEP_ARGS, "--out", str(out))[0] == 0
        assert out.read_text() == written

    def test_torus_without_closed_form_refused(self, tmp_path, capsys, monkeypatch):
        # the pattern is built before any point: a validation error, no CSV
        monkeypatch.setattr(cli, "_sweep_point", None)  # no point may run
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, "sweep", "--rows", "12", "--cols", "13",
                                   "--log-s-min", "1", "--log-s-max", "2", "--steps", "2",
                                   "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert stdout == ""
        assert stderr.startswith("error: the closed-form surface code needs a torus")
        assert not out.exists()


def exit_of(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse of `argv` that exits."""
    with pytest.raises(SystemExit) as done:
        parse(argv)
    captured = capsys.readouterr()
    return done.value.code, captured.out, captured.err


class TestParser:
    """One full parser, built once per process, parses every command line;
    help, usage and errors read as that parser writes them."""

    @pytest.mark.parametrize("command", list(cli.build_parser()._subparsers._group_actions[0]
                                             .choices))
    def test_subcommand_help_matches_full_parser(self, capsys, command):
        full = cli.build_parser()._subparsers._group_actions[0].choices[command]
        assert exit_of(capsys, cli.main, [command, "--help"]) == (0, full.format_help(), "")

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["--bogus"], ["upper-bound", "--log-s", "1", "--bogus"],
        ["tee", "--rows", "4"], ["tee", "--rows", "x", "--cols", "4"],
        ["upper-bound", "--log-s", "1", "extra"], ["tmi", "--rows", "8", "--cols", "8", "--lo"],
    ], ids=["none", "help", "unknown-command", "unknown-top-option", "unknown-option",
            "missing-flag", "bad-value", "extra-argument", "ambiguous-prefix"])
    def test_usage_and_errors_match_full_parser(self, capsys, argv):
        done = exit_of(capsys, cli.main, argv)
        assert done == exit_of(capsys, cli.build_parser().parse_args, argv)
        assert done[0] == (0 if argv == ["--help"] else cli.EXIT_VALIDATION)

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, "upper-bound", "--log-s", "0")
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        code, stdout, _ = run(capsys, "upper-bound", "--log-s", "0")
        assert code == cli.EXIT_OK
        assert json.loads(stdout)["log_s"] == 0.0
        assert built == []


# past ln(float max / 8) / 4 ~ 176.93, 8 s^4 or 8 s^-4 overflows
OUT_OF_RANGE = ["nan", "inf", "-inf", "177.93", "-177.93", "400", "-178"]


class TestLogSRange:
    def assert_refused(self, capsys, *argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == cli.EXIT_VALIDATION
        assert stdout == ""
        assert stderr.startswith("error: log s must be finite")

    @pytest.mark.parametrize("log_s", OUT_OF_RANGE)
    @pytest.mark.parametrize("argv", [
        ("tee", "--rows", "12", "--cols", "12"),
        ("tee", "--rows", "12", "--cols", "12", "--method", "lw"),
        ("tln", "--rows", "12", "--cols", "12"),
        ("tmi", "--rows", "12", "--cols", "12", "--kappa", "10", "--lower"),
        ("correlations", "--rows", "12", "--cols", "12", "--fit"),
        ("bounds", "--rows", "12", "--cols", "12"),
        ("upper-bound",),
        ("spectrum", "--n", "5", "--m", "5"),
    ], ids=["tee", "tee-lw", "tln", "tmi", "correlations", "bounds", "upper-bound", "spectrum"])
    def test_refused_where_it_enters(self, capsys, argv, log_s):
        self.assert_refused(capsys, *argv, "--log-s=" + log_s)

    @pytest.mark.parametrize("log_s", OUT_OF_RANGE)
    @pytest.mark.parametrize("command", ["map", "build"])
    def test_refused_before_a_state_is_written(self, tmp_path, capsys, command, log_s):
        out = tmp_path / "state.json"
        self.assert_refused(capsys, command, "--rows", "8", "--cols", "8",
                            "--log-s=" + log_s, "--out", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("low,high", [("-178", "1"), ("1", "177.93"), ("nan", "1"),
                                          ("1", "nan"), ("1", "inf"), ("-inf", "1")])
    def test_sweep_refused_before_any_point(self, tmp_path, capsys, monkeypatch, low, high):
        monkeypatch.setattr(cli, "_sweep_point", None)  # no point may run
        out = tmp_path / "x.csv"
        self.assert_refused(capsys, "sweep", "--rows", "8", "--cols", "8",
                            "--log-s-min=" + low, "--log-s-max=" + high, "--steps", "3",
                            "--out", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("log_s", ["20", "90", "176.9"])
    def test_upper_bound_finite_past_cancellation(self, capsys, log_s):
        # at log s 20 the difference form printed 0.0, at 90 s^8 overflowed to
        # NaN; TestUpperBound.test_matches_mpmath checks the library value
        code, stdout, _ = run(capsys, "upper-bound", "--log-s", log_s)
        assert code == cli.EXIT_OK
        value = json.loads(stdout)["tee_upper"]
        assert value == topo.tee_upper_bound(np.exp(float(log_s)))
        assert value == pytest.approx(2 / np.log(2) * float(log_s), rel=0.01)

    def test_spectrum_inside_range(self, capsys):
        # gap / asymptotic no longer depends on s at large s; 20 s^4 overflowed
        # in w(d) from log s ~ 176.5 on and moved it
        ratios = []
        for log_s in ("100", "176.9"):
            code, stdout, _ = run(capsys, "spectrum", "--n", "5", "--m", "5", "--log-s", log_s)
            assert code == cli.EXIT_OK
            ratios.append(float(stdout.splitlines()[-1].split(",")[-1]))
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)


def test_readme_examples_parse():
    """Every `gausstopo ...` line of README's sh blocks parses, so its
    examples follow the flags as they change."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.S | re.M)
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    examples = [argv[1:] for argv in lines if argv[:1] == ["gausstopo"]]
    assert len(examples) >= 10
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_python_m_runs_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
    done = subprocess.run([sys.executable, "-m", "gausstopo", "upper-bound", "--log-s", "0"],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == cli.EXIT_OK
    assert json.loads(done.stdout)["log_s"] == 0.0


def test_tracer_targets_resolve(monkeypatch):
    """Every function perfbench/tracing.py patches still exists, so a renamed
    or removed public name breaks this test and not only the traced benchmark."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for key, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module("gausstopo." + key), attr, None)), \
            (key, attr)


def package_sources():
    """The paths of the package's .py files."""
    return [os.path.join(folder, name)
            for folder, _, names in os.walk(os.path.join(SRC, "gausstopo"))
            for name in names if name.endswith(".py")]


def test_private_names_in_package_text_are_defined():
    """Every backticked private name in the package's docstrings and comments
    (`_name`, or a part of a dotted `_Class.name` or `module._name`) is bound
    somewhere in the package, so a renamed or deleted helper leaves no stale
    reference behind."""
    bound, named = set(), set()
    for path in package_sources():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                bound.add(node.attr)
        named |= {(os.path.basename(path), part) for name in re.findall(r"`([\w.]+)`", text)
                  for part in name.split(".") if part.startswith("_") and part[:2] != "__"}
    assert len(named) > 20
    assert sorted((path, part) for path, part in named if part not in bound) == []


def run_fresh(tmp_path, *argv):
    """Run `python -X importtime *argv` in a fresh interpreter; returns the
    finished process and the names of every module it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, imported


TORUS = ("--rows", "12", "--cols", "12", "--log-s", "2.8")
KP_PASS = """import gausstopo as gt
spec = gt.LatticeSpec(12, 12, "torus", 2.8)
cov = gt.covariance_from_graph(gt.surface_code_graph_analytic(spec))
kp = gt.kp_regions(spec)
print(gt.tee_kp(cov, kp), gt.tln_kp(cov, kp), gt.tmi(gt.thermal_scale(cov, 10.0), kp),
      gt.tmi_lower_bound(cov, kp))
"""
# the pipeline_corr benchmark pass at its warm-up sizes
PIPELINE_PASS = """import warnings
from gausstopo import correlations, engine, lattice
spec = lattice.LatticeSpec(4, 8, "torus", 1.0)
graph, _ = lattice.map_cluster_to_surface(spec)
graph.u_part, lattice.kept_mode_adjacency(spec)
sg = lattice.SurfaceGraph(lattice.LatticeSpec(4, 4, "torus", 1.0))
lattice.nullifier_commutators(lattice.nullifier_vectors(sg, 1.0))
spec = lattice.LatticeSpec(20, 20, "planar", 3.2)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))
print(correlations.fit_correlation_length(*correlations.axis_samples(cov, spec, 13)),
      correlations.area_law_fit(cov, spec))
spec = lattice.LatticeSpec(8, 8, "torus", 1.0)
cov = engine.covariance_from_graph(lattice.surface_code_graph_analytic(spec))
print(correlations.verify_bound(cov, spec))
"""
PLANAR = ("--rows", "12", "--cols", "12", "--boundary", "planar")


def imports_scipy(imported):
    return {name for name in imported if name.split(".")[0] == "scipy"}


class TestStartUp:
    """No route imports scipy: the even-torus route reads U from numpy CSC
    arrays and takes U^-1 from an FFT, the planar, pipeline and JSON routes
    take a numpy block Cholesky factor, and the fit is a numpy
    Levenberg-Marquardt."""

    @pytest.mark.parametrize("argv", [
        ("-c", "import gausstopo"),
        ("-c", KP_PASS),
        ("-m", "gausstopo", "tee", *TORUS),
        ("-m", "gausstopo", "tln", *TORUS),
        ("-m", "gausstopo", "tmi", *TORUS, "--kappa", "10", "--lower"),
        ("-m", "gausstopo", "sweep", "--rows", "12", "--cols", "12", "--log-s-min", "2.4",
         "--log-s-max", "3.2", "--steps", "2", "--kappas", "1,10"),
    ], ids=["import", "library-kp", "tee", "tln", "tmi-lower", "sweep"])
    def test_torus_route_never_imports_scipy(self, tmp_path, argv):
        done, imported = run_fresh(tmp_path, *argv)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert "numpy" in imported  # the import record was read
        assert not imports_scipy(imported)

    @pytest.mark.parametrize("argv", [
        ("-m", "gausstopo", "tee", *PLANAR),
        ("-m", "gausstopo", "map", *TORUS, "--out", "state.json"),
        ("-m", "gausstopo", "build", "--kind", "surface-pipeline", "--rows", "8", "--cols", "6",
         "--boundary", "planar", "--out", "state.json"),
        ("-m", "gausstopo", "correlations", "--rows", "20", "--cols", "20", "--boundary",
         "planar", "--fit"),
        ("-m", "gausstopo", "correlations", *PLANAR),
        ("-m", "gausstopo", "bounds", *PLANAR),
        ("-c", PIPELINE_PASS),
    ], ids=["planar-tee", "map", "build-pipeline", "correlations-fit", "planar-correlations",
            "bounds", "library-pipeline"])
    def test_planar_pipeline_fit_routes_never_import_scipy(self, tmp_path, argv):
        done, imported = run_fresh(tmp_path, *argv)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert "numpy" in imported  # the import record was read
        assert not imports_scipy(imported)

    def test_package_source_has_no_scipy_import(self):
        sources = package_sources()
        assert len(sources) > 5
        for path in sources:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "import scipy" not in text and "from scipy" not in text, path
