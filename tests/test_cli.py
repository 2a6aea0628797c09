"""End-to-end tests of the command-line interface."""

import json

import pytest

from peelkit import cli, read_hg
from peelkit.experiments import CSV_HEADER


def run(capsys, *argv):
    rc = cli.main(list(argv))
    assert rc == 0
    return capsys.readouterr().out


class TestGenPeel:
    def test_gen_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "g.hg"
        run(capsys, "gen", "--r", "3", "--n", "200", "--c", "3.0",
            "--seed", "7", "--out", str(out))
        h = read_hg(out)
        assert h.r == 3 and h.n == 200

    def test_gen_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        for p in (a, b):
            run(capsys, "gen", "--r", "2", "--n", "100", "--c", "2.0",
                "--seed", "11", "--out", str(p))
        assert a.read_bytes() == b.read_bytes()

    def test_peel_output_line(self, tmp_path, capsys):
        hg = tmp_path / "tri.hg"
        hg.write_text("2 3 3\n0 1\n0 2\n1 2\n")
        out = run(capsys, "peel", "--input", str(hg), "--k", "2")
        assert out.strip() == "s=0 core_vertices=3 core_edges=3"

    def test_peel_trace_csv(self, tmp_path, capsys):
        hg = tmp_path / "path.hg"
        hg.write_text("2 3 2\n0 1\n1 2\n")
        trace = tmp_path / "trace.csv"
        out = run(capsys, "peel", "--input", str(hg), "--k", "2",
                  "--trace", str(trace))
        assert out.strip() == "s=2 core_vertices=0 core_edges=0"
        lines = trace.read_text().splitlines()
        assert lines[0] == (
            "round,removed_vertices,removed_edges,surviving_vertices,"
            "surviving_edges,deg_ge_k"
        )
        assert lines[1] == "1,2,2,1,0,0"
        assert lines[2] == "2,1,0,0,0,0"

    def test_peel_trace_rounds_reach_the_core(self, tmp_path, capsys):
        hg, trace = tmp_path / "g.hg", tmp_path / "trace.csv"
        run(capsys, "gen", "--r", "3", "--n", "4096", "--c", "6",
            "--seed", "1", "--out", str(hg))
        out = run(capsys, "peel", "--input", str(hg), "--k", "2",
                  "--trace", str(trace))
        fields = dict(kv.split("=") for kv in out.split())
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        s = int(fields["s"])
        assert s > 0 and int(fields["core_vertices"]) > 0
        assert [int(row[0]) for row in rows] == list(range(1, s + 1))
        assert int(rows[-1][3]) == int(fields["core_vertices"])
        assert int(rows[-1][4]) == int(fields["core_edges"])


class TestThreshold:
    def test_analytic_json(self, capsys):
        out = run(capsys, "threshold", "--r", "2", "--k", "3",
                  "--method", "analytic")
        d = json.loads(out)
        assert d["r"] == 2 and d["k"] == 3
        assert d["c_analytic"] == pytest.approx(3.3509, abs=1e-3)
        assert d["a_star"] == pytest.approx(2.4663, abs=1e-3)
        assert d["c_empirical"] is None

    @pytest.mark.parametrize("argv, fault", [
        (["--tol", "0"], "tol must be > 0, got 0.0"),
        (["--method", "empirical", "--trials", "0"], "trials must be >= 1, got 0"),
        (["--method", "empirical", "--tol", "0"], "tol must be > 0, got 0.0"),
        (["--tol", "inf"], "tol must be finite, got inf"),
        (["--method", "empirical", "--tol", "inf"], "tol must be finite, got inf"),
    ])
    def test_bad_argument_exits_2(self, capsys, argv, fault):
        assert cli.main(["threshold", "--r", "3", "--k", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"peelkit: error: {fault}\n"


class TestVerify:
    def test_json_reports(self, tmp_path, capsys):
        hg = tmp_path / "tri.hg"
        hg.write_text("2 3 3\n0 1\n0 2\n1 2\n")
        out = run(capsys, "verify", "--input", str(hg), "--k", "2",
                  "--s", "3", "--t", "3", "--c", "1.0")
        d = json.loads(out)
        assert d["density"]["exact_count"] == 1
        assert d["density"]["max_avg_degree"] == 2.0
        assert d["density"]["witness"] == [0, 1, 2]
        assert d["contraction"]["ok"] is True

    def test_c_inference_past_float_range_rejected(self, tmp_path, capsys):
        hg = tmp_path / "wide.hg"
        hg.write_text("60 1000000 0\n")
        assert cli.main(["verify", "--input", str(hg), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("peelkit: error: ") and "float range" in err


class TestErrors:
    def test_budget_overrun_exits_2(self, tmp_path, capsys):
        hg = tmp_path / "g.hg"
        run(capsys, "gen", "--r", "3", "--n", "4096", "--c", "6",
            "--seed", "1", "--out", str(hg))
        assert cli.main(["verify", "--input", str(hg), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"peelkit: error: C(4096,3) = {4096 * 4095 * 4094 // 6} "
            "exceeds budget 100000000\n"
        )

    @pytest.mark.parametrize("text,line,fault", [
        ("2 3 2\n0 1\n0 x\n", 3, "non-integer token in '0 x'"),
        ("2 3 2\n0 1\n0 3\n", 3, "edge (0, 3) has vertex outside [0, 3)"),
        ("2 -5 0\n", 1, "vertex count n must be in [0, 2^63), got -5"),
        (f"2 {2**63} 0\n", 1, f"vertex count n must be in [0, 2^63), got {2**63}"),
    ], ids=["token", "id_range", "n_negative", "n_2^63"])
    def test_bad_hg_line_exits_2(self, tmp_path, capsys, text, line, fault):
        hg = tmp_path / "bad.hg"
        hg.write_text(text)
        assert cli.main(["peel", "--input", str(hg), "--k", "2"]) == 2
        assert capsys.readouterr().err == f"peelkit: error: {hg} line {line}: {fault}\n"

    def test_negative_i_probe_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--r", "3", "--k", "2", "--c", "6", "--n-min", "256",
                "--n-max", "4096", "--points", "3", "--trials", "2",
                "--seed", "5", "--i-probe", "-1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "peelkit: error: i_probe must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_max", [2**63, 10**30])
    def test_n_max_past_int64_exits_2(self, tmp_path, capsys, n_max):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--r", "3", "--k", "2", "--c", "6", "--n-min", "256",
                "--n-max", str(n_max), "--points", "3", "--trials", "2",
                "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"peelkit: error: n_max = {n_max} is not below 2^63, the bound on n\n"
        )
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.hg"
        argv = ["gen", "--r", "3", "--n", "64", "--c", "2", "--seed", "-1",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "peelkit: error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        hg = tmp_path / "missing.hg"
        assert cli.main(["peel", "--input", str(hg), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"peelkit: error: [Errno 2] No such file or directory: '{hg}'\n"

    def test_trace_into_missing_directory_exits_2(self, tmp_path, capsys):
        hg = tmp_path / "path.hg"
        hg.write_text("2 3 2\n0 1\n1 2\n")
        trace = tmp_path / "nodir" / "trace.csv"
        argv = ["peel", "--input", str(hg), "--k", "2", "--trace", str(trace)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "s=2 core_vertices=0 core_edges=0\n"
        assert captured.err == (
            f"peelkit: error: [Errno 2] No such file or directory: '{trace}'\n"
        )

    def test_bound_past_float_range_exits_2(self, tmp_path, capsys):
        # n^(r-1) = 200000^59 overflows a float with or without --c
        hg = tmp_path / "big.hg"
        hg.write_text("60 200000 0\n")
        argv = ["verify", "--input", str(hg), "--k", "2", "--s", "1", "--t", "2",
                "--max-size", "1"]
        for extra in ([], ["--c", "1"]):
            assert cli.main(argv + extra) == 2
            assert capsys.readouterr().err == (
                "peelkit: error: n^(r-1) = 200000^59 is past the float range\n"
            )


    @pytest.mark.parametrize("c", ["-1", "nan"])
    def test_bound_c_negative_or_nan_exits_2(self, tmp_path, capsys, c):
        hg = tmp_path / "six.hg"
        hg.write_text("3 6 3\n0 1 2\n1 2 3\n3 4 5\n")
        assert cli.main(["verify", "--input", str(hg), "--k", "2", "--c", c]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"peelkit: error: c must be >= 0, got {float(c)}\n"


class TestSweepFit:
    def test_pipeline(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--r", "3", "--k", "2", "--c", "2.0",
            "--n-min", "64", "--n-max", "512", "--points", "4",
            "--trials", "2", "--seed", "3", "--out", str(out))
        text = out.read_text().splitlines()
        assert text[-1] == "#done"
        assert len(text) == 2 + 4 * 2
        fit = json.loads(run(capsys, "fit", "--in", str(out), "--model", "log"))
        assert set(fit) == {"model", "slope", "intercept", "residual_rms",
                            "correlation"}
        assert fit["model"] == "log"

    @pytest.mark.parametrize("rows,argv,message", [
        (["3,2,6.0,256,0,5,4,0,0,3", "3,2,6.0,1024,0,5,4,0,0,3",
          "3,2,7.0,4096,0,5,4,0,0,3", "#done"], [],
         "{out} line 4: r,k,c '3,2,7.0' differ from the first row's '3,2,6.0'; "
         "a CSV holds one sweep"),
        (["3,2,6.0,256,0,5,4,0,0,3", "#done", "3,2,6.0,512,0,5,4,0,0,3"], [],
         "{out} line 4: line after '#done': '3,2,6.0,512,0,5,4,0,0,3'"),
        ([f"3,2,6.0,{n},0,5,4,0,0,3" for n in (64, 256, 1024)] + ["#done"],
         ["--drop-smallest", "-1"], "drop_smallest must be >= 0, got -1"),
    ], ids=["mixed_c", "after_done", "negative_drop"])
    def test_fit_rejects_exits_2(self, tmp_path, capsys, rows, argv, message):
        out = tmp_path / "sweep.csv"
        out.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert cli.main(["fit", "--in", str(out), "--model", "log", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"peelkit: error: {message.format(out=out)}\n"

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        row = "3,2,6.0,256,0,5,x,0,0,3"  # rounds is not an integer
        out.write_text(f"{CSV_HEADER}\n{row}\n#done\n")
        assert cli.main(["fit", "--in", str(out), "--model", "log"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"peelkit: error: {out} line 2: not 10 fields with integers from n on: {row!r}\n"
        )
