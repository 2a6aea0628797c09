"""End-to-end tests of the command-line interface."""

import json

import pytest

from peelkit import PeelkitError, cli, read_hg


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


class TestThreshold:
    def test_analytic_json(self, capsys):
        out = run(capsys, "threshold", "--r", "2", "--k", "3",
                  "--method", "analytic")
        d = json.loads(out)
        assert d["r"] == 2 and d["k"] == 3
        assert d["c_analytic"] == pytest.approx(3.3509, abs=1e-3)
        assert d["a_star"] == pytest.approx(2.4663, abs=1e-3)
        assert d["c_empirical"] is None


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

    def test_c_inference_past_float_range_rejected(self, tmp_path):
        hg = tmp_path / "wide.hg"
        hg.write_text("60 1000000 0\n")
        with pytest.raises(PeelkitError, match="float range"):
            cli.main(["verify", "--input", str(hg), "--k", "2"])


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
