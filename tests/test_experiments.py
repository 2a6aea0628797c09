"""Tests for trials, sweeps, CSV output, and growth-law fitting."""

import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from peelkit import (
    ModelParams,
    PeelkitError,
    SweepConfig,
    TrialRecord,
    component_growth_check,
    compute_threshold_analytic,
    experiments,
    fit_growth,
    read_sweep_csv,
    run_trial,
    sample_binomial_hypergraph,
    sweep,
)


class TestRunTrial:
    def test_p_zero_one_round(self):
        rec = run_trial(ModelParams(r=2, n=50, c=0.0, seed=1, k=2), 30)
        assert rec.s == 1  # all isolated vertices drop in round 1
        assert rec.core_vertices == 0 and rec.core_edges == 0

    def test_p_one_k5_core(self):
        rec = run_trial(ModelParams(r=2, n=5, c=5.0, seed=1, k=2), 30)
        assert rec.s == 0
        assert rec.core_vertices == 5 and rec.core_edges == 10

    def test_deterministic(self):
        params = ModelParams(r=3, n=300, c=3.0, seed=99, k=2)
        a, b = run_trial(params, 30), run_trial(params, 30)
        assert a == b

    def test_requires_k(self):
        with pytest.raises(PeelkitError):
            run_trial(ModelParams(r=2, n=10, c=0.5, seed=0), 30)

    def test_component_probe(self):
        # probe at round 0 sees the whole graph's largest component
        rec = run_trial(ModelParams(r=2, n=5, c=5.0, seed=1, k=2), i_probe=0)
        assert rec.max_component_after_I == 5

    def test_negative_i_probe_rejected_before_sampling(self, monkeypatch):
        def sample(params):
            raise AssertionError("sampled")

        monkeypatch.setattr(experiments, "sample_binomial_hypergraph", sample)
        with pytest.raises(PeelkitError, match="i_probe"):
            run_trial(ModelParams(r=3, n=64, c=2.0, seed=1, k=2), i_probe=-1)

    def test_supercritical_memory_budget(self):
        # Peak numpy allocation of one trial, per sampled edge.  Vertex ids at
        # int64 and whole-array copies in the trial took about 110 B/edge with
        # numpy 2.4, int32 ids and at most three live link arrays about 65.
        # With the graph and the trace released before the labelling, the
        # peak was the peel's own working set: about 51.  The peel now
        # gathers from h.edges in place, and the peak is the sampler's:
        # about 41.  The sampler's duplicate key, built in place, takes it to
        # about 36.  The sampler now peaks at about 33.  The trial peaked at
        # about 37 while the probe rows were copied out of the graph with the
        # trace still alive; with the trace released first, it is about 33.
        # With narrower sampler draws, a cell peel whose cells hold the vertex
        # rounds, and a labelling that only reads the probe rows, it is about
        # 30.2, at graph_after_rounds: the graph, the trace and the probe's
        # vertex and edge ids.
        c = 1.25 * compute_threshold_analytic(3, 2)[2]
        params = ModelParams(r=3, n=2**18, c=c, seed=17, k=2)
        m = sample_binomial_hypergraph(params).m
        tracemalloc.start()
        try:
            run_trial(params, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 32, f"{peak / m:.1f} B per sampled edge"

    @pytest.mark.skipif(
        not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="needs glibc >= 2.33"
    )
    def test_large_arrays_stay_mapped_after_a_larger_one_is_freed(self):
        # glibc's default raises its mmap threshold to the size of each freed
        # mapping, so after a 24 MiB array is freed an 8 MiB one would come
        # from the heap; a trial pins the threshold.  A fresh process, since
        # an 8 MiB hole already in this one's heap would serve it either way.
        code = (
            "import ctypes\n"
            "import numpy as np\n"
            "from peelkit import ModelParams, run_trial\n"
            "class MallInfo2(ctypes.Structure):\n"
            "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks',"
            " 'smblks', 'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks',"
            " 'fordblks', 'keepcost')]\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.mallinfo2.restype = MallInfo2\n"
            "run_trial(ModelParams(r=3, n=64, c=2.0, seed=1, k=2), 30)\n"
            "np.ones(24 << 20, dtype=np.uint8)  # mapped, then freed\n"
            "before = libc.mallinfo2().hblkhd\n"
            "a = np.ones(8 << 20, dtype=np.uint8)\n"
            "print(libc.mallinfo2().hblkhd - before)\n"
        )
        src = str(Path(experiments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) >= 8 << 20, "the 8 MiB array came from the heap"


class TestSweep:
    def config(self, tmp_path, **kw):
        defaults = dict(
            r=3,
            k=2,
            c=2.0,
            n_min=64,
            n_max=256,
            points=3,
            trials=2,
            master_seed=5,
            i_probe=10,
            out=str(tmp_path / "out.csv"),
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_row_accounting(self, tmp_path):
        config = self.config(tmp_path)
        records = sweep(config)
        assert len(records) == 6
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 8  # header + 6 rows + footer
        assert lines[0].startswith("r,k,c,n,trial,")
        assert lines[-1] == "#done"

    def test_byte_identical_reruns(self, tmp_path):
        c1 = self.config(tmp_path, out=str(tmp_path / "a.csv"))
        c2 = self.config(tmp_path, out=str(tmp_path / "b.csv"))
        sweep(c1)
        sweep(c2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rows_ordered(self, tmp_path):
        records = sweep(self.config(tmp_path))
        keys = [(r.n, r.trial_index) for r in records]
        assert keys == sorted(keys)

    def test_read_back(self, tmp_path):
        config = self.config(tmp_path)
        records = sweep(config)
        loaded = read_sweep_csv(config.out)
        assert [(r.n, r.trial_index, r.s) for r in loaded] == [
            (r.n, r.trial_index, r.s) for r in records
        ]

    @pytest.mark.parametrize("c", [np.float64(2.0), np.float32(2.1)], ids=["float64", "float32"])
    def test_numpy_c_reads_back(self, tmp_path, c):
        # c is written as a float's repr, not as np.float64(2.0)
        config = self.config(tmp_path, c=c)
        records = sweep(config)
        assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith(
            f"3,2,{float(c)!r},64,0,"
        )
        loaded = read_sweep_csv(config.out)
        assert loaded == records
        assert fit_growth(loaded, "loglog") == fit_growth(records, "loglog")

    def test_truncated_file_rejected(self, tmp_path):
        config = self.config(tmp_path)
        sweep(config)
        text = (tmp_path / "out.csv").read_text()
        (tmp_path / "cut.csv").write_text(text.replace("#done\n", ""))
        with pytest.raises(PeelkitError):
            read_sweep_csv(tmp_path / "cut.csv")

    @pytest.mark.parametrize("row", [
        "3,2,6.0,256,1,7,x,0,0,3",
        "3,2,6.0,256,1,7,4,0,0,2.5",
        "3,2,6.0,256,1,7,4,-1,0,3",
        "3,2,6.0,256,1",
        "3,2,6.0,256,1,7,4,0,0,3,9",
    ], ids=["rounds", "component", "negative", "short", "long"])
    def test_malformed_row_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{experiments.CSV_HEADER}\n3,2,6.0,256,0,5,4,0,0,3\n\n{row}\n#done\n"
        )
        with pytest.raises(PeelkitError) as err:
            read_sweep_csv(path)
        assert str(err.value) == (
            f"{path} line 4: not 10 fields with integers from n on: {row!r}"
        )

    @pytest.mark.parametrize("rows,lineno,message", [
        (["3,2,7.0,512,0,5,4,0,0,3"], 4, "r,k,c '3,2,7.0' differ from the first row's "
         "'3,2,6.0'; a CSV holds one sweep"),
        (["3,2,6,512,0,5,4,0,0,3"], 4, "r,k,c '3,2,6' differ from the first row's "
         "'3,2,6.0'; a CSV holds one sweep"),
        (["4,2,6.0,512,0,5,4,0,0,3"], 4, "r,k,c '4,2,6.0' differ from the first row's "
         "'3,2,6.0'; a CSV holds one sweep"),
        (["#done", "3,2,6.0,512,0,5,4,0,0,3"], 5,
         "line after '#done': '3,2,6.0,512,0,5,4,0,0,3'"),
    ], ids=["c", "c_text", "r", "after_done"])
    def test_row_from_another_sweep_names_line(self, tmp_path, rows, lineno, message):
        path = tmp_path / "mixed.csv"
        body = "\n".join(rows)
        path.write_text(f"{experiments.CSV_HEADER}\n3,2,6.0,256,0,5,4,0,0,3\n\n{body}\n#done\n")
        with pytest.raises(PeelkitError) as err:
            read_sweep_csv(path)
        assert str(err.value) == f"{path} line {lineno}: {message}"

    @pytest.mark.parametrize("rkc", ["3,2,abc", "3,x,6.0", "3.0,2,6.0", "-3,2,6.0", "3,2,"])
    def test_first_row_rkc_must_parse(self, tmp_path, rkc):
        path = tmp_path / "bad.csv"
        row = f"{rkc},256,0,5,4,0,0,3"
        path.write_text(f"{experiments.CSV_HEADER}\n{row}\n#done\n")
        with pytest.raises(PeelkitError) as err:
            read_sweep_csv(path)
        assert str(err.value) == (
            f"{path} line 2: r and k must be integers and c a float: {row!r}"
        )

    def test_blank_lines_after_done_accepted(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(f"{experiments.CSV_HEADER}\n3,2,6.0,256,0,5,4,0,0,3\n#done\n\n  \n")
        assert [r.s for r in read_sweep_csv(path)] == [4]

    def test_config_validation(self):
        with pytest.raises(PeelkitError):
            SweepConfig(r=2, k=2, c=1.0, n_min=5, n_max=100, points=3,
                        trials=1, master_seed=0)
        with pytest.raises(PeelkitError):
            SweepConfig(r=2, k=2, c=1.0, n_min=10, n_max=100, points=2,
                        trials=1, master_seed=0)

    def test_negative_i_probe_rejected(self):
        with pytest.raises(PeelkitError, match="i_probe"):
            SweepConfig(r=2, k=2, c=1.0, n_min=10, n_max=100, points=3,
                        trials=1, master_seed=0, i_probe=-1)

    def test_degenerate_grid_rejected(self):
        # a reversed range and a range too narrow for `points` distinct n
        for n_min, n_max, points in ((1000, 100, 5), (10, 11, 3)):
            with pytest.raises(PeelkitError, match="grid"):
                SweepConfig(r=2, k=2, c=1.0, n_min=n_min, n_max=n_max,
                            points=points, trials=1, master_seed=0)
        # n_max == n_min stays a one-n sweep
        one = SweepConfig(r=2, k=2, c=1.0, n_min=64, n_max=64, points=3,
                          trials=1, master_seed=0)
        assert one.n_grid() == [64]

    def test_geometric_grid(self):
        config = SweepConfig(r=2, k=3, c=1.0, n_min=2**5, n_max=2**8,
                             points=4, trials=1, master_seed=0)
        assert config.n_grid() == [32, 64, 128, 256]

    @pytest.mark.parametrize("n_min, n_max, name", [
        (256, 2**63, "n_max"), (256, 10**30, "n_max"), (2**63, 100, "n_min"),
    ])
    def test_n_past_int64_rejected(self, n_min, n_max, name):
        n = n_min if name == "n_min" else n_max
        with pytest.raises(PeelkitError, match=f"^{name} = {n} is not below 2\\^63"):
            SweepConfig(r=3, k=2, c=1.0, n_min=n_min, n_max=n_max, points=3,
                        trials=1, master_seed=0)

    @pytest.mark.parametrize("n_max", [2**53 + 1, 2**62 + 12345, 2**63 - 1])
    def test_grid_ends_at_n_max_past_float_precision(self, n_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no int64 wrap on the way
            grid = SweepConfig(r=3, k=2, c=1.0, n_min=256, n_max=n_max, points=4,
                               trials=1, master_seed=0).n_grid()
        assert len(grid) == 4 and grid[0] == 256 and grid[-1] == n_max
        assert all(type(n) is int for n in grid) and grid == sorted(set(grid))


def synthetic_records(ns, f):
    return [
        TrialRecord(n=n, trial_index=t, seed=0, s=f(n), core_vertices=0,
                    core_edges=0, max_component_after_I=0)
        for n in ns
        for t in range(3)
    ]


class TestFitGrowth:
    def test_exact_loglog_recovery(self):
        recs = synthetic_records(
            [64, 256, 1024, 4096], lambda n: 2 * math.log(math.log(n)) + 1
        )
        fit = fit_growth(recs, "loglog")
        assert fit.slope == pytest.approx(2, abs=1e-9)
        assert fit.intercept == pytest.approx(1, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0, abs=1e-9)

    def test_exact_log_recovery(self):
        recs = synthetic_records([64, 256, 1024, 4096], lambda n: 0.5 * math.log(n))
        fit = fit_growth(recs, "log")
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.correlation == pytest.approx(1, abs=1e-9)

    def test_drop_smallest(self):
        recs = synthetic_records(
            [16, 64, 256, 1024, 4096],
            lambda n: 0.5 * math.log(n) if n > 16 else 99,
        )
        fit = fit_growth(recs, "log", drop_smallest=1)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)

    def test_negative_drop_smallest_rejected(self):
        recs = synthetic_records([64, 256, 1024, 4096], lambda n: 1.0)
        with pytest.raises(PeelkitError, match=r"^drop_smallest must be >= 0, got -1$"):
            fit_growth(recs, "log", drop_smallest=-1)

    def test_too_few_points(self):
        with pytest.raises(PeelkitError):
            fit_growth(synthetic_records([64, 256], lambda n: 1.0), "log")

    def test_loglog_needs_n_16(self):
        with pytest.raises(PeelkitError):
            fit_growth(synthetic_records([10, 64, 256], lambda n: 1.0), "loglog")

    def test_unknown_model(self):
        with pytest.raises(PeelkitError):
            fit_growth(synthetic_records([64, 256, 1024], lambda n: 1.0), "sqrt")


class TestComponentCheck:
    def test_all_zero_passes(self):
        recs = synthetic_records([64, 256, 1024], lambda n: 1)
        passed, stats = component_growth_check(recs, 0.001)
        assert passed

    def test_linear_components_fail(self):
        recs = [
            TrialRecord(n=n, trial_index=t, seed=0, s=1, core_vertices=0,
                        core_edges=0, max_component_after_I=n)
            for n in (64, 256, 4096)
            for t in range(3)
        ]
        passed, stats = component_growth_check(recs, 10.0)
        assert not passed
        assert stats[4096] == (0.0, 4096)
