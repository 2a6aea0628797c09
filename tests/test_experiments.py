"""Tests for trials, sweeps, CSV output, and growth-law fitting."""

import math

import pytest

from peelkit import (
    ModelParams,
    PeelkitError,
    SweepConfig,
    TrialRecord,
    component_growth_check,
    fit_growth,
    read_sweep_csv,
    run_trial,
    sweep,
)


class TestRunTrial:
    def test_p_zero_one_round(self):
        rec = run_trial(ModelParams(r=2, n=50, c=0.0, seed=1, k=2))
        assert rec.s == 1  # all isolated vertices drop in round 1
        assert rec.core_vertices == 0 and rec.core_edges == 0

    def test_p_one_k5_core(self):
        rec = run_trial(ModelParams(r=2, n=5, c=5.0, seed=1, k=2))
        assert rec.s == 0
        assert rec.core_vertices == 5 and rec.core_edges == 10

    def test_deterministic(self):
        params = ModelParams(r=3, n=300, c=3.0, seed=99, k=2)
        a, b = run_trial(params, 30), run_trial(params, 30)
        assert a == b

    def test_requires_k(self):
        with pytest.raises(PeelkitError):
            run_trial(ModelParams(r=2, n=10, c=0.5, seed=0))

    def test_component_probe(self):
        # probe at round 0 sees the whole graph's largest component
        rec = run_trial(ModelParams(r=2, n=5, c=5.0, seed=1, k=2), i_probe=0)
        assert rec.max_component_after_I == 5


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

    def test_truncated_file_rejected(self, tmp_path):
        config = self.config(tmp_path)
        sweep(config)
        text = (tmp_path / "out.csv").read_text()
        (tmp_path / "cut.csv").write_text(text.replace("#done\n", ""))
        with pytest.raises(PeelkitError):
            read_sweep_csv(tmp_path / "cut.csv")

    def test_config_validation(self):
        with pytest.raises(PeelkitError):
            SweepConfig(r=2, k=2, c=1.0, n_min=5, n_max=100, points=3,
                        trials=1, master_seed=0)
        with pytest.raises(PeelkitError):
            SweepConfig(r=2, k=2, c=1.0, n_min=10, n_max=100, points=2,
                        trials=1, master_seed=0)

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
