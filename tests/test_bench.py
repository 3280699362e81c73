import csv

import numpy as np
import pytest

from idsketch import cp_tensor
from idsketch.bench import (
    CSV_HEADER,
    ExperimentConfig,
    derive_seed,
    generate_input,
    run_experiment,
    run_matrix_trial,
    run_tensor_trial,
    write_csv,
)


def matrix_config(**overrides):
    base = dict(
        kind="matrix",
        sizes=[400],
        terms=100,
        rank=10,
        sketch_dim=20,
        density=0.02,
        methods=["gaussian", "srft", "countsketch"],
        trials=10,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            matrix_config(kind="graph")
        with pytest.raises(ValueError):
            matrix_config(rank=30)  # rank > sketch_dim
        with pytest.raises(ValueError):
            matrix_config(trials=0)
        with pytest.raises(ValueError):
            matrix_config(methods=["gram"])  # tensor method on matrix kind
        with pytest.raises(ValueError):
            matrix_config(density=0.0)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"kind": "matrix", "sizes": [300], "terms": 50, "rank": 5,'
            ' "sketch_dim": 15, "density": 0.05, "methods": ["countsketch"],'
            ' "trials": 2, "seed": 1}'
        )
        cfg = ExperimentConfig.from_json(path)
        assert cfg.sizes == [300] and cfg.trials == 2


class TestRunExperiment:
    def test_row_counts(self):
        reports, summaries = run_experiment(matrix_config())
        assert len(reports) == 30  # 1 size x 3 methods x 10 trials
        assert len(summaries) == 3
        assert all(r.status == "ok" for r in reports)

    def test_hash_methods_replay_exactly(self):
        one, _ = run_experiment(matrix_config(trials=2))
        two, _ = run_experiment(matrix_config(trials=2))
        for a, b in zip(one, two):
            if a.method in ("countsketch", "srft"):
                assert a.error_estimate == b.error_estimate
                assert a.seed == b.seed

    def test_single_row_replayable(self):
        cfg = matrix_config(trials=3)
        reports, _ = run_experiment(cfg)
        row = next(r for r in reports if r.method == "countsketch" and r.trial == 2)
        data = generate_input(cfg, row.size)
        _, err, _, _ = run_matrix_trial(
            data, row.method, row.rank, row.sketch_dim, row.seed
        )
        assert err == row.error_estimate

    def test_tensor_kind(self):
        cfg = ExperimentConfig(
            kind="tensor",
            sizes=[40],
            terms=30,
            rank=5,
            sketch_dim=15,
            density=0.1,
            methods=["gram", "gaussian", "tensorsketch"],
            trials=2,
            seed=3,
            n_modes=3,
        )
        reports, summaries = run_experiment(cfg)
        assert len(reports) == 6
        assert all(r.status == "ok" for r in reports)
        assert all(r.error_norm_kind == "frobenius-exact" for r in reports)
        row = next(r for r in reports if r.method == "tensorsketch")
        x = generate_input(cfg, 40)
        _, err, _, _ = run_tensor_trial(x, "tensorsketch", 5, 15, row.seed)
        assert err == row.error_estimate

    def test_unsketched_methods_record_no_sketch_dim(self, tmp_path):
        # a gram trial used to record the config's sketch_dim, which it never uses
        cfg = ExperimentConfig(
            kind="tensor", sizes=[20], terms=24, rank=6, sketch_dim=10,
            density=0.3, methods=["gram", "tensorsketch"], trials=2, seed=5,
            n_modes=3,
        )
        reports, summaries = run_experiment(cfg)
        assert all(r.status == "ok" for r in reports)
        expected = {"gram": None, "tensorsketch": 10}
        assert {r.method: r.sketch_dim for r in reports} == expected
        assert {s["method"]: s["sketch_dim"] for s in summaries} == expected
        row = next(r for r in reports if r.method == "gram")
        _, err, _, _ = run_tensor_trial(
            generate_input(cfg, 20), row.method, row.rank, row.sketch_dim, row.seed
        )
        assert err == row.error_estimate
        path = tmp_path / "out.csv"
        write_csv(path, reports, summaries)
        with open(path, newline="") as fh:
            cells = {(r["method"], r["sketch_dim"]) for r in csv.DictReader(fh)}
        assert cells == {("gram", ""), ("tensorsketch", "10")}

    def test_term_gram_once_per_dataset(self, monkeypatch):
        # the errors share one term Gram of the dataset; each gram trial still
        # computes its own inside its timed sketch phase
        calls = []
        original = cp_tensor._term_gram
        monkeypatch.setattr(
            cp_tensor, "_term_gram", lambda f, g: calls.append(1) or original(f, g)
        )
        cfg = ExperimentConfig(
            kind="tensor", sizes=[20], terms=24, rank=6, sketch_dim=10,
            density=0.3, methods=["tensorsketch", "gaussian", "gram"], trials=2,
            seed=5, n_modes=3,
        )
        reports, _ = run_experiment(cfg)
        assert all(r.status == "ok" for r in reports)
        assert len(calls) == 1 + 2

    def test_deterministic_method(self):
        reports, _ = run_experiment(
            matrix_config(methods=["deterministic"], trials=1)
        )
        assert reports[0].status == "ok"
        assert reports[0].sketch_time_seconds == 0.0

    def test_failures_recorded_not_raised(self):
        # sketch_dim >= tensor entries breaks tensorsketch's precondition;
        # its trials are recorded as failed while gaussian's still run
        cfg = ExperimentConfig(
            kind="tensor",
            sizes=[4],
            terms=8,
            rank=5,
            sketch_dim=16,
            density=0.5,
            methods=["tensorsketch", "gaussian"],
            trials=2,
            seed=11,
            n_modes=2,
        )
        reports, summaries = run_experiment(cfg)
        by_method = {m: [r for r in reports if r.method == m] for m in cfg.methods}
        assert all(r.status.startswith("failed:") for r in by_method["tensorsketch"])
        assert all(r.status == "ok" for r in by_method["gaussian"])
        ts_summary = next(s for s in summaries if s["method"] == "tensorsketch")
        assert ts_summary["n_ok"] == 0 and np.isnan(ts_summary["error_median"])


class TestCsv:
    def test_schema_and_counts(self, tmp_path):
        reports, summaries = run_experiment(matrix_config(trials=2))
        path = tmp_path / "out.csv"
        write_csv(path, reports, summaries)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        trial_rows = [r for r in rows[1:] if r[14] == "trial"]
        summary_rows = [r for r in rows[1:] if r[14] == "summary"]
        assert len(trial_rows) == 6 and len(summary_rows) == 3
        # floats carry full precision and parse back exactly
        r0 = next(r for r in trial_rows if r[1] == "countsketch")
        rep = next(r for r in reports if r.method == "countsketch" and str(r.trial) == r0[7])
        assert float(r0[10]) == rep.error_estimate

    def test_header_is_pinned(self):
        assert CSV_HEADER == [
            "kind", "method", "size", "terms", "rank", "sketch_dim", "density",
            "trial", "seed", "status", "error_estimate", "error_norm_kind",
            "sketch_time_seconds", "wall_time_seconds", "row_kind",
            "error_median", "error_mean", "sketch_time_median",
            "sketch_time_mean", "wall_time_median", "wall_time_mean",
        ]

    def test_derive_seed_stable(self):
        assert derive_seed(5, 1, 2, 3) == derive_seed(5, 1, 2, 3)
        assert derive_seed(5, 1, 2, 3) != derive_seed(5, 1, 2, 4)
