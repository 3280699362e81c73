import csv

import numpy as np
import pytest

from idsketch import bench, cp_tensor
from idsketch.bench import (
    CSV_HEADER,
    ERROR_NORM_KINDS,
    ExperimentConfig,
    IdReport,
    derive_seed,
    generate_input,
    run_experiment,
    run_matrix_trial,
    run_tensor_trial,
    summarize,
    write_csv,
)
from idsketch.cp_tensor import TENSOR_METHODS
from idsketch.matrix_id import MATRIX_METHODS, UNSKETCHED_METHODS


def count_term_grams(monkeypatch):
    """List that gains one entry per term Gram computed."""
    calls = []
    original = cp_tensor._term_gram
    monkeypatch.setattr(
        cp_tensor, "_term_gram", lambda f, g: calls.append(1) or original(f, g)
    )
    return calls


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

    def gram_sweep(self, methods):
        return ExperimentConfig(
            kind="tensor", sizes=[20], terms=24, rank=6, sketch_dim=10,
            density=0.3, methods=methods, trials=2, seed=5, n_modes=3,
        )

    def test_term_gram_once_per_dataset(self, monkeypatch):
        # each gram trial computes its Gram inside its timed sketch phase;
        # the errors, evaluated after every decomposition, reuse it
        calls = count_term_grams(monkeypatch)
        reports, _ = run_experiment(self.gram_sweep(["tensorsketch", "gaussian", "gram"]))
        assert all(r.status == "ok" for r in reports)
        assert len(calls) == 2

    def test_term_gram_once_without_gram_trial(self, monkeypatch):
        calls = count_term_grams(monkeypatch)
        reports, _ = run_experiment(self.gram_sweep(["tensorsketch", "gaussian"]))
        assert all(r.status == "ok" for r in reports)
        assert len(calls) == 1

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


def per_trial_sweep(cfg):
    """Reference sweep: one `run_matrix_trial` / `run_tensor_trial` call per
    trial, each error evaluated right after its decomposition."""
    run_trial = run_matrix_trial if cfg.kind == "matrix" else run_tensor_trial
    reports = []
    for size in cfg.sizes:
        data = generate_input(cfg, size)
        for mi, method in enumerate(cfg.methods):
            sketch_dim = None if method in UNSKETCHED_METHODS else cfg.sketch_dim
            for trial in range(cfg.trials):
                report = IdReport(
                    kind=cfg.kind, method=method, size=size, terms=cfg.terms,
                    rank=cfg.rank, sketch_dim=sketch_dim, density=cfg.density,
                    trial=trial, seed=derive_seed(cfg.seed, 1, size, mi, trial),
                )
                try:
                    _, err, st, wall = run_trial(
                        data, method, cfg.rank, sketch_dim, report.seed
                    )
                    report.error_norm_kind = ERROR_NORM_KINDS[cfg.kind]
                    report.error_estimate = err
                    report.sketch_time_seconds = st
                    report.wall_time_seconds = wall
                except Exception as exc:
                    report.status = f"failed: {exc}"
                reports.append(report)
    return reports, summarize(reports)


def untimed(report):
    """Every report field but the timings, floats as their exact bits, and
    whether each timing is NaN."""
    fields = {
        k: v.hex() if isinstance(v, float) else v for k, v in vars(report).items()
    }
    for k in ("sketch_time_seconds", "wall_time_seconds"):
        fields[k] = np.isnan(getattr(report, k))
    return fields


def csv_without_timings(path):
    """CSV rows with each timing cell reduced to whether it is NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for name in row:
            if "_time" in name:
                row[name] = row[name] == "nan"
    return rows


def assert_matches_per_trial_sweep(cfg, reports, summaries, tmp_path):
    """The reports equal the reference sweep's in every untimed field, bit
    for bit, and so does their CSV in every column but the timings."""
    ref_reports, ref_summaries = per_trial_sweep(cfg)
    assert [untimed(r) for r in reports] == [untimed(r) for r in ref_reports]
    write_csv(tmp_path / "sweep.csv", reports, summaries)
    write_csv(tmp_path / "ref.csv", ref_reports, ref_summaries)
    assert csv_without_timings(tmp_path / "sweep.csv") == csv_without_timings(
        tmp_path / "ref.csv"
    )


SWEEPS = {
    "matrix": ExperimentConfig(
        kind="matrix", sizes=[300], terms=60, rank=8, sketch_dim=18,
        density=0.05, methods=list(MATRIX_METHODS), trials=2, seed=13,
    ),
    "tensor": ExperimentConfig(
        kind="tensor", sizes=[20, 30], terms=24, rank=6, sketch_dim=10,
        density=0.3, methods=list(TENSOR_METHODS), trials=2, seed=17, n_modes=3,
    ),
}


def every_other_call_fails(monkeypatch, name):
    """Make the error step `bench.<name>` raise on every second call; clear
    the returned call list to start counting again."""
    calls = []
    original = getattr(bench, name)

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise FloatingPointError("injected error-step failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, name, flaky)
    return calls


class TestErrorsAfterDecompositions:
    """The sweep evaluates a dataset's errors after all its decompositions;
    its reports equal those of one trial after the other."""

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_reports_match_per_trial_replay(self, kind, tmp_path):
        cfg = SWEEPS[kind]
        reports, summaries = run_experiment(cfg)
        assert {r.method for r in reports} == set(cfg.methods)
        assert all(r.status == "ok" for r in reports)
        assert_matches_per_trial_sweep(cfg, reports, summaries, tmp_path)

    @pytest.mark.parametrize(
        "kind, error_step",
        [("tensor", "cp_diff_norm"), ("matrix", "est_spectral_norm")],
    )
    def test_failed_error_step(self, kind, error_step, monkeypatch, tmp_path):
        cfg = SWEEPS[kind]
        calls = every_other_call_fails(monkeypatch, error_step)
        reports, summaries = run_experiment(cfg)
        failed = [r for r in reports if r.status != "ok"]
        assert len(failed) == len(reports) // 2
        for r in failed:
            assert r.status == "failed: injected error-step failure"
            assert np.isnan(r.sketch_time_seconds) and np.isnan(r.wall_time_seconds)
            assert np.isnan(r.error_estimate) and r.error_norm_kind == ""
        calls.clear()
        assert_matches_per_trial_sweep(cfg, reports, summaries, tmp_path)


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
