"""Tests for the repro.experiments subpackage (configs, reporting, pipelines)."""

import numpy as np
import pytest

from repro.experiments.config import (
    PAPER_CONFIGURATIONS,
    SCALES,
    DatasetConfig,
    ExperimentScale,
    TrainingConfig,
    resolve_scale,
)
from repro.experiments import get_experiment
from repro.experiments.figure4 import STRATEGIES
from repro.experiments.figure5 import Figure5Row
from repro.experiments.reporting import format_mapping, format_series, format_table
from repro.experiments.runner import ParallelRunner, prepare_dataset, prepare_model
from repro.experiments.table1 import PAPER_TABLE1
from repro.utils.results import RunResult


class TestConfig:
    def test_scales_exist(self):
        assert {"smoke", "bench", "paper"} <= set(SCALES)

    def test_resolve_scale_by_name_and_instance(self):
        scale = resolve_scale("smoke")
        assert isinstance(scale, ExperimentScale)
        assert resolve_scale(scale) is scale

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_scale("gigantic")

    def test_with_overrides(self):
        scale = resolve_scale("smoke").with_overrides(n_runs=7)
        assert scale.n_runs == 7
        assert SCALES["smoke"].n_runs != 7

    def test_paper_configurations_cover_four_cases(self):
        assert len(PAPER_CONFIGURATIONS) == 4
        datasets = {d for d, _ in PAPER_CONFIGURATIONS}
        activations = {a for _, a in PAPER_CONFIGURATIONS}
        assert datasets == {"mnist-like", "cifar-like"}
        assert activations == {"linear", "softmax"}

    def test_dataset_and_training_config_validation(self):
        DatasetConfig()
        TrainingConfig()
        with pytest.raises(ValueError):
            DatasetConfig(n_train=0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)

    def test_paper_scale_matches_paper_parameters(self):
        paper = SCALES["paper"]
        assert paper.n_runs == 10
        assert 60000 in paper.query_counts
        assert paper.attack_strengths == tuple(float(s) for s in range(11))
        assert max(paper.power_loss_weights) == pytest.approx(0.01)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bbb" in lines[0]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.startswith("My table")

    def test_format_series(self):
        text = format_series("q", [1, 2], {"curve": [0.1, 0.2], "other": [0.3, 0.4]})
        assert "curve" in text and "other" in text
        assert len(text.splitlines()) == 4

    def test_format_mapping(self):
        text = format_mapping({"alpha": 0.5, "beta": 1.0}, title="Params")
        assert text.splitlines()[0] == "Params"
        assert "alpha" in text


class TestRunner:
    def test_prepare_dataset_and_model(self):
        scale = resolve_scale("smoke")
        dataset = prepare_dataset("mnist-like", scale, random_state=0)
        assert dataset.n_train == scale.n_train
        model = prepare_model(dataset, "softmax", scale, random_state=0)
        assert model.test_accuracy > 0.5
        assert model.n_features == dataset.n_features


def _seed_metric_run(run_index, seed):
    """Module-level callable so ParallelRunner's process mode can pickle it."""
    result = RunResult(name=f"run{run_index}")
    result.add_metric("seed_value", float(seed % 1000))
    return result


class TestParallelRunner:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(mode="gpu")

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_parallel_matches_serial(self, mode):
        args = [(run_index, 1000 + run_index) for run_index in range(4)]
        serial = [_seed_metric_run(*call) for call in args]
        runner = ParallelRunner(mode=mode, max_workers=2)
        parallel = runner.map(_seed_metric_run, args)
        assert len(parallel) == 4
        for expected, result in zip(serial, parallel):
            assert result.name == expected.name
            assert result.metrics == expected.metrics

    def test_process_mode_falls_back_for_closures(self):
        captured = []

        def run_fn(run_index, seed):  # closure over local state: unpicklable
            captured.append(run_index)
            return _seed_metric_run(run_index, seed)

        runner = ParallelRunner(mode="process")
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = runner.map(run_fn, [(run_index, 1) for run_index in range(3)])
        assert captured == [0, 1, 2]
        assert len(results) == 3

    def test_map_preserves_order(self):
        runner = ParallelRunner(mode="thread", max_workers=4)
        values = runner.map(pow, [(2, i) for i in range(8)])
        assert values == [2**i for i in range(8)]


@pytest.fixture(scope="module")
def smoke_scale():
    return resolve_scale("smoke")


def _row_for(result, dataset, activation):
    """The Table I summary row for one (dataset, activation) configuration."""
    for row in result.summary["rows"]:
        if row["dataset"] == dataset and row["activation"] == activation:
            return row
    raise KeyError(f"no row for ({dataset}, {activation})")


class TestTable1Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("table1").run("smoke", base_seed=0)

    def test_all_configurations_present(self, result):
        assert len(result.summary["rows"]) == 4
        for dataset, activation in PAPER_CONFIGURATIONS:
            row = _row_for(result, dataset, activation)
            assert "mean_correlation_test" in row

    def test_correlation_of_mean_exceeds_mean_correlation(self, result):
        """The paper's central Table I finding must hold in the reproduction."""
        for row in result.summary["rows"]:
            assert row["correlation_of_mean_test"] > row["mean_correlation_test"]

    def test_correlations_positive_and_substantial(self, result):
        for row in result.summary["rows"]:
            assert row["correlation_of_mean_test"] > 0.5
            assert row["mean_correlation_test"] > 0.0

    def test_paper_reference_attached(self, result):
        assert _row_for(result, "mnist-like", "linear")["paper"] == PAPER_TABLE1[
            ("mnist-like", "linear")
        ]

    def test_formatting(self, result):
        text = get_experiment("table1").format_result(result)
        assert "Table I" in text
        assert "mnist-like" in text and "cifar-like" in text

    def test_formatting_renders_each_summary_row(self, result):
        """format_result prints one line per summary row, carrying the row's
        measured and paper correlations at two decimals."""
        lines = get_experiment("table1").format_result(result).splitlines()
        body = lines[3:]
        assert len(body) == len(result.summary["rows"])
        for line, row in zip(body, result.summary["rows"]):
            cells = line.split()
            assert cells[:2] == [row["dataset"], row["activation"]]
            assert cells[2:] == [
                f"{row['mean_correlation_train']:.2f}",
                f"{row['mean_correlation_test']:.2f}",
                f"{row['correlation_of_mean_train']:.2f}",
                f"{row['correlation_of_mean_test']:.2f}",
                f"{row['paper']['mean_correlation_test']:.2f}",
                f"{row['paper']['correlation_of_mean_test']:.2f}",
            ]

    def test_missing_row_raises(self, result):
        with pytest.raises(KeyError):
            _row_for(result, "svhn", "linear")


class TestFigure3Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure3").run("smoke", base_seed=0)

    @pytest.fixture(scope="class")
    def runs(self, result):
        return {
            (run.metadata["dataset"], run.metadata["activation"]): run
            for run in result.sweep
        }

    @pytest.fixture(scope="class")
    def summaries(self, result):
        return {
            (panel["dataset"], panel["activation"]): panel
            for panel in result.summary["panels"]
        }

    def test_all_panels_present(self, runs, summaries):
        assert set(runs) == set(PAPER_CONFIGURATIONS)
        assert set(summaries) == set(PAPER_CONFIGURATIONS)

    def test_maps_have_image_shape(self, runs):
        mnist = runs[("mnist-like", "softmax")]
        assert mnist.arrays["sensitivity_map"].shape == (28, 28)
        cifar = runs[("cifar-like", "softmax")]
        assert cifar.arrays["sensitivity_map"].shape == (32, 32)
        assert cifar.metadata["channel"] == 0

    def test_maps_visibly_correlated(self, summaries):
        for summary in summaries.values():
            assert summary["map_correlation"] > 0.3

    def test_mnist_smoother_than_cifar(self, summaries):
        """Section III: the MNIST 1-norm map changes gradually, CIFAR rapidly."""
        mnist = summaries[("mnist-like", "softmax")]["norm_smoothness"]
        cifar = summaries[("cifar-like", "softmax")]["norm_smoothness"]
        assert mnist < cifar

    def test_formatting(self, result):
        assert "Figure 3" in get_experiment("figure3").format_result(result)


class TestFigure4Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure4").run("smoke", base_seed=0)

    @pytest.fixture(scope="class")
    def curves_for(self, result):
        return {
            (entry["dataset"], entry["activation"]): entry["curves"]
            for entry in result.summary["curves"]
        }

    def test_curves_for_all_configs_and_strategies(self, result, curves_for):
        assert set(curves_for) == set(PAPER_CONFIGURATIONS)
        for curves in curves_for.values():
            assert set(curves) == {s.paper_label for s in STRATEGIES}
            for curve in curves.values():
                assert len(curve) == len(result.summary["attack_strengths"])

    def test_zero_strength_equals_clean_accuracy(self, curves_for):
        for curves in curves_for.values():
            baselines = {label: curve[0] for label, curve in curves.items()}
            assert len(set(np.round(list(baselines.values()), 6))) == 1

    def test_mnist_ordering_matches_paper(self, curves_for):
        """Worst <= power-guided <= RP at the strongest attack (MNIST panels)."""
        for activation in ("linear", "softmax"):
            curves = curves_for[("mnist-like", activation)]
            final = {label: curve[-1] for label, curve in curves.items()}
            assert final["Worst"] <= final["RD"] + 0.05
            assert final["RD"] <= final["RP"] + 0.05
            assert final["+"] < final["RP"]

    def test_formatting(self, result):
        text = get_experiment("figure4").format_result(result)
        assert "Figure 4(a)" in text and "Figure 4(d)" in text


class TestFigure5Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return get_experiment("figure5").run(
            "smoke", rows=(("mnist-like", "label"),), base_seed=0, attack_strength=0.1
        )

    @pytest.fixture(scope="class")
    def row(self, result):
        (entry,) = result.summary["rows"]
        row = Figure5Row.from_summary(entry)
        assert (row.dataset, row.output_mode) == ("mnist-like", "label")
        return row

    def test_row_rebuilt_from_summary_entry(self, result, row):
        """from_summary regroups the per-run [lambda][query] values by lambda
        and query, keeping run order, and averages the clean accuracies."""
        (entry,) = result.summary["rows"]
        for run_index, (surrogate, adversarial) in enumerate(
            zip(entry["surrogate_accuracy"], entry["adversarial_accuracy"])
        ):
            for lam_index, lam in enumerate(row.power_loss_weights):
                for query_index in range(len(row.query_counts)):
                    assert (
                        row.surrogate_accuracy[lam][query_index][run_index]
                        == surrogate[lam_index][query_index]
                    )
                    assert (
                        row.adversarial_accuracy[lam][query_index][run_index]
                        == adversarial[lam_index][query_index]
                    )
        assert row.oracle_clean_accuracy == pytest.approx(
            np.mean(entry["clean_accuracies"])
        )

    def test_row_structure(self, row):
        assert row.query_counts == tuple(SCALES["smoke"].query_counts)
        assert set(row.surrogate_accuracy) == set(SCALES["smoke"].power_loss_weights)

    def test_curves_have_run_values(self, row):
        for lam in row.power_loss_weights:
            for values in row.surrogate_accuracy[lam]:
                assert len(values) == SCALES["smoke"].n_runs

    def test_surrogate_improves_with_queries(self, row):
        curve = row.mean_surrogate_curve(0.0)
        assert curve[-1] > curve[0]

    def test_attack_beats_clean_accuracy(self, row):
        adversarial = row.mean_adversarial_curve(0.0)
        assert min(adversarial) < row.oracle_clean_accuracy

    def test_degradation_improvement_entries(self, row):
        entries = row.degradation_improvement(row.power_loss_weights[-1])
        assert len(entries) == len(row.query_counts)
        for entry in entries:
            assert {"n_queries", "improvement", "p_value", "significant"} <= set(entry)

    def test_degradation_requires_baseline(self, row):
        saved = row.adversarial_accuracy.pop(0.0)
        try:
            with pytest.raises(ValueError):
                row.degradation_improvement(row.power_loss_weights[-1])
        finally:
            row.adversarial_accuracy[0.0] = saved

    def test_formatting(self, result):
        text = get_experiment("figure5").format_result(result)
        assert "surrogate test accuracy" in text
        assert "improvement over lambda=0" in text
