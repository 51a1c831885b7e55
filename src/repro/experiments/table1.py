"""Table I — correlation between loss sensitivity and weight-column 1-norms.

For each scenario (by default the paper's four dataset/activation
configurations) the pipeline reports, on the train and test splits, the
"Mean Correlation" (per-sample correlation of ``|∂L/∂u|`` with the column
1-norms, averaged over samples) and the "Correlation of Mean" (correlation of
the set-averaged sensitivity with the column 1-norms), averaged over
independent runs.

The 1-norms used here are obtained the way the attacker would obtain them: by
probing the power side channel of the simulated crossbar accelerator
(:class:`~repro.sidechannel.probing.ColumnNormProber`), which for the ideal
crossbar equals the true 1-norms up to a positive scale factor (correlation is
invariant to that scale).

The pipeline is a registered :class:`~repro.experiments.base.Experiment`
(``"table1"``): each scenario x seed cell is one picklable job, so the whole
sweep runs under any :class:`~repro.executor.Executor` backend with results
bit-identical to the serial path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.correlation import sensitivity_norm_correlations
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Job,
    group_results_by_scenario,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import register
from repro.experiments.reporting import format_table, has_non_paper_scenarios
from repro.experiments.runner import prepare_dataset
from repro.experiments.scenario import ScenarioSpec
from repro.utils.results import RunResult, SweepResult

#: The values printed in the paper's Table I, for side-by-side comparison.
PAPER_TABLE1: Dict[Tuple[str, str], Dict[str, float]] = {
    ("mnist-like", "linear"): {
        "mean_correlation_train": 0.70,
        "mean_correlation_test": 0.70,
        "correlation_of_mean_train": 0.99,
        "correlation_of_mean_test": 0.98,
    },
    ("mnist-like", "softmax"): {
        "mean_correlation_train": 0.52,
        "mean_correlation_test": 0.52,
        "correlation_of_mean_train": 0.92,
        "correlation_of_mean_test": 0.92,
    },
    ("cifar-like", "linear"): {
        "mean_correlation_train": 0.26,
        "mean_correlation_test": 0.26,
        "correlation_of_mean_train": 0.87,
        "correlation_of_mean_test": 0.87,
    },
    ("cifar-like", "softmax"): {
        "mean_correlation_train": 0.33,
        "mean_correlation_test": 0.33,
        "correlation_of_mean_train": 0.91,
        "correlation_of_mean_test": 0.91,
    },
}

METRIC_KEYS = (
    "mean_correlation_train",
    "mean_correlation_test",
    "correlation_of_mean_train",
    "correlation_of_mean_test",
)


def _table1_job(job: Job) -> RunResult:
    """Train one victim under ``job.scenario`` and compute both correlations."""
    scenario, scale, seed = job.scenario, job.scale, job.seed
    dataset = prepare_dataset(scenario.dataset, scale, random_state=seed)
    model = scenario.build_victim(dataset, scale, random_state=seed)

    target = scenario.build_accelerator(model.network, random_state=seed)
    prober = scenario.build_prober(target, dataset.n_features, random_state=seed)
    leaked_norms = prober.probe_all().column_sums

    result = RunResult(
        name=f"table1/{scenario.dataset}/{scenario.activation}",
        metadata={"dataset": scenario.dataset, "activation": scenario.activation},
    )
    for split in ("train", "test"):
        inputs = dataset.train_inputs if split == "train" else dataset.test_inputs
        targets = dataset.train_targets if split == "train" else dataset.test_targets
        summary = sensitivity_norm_correlations(
            model.network, inputs, targets, column_norms=leaked_norms
        )
        result.add_metric(f"mean_correlation_{split}", summary.mean_correlation)
        result.add_metric(f"correlation_of_mean_{split}", summary.correlation_of_mean)
    result.add_metric("victim_test_accuracy", model.test_accuracy)
    return result


class Table1Experiment(Experiment):
    """Registered pipeline reproducing the paper's Table I.

    Jobs are the default scenario x seed grid from the :class:`Experiment`
    base class.
    """

    name = "table1"
    description = "Sensitivity vs leaked column-1-norm correlations (Table I)"

    run_job = staticmethod(_table1_job)

    def assemble(
        self,
        scale: ExperimentScale,
        scenarios: Sequence[ScenarioSpec],
        jobs: Sequence[Job],
        results: Sequence[RunResult],
    ) -> ExperimentResult:
        assembled = ExperimentResult(
            experiment=self.name,
            scale_name=scale.name,
            scenarios=[scenario.name for scenario in scenarios],
        )
        rows: List[Dict[str, object]] = []
        for scenario, runs in group_results_by_scenario(jobs, results):
            sweep = SweepResult(
                name=f"table1/{scenario.dataset}/{scenario.activation}",
                metadata={"n_runs": scale.n_runs, "scenario": scenario.name},
            )
            for result in runs:
                sweep.add(result)
                assembled.sweep.add(result)
            row: Dict[str, object] = {
                "scenario": scenario.name,
                "dataset": scenario.dataset,
                "activation": scenario.activation,
            }
            for key in METRIC_KEYS:
                row[key] = sweep.mean_metric(key)
                row[f"{key}_std"] = sweep.std_metric(key)
            if scenario.is_paper_ideal and scenario.configuration in PAPER_TABLE1:
                row["paper"] = PAPER_TABLE1[scenario.configuration]
            row["victim_test_accuracy"] = sweep.mean_metric("victim_test_accuracy")
            rows.append(row)
        assembled.summary["rows"] = rows
        return assembled

    def format_result(self, result: ExperimentResult) -> str:
        """Render the scenario-keyed summary rows next to the paper's values."""
        rows = result.summary.get("rows", [])
        with_scenario = has_non_paper_scenarios(rows)
        headers = (["Scenario"] if with_scenario else []) + [
            "Dataset",
            "Activation",
            "MeanCorr(train)",
            "MeanCorr(test)",
            "CorrOfMean(train)",
            "CorrOfMean(test)",
            "Paper MeanCorr(test)",
            "Paper CorrOfMean(test)",
        ]
        table = []
        for row in rows:
            paper = row.get("paper")
            table.append(
                ([row.get("scenario", "-")] if with_scenario else [])
                + [
                    row["dataset"],
                    row["activation"],
                    float(row["mean_correlation_train"]),
                    float(row["mean_correlation_test"]),
                    float(row["correlation_of_mean_train"]),
                    float(row["correlation_of_mean_test"]),
                    float(paper["mean_correlation_test"]) if paper else "-",
                    float(paper["correlation_of_mean_test"]) if paper else "-",
                ]
            )
        return format_table(
            headers,
            table,
            title=f"Table I reproduction (scale={result.scale_name})",
            float_precision=2,
        )


register(Table1Experiment)
