"""Benchmark regenerating Figure 3 (sensitivity maps vs 1-norm maps)."""

from repro.executor import PoolExecutor
from repro.experiments import get_experiment


def test_figure3(single_round, benchmark):
    """Figure 3: mean-sensitivity and column-1-norm maps for the 4 configurations."""
    experiment = get_experiment("figure3")
    result = single_round(experiment.run, "bench", executor=PoolExecutor(mode="process"))
    print()
    print(experiment.format_result(result))

    summaries = {
        (panel["dataset"], panel["activation"]): panel
        for panel in result.summary["panels"]
    }
    for (dataset, activation), summary in summaries.items():
        key = f"{dataset}/{activation}"
        benchmark.extra_info[f"{key}/map_correlation"] = round(
            float(summary["map_correlation"]), 3
        )
        benchmark.extra_info[f"{key}/norm_smoothness"] = round(
            float(summary["norm_smoothness"]), 3
        )

    # Visible correlation between the two maps in every panel pair.
    for summary in summaries.values():
        assert summary["map_correlation"] > 0.3
    # MNIST's 1-norm map is smoother than CIFAR's (Section III discussion).
    assert (
        summaries[("mnist-like", "softmax")]["norm_smoothness"]
        < summaries[("cifar-like", "softmax")]["norm_smoothness"]
    )
