"""Regenerate every table/figure at bench scale and write the text reports.

Used to produce the measured values recorded in EXPERIMENTS.md:

    python scripts/generate_report.py [output_dir]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.executor import PoolExecutor
from repro.experiments import get_experiment
from repro.experiments.config import resolve_scale


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    output_dir.mkdir(parents=True, exist_ok=True)

    cifar_scale = resolve_scale("bench").with_overrides(
        n_train=1500,
        n_test=300,
        n_runs=2,
        query_counts=(50, 200, 1000),
        power_loss_weights=(0.0, 0.01),
        surrogate_epochs=200,
    )
    reports = (
        ("table1.txt", "table1", "bench", {}),
        ("figure3.txt", "figure3", "bench", {}),
        ("figure4.txt", "figure4", "bench", {}),
        (
            "figure5_mnist.txt",
            "figure5",
            "bench",
            {"rows": (("mnist-like", "label"), ("mnist-like", "raw"))},
        ),
        (
            "figure5_cifar.txt",
            "figure5",
            cifar_scale,
            {"rows": (("cifar-like", "label"), ("cifar-like", "raw"))},
        ),
    )
    executor = PoolExecutor(mode="process")
    for filename, name, scale, options in reports:
        experiment = get_experiment(name)
        start = time.time()
        result = experiment.run(scale, executor=executor, **options)
        path = output_dir / filename
        path.write_text(experiment.format_result(result) + "\n", encoding="utf-8")
        print(f"wrote {path}  ({time.time() - start:.1f}s)")


if __name__ == "__main__":
    main()
