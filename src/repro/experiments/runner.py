"""Shared experiment plumbing: dataset and victim-model preparation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets import Dataset, load_dataset
from repro.experiments.config import ExperimentScale
from repro.nn.network import SingleLayerNetwork
from repro.nn.trainer import train_single_layer


@dataclass
class TrainedModel:
    """A victim model together with its dataset and training diagnostics."""

    network: SingleLayerNetwork
    dataset: Dataset
    output: str
    test_accuracy: float
    train_accuracy: float

    @property
    def n_features(self) -> int:
        """Input dimensionality."""
        return self.dataset.n_features


def prepare_dataset(
    name: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> Dataset:
    """Generate one dataset at the requested scale."""
    return load_dataset(
        name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
    )


def prepare_model(
    dataset: Dataset,
    output: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> TrainedModel:
    """Train the paper's single-layer victim model on a dataset."""
    network, trainer = train_single_layer(
        dataset,
        output=output,
        epochs=scale.train_epochs,
        random_state=random_state,
    )
    _, test_accuracy = trainer.evaluate(dataset.test_inputs, dataset.test_targets)
    _, train_accuracy = trainer.evaluate(dataset.train_inputs, dataset.train_targets)
    return TrainedModel(
        network=network,
        dataset=dataset,
        output=output,
        test_accuracy=test_accuracy,
        train_accuracy=train_accuracy,
    )
