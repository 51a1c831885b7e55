"""The victims the workloads query, built from a seed through public entry points.

Weights are seeded random initialisations, not trained models: the host
cost of a query depends on the shapes and the noise sources, not on the
weight values, and skipping training keeps set-up short.
"""

from __future__ import annotations

from repro.attacks.oracle import Oracle
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.mapping import ShardingSpec
from repro.crossbar.nonidealities import NonidealityConfig
from repro.experiments.scenario import ScenarioSpec
from repro.nn.layers import Dense
from repro.nn.network import Sequential

N_INPUTS = 256
N_OUTPUTS = 10
MLP_HIDDEN = 1024

#: ``noisy-device`` (ReRAM read noise) + ``high-read-noise`` (10 % rail noise,
#: 5 % instrument noise) on a 2x2 shard grid.
ATTACK_NOISY = ScenarioSpec(
    name="perfbench-attack-noisy",
    device="reram",
    nonidealities=NonidealityConfig(current_measurement_noise=0.10),
    measurement_noise=0.05,
    sharding=ShardingSpec(row_shards=2, col_shards=2),
)

#: The paper victim on ideal devices with 5 % instrument noise (netservice).
PAPER_SERVED = ScenarioSpec(name="perfbench-paper-served", measurement_noise=0.05)


def paper_network(seed: int) -> Sequential:
    """The paper's single-layer 256x10 softmax classifier."""
    return Sequential([Dense(N_INPUTS, N_OUTPUTS, activation="softmax", random_state=seed)])


def mlp_network(seed: int) -> Sequential:
    """The 256-1024-1024-10 MLP whose fused traversal is kernel-bound."""
    return Sequential(
        [
            Dense(N_INPUTS, MLP_HIDDEN, activation="relu", random_state=seed),
            Dense(MLP_HIDDEN, MLP_HIDDEN, activation="relu", random_state=seed + 1),
            Dense(MLP_HIDDEN, N_OUTPUTS, activation="softmax", random_state=seed + 2),
        ]
    )


def scenario_oracle(spec: ScenarioSpec, seed: int) -> Oracle:
    accelerator = spec.build_accelerator(paper_network(seed), random_state=seed)
    return spec.build_oracle(accelerator, random_state=seed)


def attack_noisy_oracle(seed: int) -> Oracle:
    return scenario_oracle(ATTACK_NOISY, seed)


def paper_served_oracle(seed: int) -> Oracle:
    return scenario_oracle(PAPER_SERVED, seed)


def mlp_ideal_oracle(seed: int) -> Oracle:
    accelerator = CrossbarAccelerator(mlp_network(seed), random_state=seed)
    return Oracle(accelerator, expose_power=True, random_state=seed)


CLOSED_LOOP_VICTIMS = {
    "attack-noisy": attack_noisy_oracle,
    "mlp-ideal": mlp_ideal_oracle,
}
