"""Hardware design-space exploration: which crossbars leak, and how much?

The paper analyses an ideal crossbar with the minimum-power conductance
mapping.  This example uses the simulator's non-ideality models to ask the
hardware designer's follow-up questions:

* How does the leak change with a balanced (constant-power) mapping?
* How much measurement noise can the attacker tolerate?
* What do realistic ReRAM/PCM device models (write noise, quantization,
  stuck devices) and IR drop along the wires do to the leaked signal?

Run with:  python examples/hardware_design_space.py
"""

import numpy as np

from repro.crossbar import (
    PCM_DEVICE,
    RERAM_DEVICE,
    ConductanceMapping,
    CrossbarAccelerator,
    NonidealityConfig,
)
from repro.datasets import load_mnist_like
from repro.experiments.reporting import format_table
from repro.nn.gradients import weight_column_norms
from repro.nn.trainer import train_single_layer
from repro.sidechannel import ColumnNormProber, PowerMeasurement


def leak_correlation(accelerator, n_features, true_norms, noise_std=0.0, seed=0):
    """Correlation between power-probed column sums and the true 1-norms."""
    prober = ColumnNormProber(
        PowerMeasurement(accelerator, noise_std=noise_std, random_state=seed), n_features
    )
    leaked = prober.probe_all().column_sums
    if leaked.std() == 0:
        return 0.0
    return float(np.corrcoef(leaked, true_norms)[0, 1])


def main() -> None:
    dataset = load_mnist_like(n_train=1500, n_test=300, random_state=0)
    network, _ = train_single_layer(dataset, output="softmax", epochs=25, random_state=0)
    true_norms = weight_column_norms(network.weights)

    configurations = {
        "ideal, min-power mapping": dict(),
        "ideal, balanced mapping": dict(mapping=ConductanceMapping(scheme="balanced")),
        "ReRAM device (write noise + 64 levels)": dict(
            mapping=ConductanceMapping(device=RERAM_DEVICE)
        ),
        "PCM device (write noise + 32 levels)": dict(
            mapping=ConductanceMapping(device=PCM_DEVICE)
        ),
        "ideal + 5% stuck-off devices": dict(
            nonidealities=NonidealityConfig(stuck_at_off_fraction=0.05)
        ),
        "ideal + IR drop (1e-6 ohm/cell)": dict(
            nonidealities=NonidealityConfig(wire_resistance_ohm=1e-6)
        ),
        "ideal + IR drop (1e-5 ohm/cell)": dict(
            nonidealities=NonidealityConfig(wire_resistance_ohm=1e-5)
        ),
    }

    rows = []
    for label, kwargs in configurations.items():
        accelerator = CrossbarAccelerator(network, random_state=0, **kwargs)
        clean = leak_correlation(accelerator, dataset.n_features, true_norms)
        noisy = leak_correlation(accelerator, dataset.n_features, true_norms, noise_std=0.1, seed=1)
        fidelity = accelerator.fidelity(dataset.test_inputs[:100])
        rows.append([label, clean, noisy, fidelity])

    print(
        format_table(
            ["hardware configuration", "leak corr (clean)", "leak corr (10% meas. noise)", "output error"],
            rows,
            title="How much does each crossbar configuration leak about the weight 1-norms?",
            float_precision=3,
        )
    )
    print(
        "\nThe min-power mapping leaks the column 1-norms almost perfectly; the "
        "balanced mapping is an effective (but power-hungry) countermeasure, and "
        "realistic device non-idealities only mildly blur the side channel until "
        "the wire resistance is large enough for IR drop to distort the column "
        "currents (at the cost of output fidelity)."
    )


if __name__ == "__main__":
    main()
