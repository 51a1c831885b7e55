"""Doc tests: README code blocks that must keep running as written."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.registry import _REGISTRY

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block_containing(marker: str) -> str:
    """The one fenced ``python`` block of the README that contains ``marker``."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    matching = [block for block in blocks if marker in block]
    assert len(matching) == 1, f"expected one README python block with {marker!r}"
    return matching[0]


@pytest.mark.sweeps
def test_custom_sweep_example_leakage_falls_with_wire_resistance():
    """The custom-sweep example runs as printed, and IR drop degrades the leak."""
    source = python_block_containing('knob="nonidealities.wire_resistance_ohm"')
    namespace = {}
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            exec(compile(source, str(README), "exec"), namespace)
    finally:
        _REGISTRY.pop("sweep-wire-resistance", None)
    curve = namespace["result"].summary["curves"][0]["leakage_mean"]
    assert stdout.getvalue().strip() == str(curve)
    assert len(curve) == 4
    assert np.all(np.diff(curve) < 0), curve
