"""Machine fingerprint and the append-only run history."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent

#: Environment variables that set BLAS thread counts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> Dict[str, object]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    threads = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    return {"vendor": vendor, "threads": threads}


def fingerprint() -> Dict[str, object]:
    """Where and on what a run happened; taken at the start of the run."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def append_history(path: Path, record: Dict[str, object]) -> None:
    """Append one run's record as a JSON line; earlier lines are never rewritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
