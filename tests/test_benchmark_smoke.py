"""The benchmark's workloads run in process: a library change that breaks them fails here.

Each workload of ``perfbench/workloads.py`` is set up and runs one unit;
desk runs once more under ``perfbench/tracing.py``'s tracer.  Every unit
must report no failed check.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode, _writes = True, sys.dont_write_bytecode  # no __pycache__ under perfbench/
try:
    import tracing
    import workloads
finally:
    sys.dont_write_bytecode = _writes


def test_every_workload_sets_up_and_passes_one_unit(tmp_path):
    lib = {layer: importlib.import_module(f"logmult.{layer}") for layer in tracing.LAYERS}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(lib, workloads.DEFAULT_SEED, tmp_path / name)
        try:
            assert workload.unit(state, 0) == [], name
            if name == "desk":
                tracer = tracing.Tracer()
                tracer.install(lib, np)
                try:
                    assert workload.unit(state, 0) == [], "traced desk"
                finally:
                    tracer.restore()
                assert tracer.layer_metrics(1, 0.0)["cli.partition.total_s"] > 0.0
        finally:
            workload.teardown(state)
