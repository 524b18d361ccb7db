"""One checked operation of each benchmark workload, as ``perfbench/worker.py`` runs it.

The workloads call the package by name; running one operation of each here
makes a renamed or deleted name fail the tests, not only a benchmark run.
``perfbench/workloads.py`` is loaded from its file and not modified.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_of_each_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    wl.first_spec()
    inp = wl.inputs(0)
    out = wl.run(inp)
    assert wl.draws(inp) > 0
    assert wl.bytes_out(inp) >= 0
    assert wl.check(inp, out) == []
    assert wl.once_per_run(inp) == []
    wl.cleanup(inp)
    assert list(tmp_path.iterdir()) == []
