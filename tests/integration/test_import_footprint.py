"""Each process imports only the layers it runs.

An engine process has no use for the metrics HTTP server (``http.server``
with ``email``, ``ssl`` and ``mimetypes``), the fleet's ``asyncio`` and
``multiprocessing``, the section 5 harness or ``numpy.ma``; a fleet
client needs none of the daemon; the CLI loads a subcommand's modules
only when it dispatches to it.  An engine never loads scipy (its FFT adds
over 20 MB; the kernel's transforms run on ``numpy.fft``).  Each check runs in a fresh interpreter,
so nothing another test imported can hide a regression.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

ENGINE_PROCESS = """
import tempfile
from pathlib import Path

import numpy as np

from repro import Domain, JoinQuery, StreamEngine

METHODS = ("cosine", "basic_sketch", "skimmed_sketch", "sample", "histogram",
           "wavelet", "partitioned_sketch")
engine = StreamEngine(seed=0)
a, b = Domain.of_size(64), Domain.of_size(16)
engine.create_relation("R1", ["A"], [a])
engine.create_relation("R2", ["A", "B"], [a, b])
rng = np.random.default_rng(0)
engine.ingest_batch("R1", rng.integers(0, 64, (500, 1)))
engine.ingest_batch("R2", np.stack([rng.integers(0, 64, 500), rng.integers(0, 16, 500)], 1))
pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
for method in METHODS:
    engine.register_query(method, pair, method=method, budget=32, bounds=True)
engine.register_range_query("range", "R1", "A", 3, 40, budget=32)
engine.register_band_query("band", ("R1", "A"), ("R2", "A"), 2, budget=32)
engine.ingest_batch("R1", rng.integers(0, 64, (500, 1)))
engine.ingest_batch("R2", np.stack([rng.integers(0, 64, 500), rng.integers(0, 16, 500)], 1))
for method in METHODS:
    for mode in ("answer", "upper_bound", "clamped"):
        engine.estimate(method, mode)
    engine.exact_answer(method)
for name in ("range", "band"):
    engine.estimate(name)
    engine.exact_answer(name)
with tempfile.TemporaryDirectory() as scratch:
    engine.save_checkpoint(Path(scratch) / "engine.ckpt")
"""


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def loaded(modules: set[str], *names: str) -> list[str]:
    """The modules of ``modules`` that are one of ``names`` or inside one."""
    return sorted(m for m in modules if any(m == n or m.startswith(n + ".") for n in names))


class TestImportSets:
    def test_engine_process(self):
        modules = modules_after(ENGINE_PROCESS)
        assert "repro.bounds.calculator" in modules  # the script ran what it should
        assert loaded(
            modules,
            "http",
            "email",
            "ssl",
            "mimetypes",
            "asyncio",
            "multiprocessing",
            "repro.fleet",
            "repro.experiments",
            "numpy.ma",
            "scipy",
        ) == []

    def test_kernel_loads_numpy_fft(self):
        # Shard workers fork from a coordinator that has imported the
        # kernel; they inherit numpy.fft only if the import loads it.
        assert "numpy.fft" in modules_after("import repro.fastpath")

    def test_fleet_client(self):
        modules = modules_after("from repro.fleet.client import FleetClient")
        assert loaded(modules, "asyncio", "multiprocessing", "ssl", "http.server") == []

    def test_cli_before_dispatch(self):
        modules = modules_after("import repro.experiments.cli")
        assert loaded(
            modules,
            "repro.experiments.figures",
            "repro.experiments.harness",
            "repro.experiments.methods",
            "repro.experiments.sweeps",
            "repro.data",
            "http.server",
        ) == []


class TestLazyExports:
    @pytest.mark.parametrize("package", ["repro.obs", "repro.fleet", "repro.experiments"])
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            source = importlib.import_module(getattr(value, "__module__", None) or package)
            assert getattr(source, name, value) is value

    def test_unknown_name_is_an_attribute_error(self):
        import repro.fleet

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.fleet.Nope  # noqa: B018
