"""Each process imports only the layers it runs.

An engine process has no use for the metrics HTTP server (``http.server``
with ``email``, ``ssl`` and ``mimetypes``), the fleet's ``asyncio`` and
``multiprocessing``, the section 5 harness or ``numpy.ma``; a fleet
client needs none of the daemon; the CLI loads a subcommand's modules
only when it dispatches to it.  An engine never loads scipy (its FFT adds
over 20 MB; the kernel's transforms run on ``numpy.fft``).  ``import repro``
and the CLI load no numpy, so ``serve`` can default OpenBLAS to one thread
before it loads, and a fleet's shards import nothing after their fork.
Each check runs in a fresh interpreter, so nothing another test imported
can hide a regression.  The same holds for the BLAS-thread policy: the
first engine a process builds runs numpy's OpenBLAS on one thread, unless
an operator set the count, and answers do not depend on it.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
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


def last_line_of(code: str, env: dict[str, str] | None = None) -> str:
    """The last line a fresh interpreter prints running ``code`` with ``env``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return set(json.loads(last_line_of(script)))


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


FLEET_SHARDS = """
import json
import os
import sys

AT_FORK = set()
os.register_at_fork(after_in_child=lambda: AT_FORK.update(sys.modules))

import numpy as np

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.sharding.worker import ShardWorker
from repro.streams.queries import JoinQuery

ShardWorker.imported_since_fork = lambda self: sorted(set(sys.modules) - AT_FORK)
rows = (np.arange(500) * 37 % 256)[:, None]  # numpy.random stays unloaded here
with ShardedStreamEngine(num_shards=2, seed=0, executor="process") as fleet:
    for name in ("R1", "R2"):
        fleet.create_relation(name, ["A"], [Domain.of_size(256)])
    pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    fleet.register_query("cos", pair, method="cosine", budget=32, bounds=True)
    fleet.register_query("agms", pair, method="basic_sketch", budget=32)
    fleet.register_query("hist", pair, method="histogram", budget=8)
    fleet.register_query("samp", pair, method="sample", budget=32, probability=0.5)
    for name in ("R1", "R2"):
        fleet.ingest_batch(name, rows)
    for query in ("cos", "agms", "hist", "samp"):
        fleet.answer(query)
    fleet.estimate("cos", mode="clamped")
    print(json.dumps(fleet._executor.broadcast("imported_since_fork")))
"""

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestColdStart:
    @pytest.mark.parametrize("module", ["repro", "repro.experiments.cli"])
    def test_loads_no_numpy(self, module):
        assert loaded(modules_after(f"import {module}"), "numpy") == []

    def test_shards_import_nothing_after_the_fork(self):
        # The coordinator imports what a shard loads on first use before
        # it forks the shards, so no shard imports on the same cores later.
        assert json.loads(last_line_of(FLEET_SHARDS)) == [[], []]

    @pytest.mark.parametrize(
        "operator",
        [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
    )
    def test_serve_defaults_blas_to_one_thread(self, operator):
        # serve sets the default before numpy loads, so OpenBLAS reads it
        # in the daemon and in every shard it forks; an operator's wins.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        script = f"""
            import json, os
            from repro.experiments.cli import main
            main(["serve", "--shards", "1", "--executor", "serial", "--max-seconds", "0"])
            print(json.dumps({{name: os.environ.get(name) for name in {BLAS_VARIABLES}}}))
        """
        seen = json.loads(last_line_of(script, {**env, **operator}))
        expected = operator or {"OPENBLAS_NUM_THREADS": "1"}
        assert seen == {**dict.fromkeys(BLAS_VARIABLES), **expected}


#: Defines ``blas_threads()``: numpy's OpenBLAS thread count, read through
#: the getter matching the setter the policy calls, or ``None`` when
#: numpy's BLAS exports no such getter.
BLAS_THREADS = """
import ctypes
import sys

def blas_threads():
    extension = (sys.modules.get("numpy._core._multiarray_umath")
                 or sys.modules["numpy.core._multiarray_umath"])
    library = ctypes.CDLL(extension.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        getter = getattr(library, name, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None
"""

ENGINE_AFTER_NUMPY = BLAS_THREADS + """
import json
import os

import numpy as np

loaded = blas_threads()
from repro.streams.engine import StreamEngine

StreamEngine()
print(json.dumps({"loaded": loaded, "engine": blas_threads(),
                  "environment": {name: os.environ.get(name) for name in %r}}))
"""

FLEET_BLAS = BLAS_THREADS + """
import json

import numpy as np

from repro.sharding import ShardedStreamEngine
from repro.sharding.worker import ShardWorker

ShardWorker.blas_threads = lambda self: blas_threads()
with ShardedStreamEngine(num_shards=2, seed=0, executor="process") as fleet:
    print(json.dumps({"coordinator": blas_threads(),
                      "shards": fleet._executor.broadcast("blas_threads")}))
"""

CHECKPOINT_STATES = """
import hashlib
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np

from repro import Domain, JoinQuery, StreamEngine
from repro.resilience.checkpoint import read_checkpoint

engine = StreamEngine(seed=0)
a, b = Domain.of_size(512), Domain.of_size(128)
engine.create_relation("R1", ["A"], [a])
engine.create_relation("R2", ["A", "B"], [a, b])
engine.create_relation("R3", ["B"], [b])
rng = np.random.default_rng(0)
def ingest():
    engine.ingest_batch("R1", rng.integers(0, 512, (4000, 1)))
    engine.ingest_batch("R2", np.stack([rng.integers(0, 512, 4000),
                                        rng.integers(0, 128, 4000)], 1))
    engine.ingest_batch("R3", rng.integers(0, 128, (4000, 1)))
ingest()
pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
for method in ("cosine", "basic_sketch", "skimmed_sketch", "sample", "histogram",
               "wavelet", "partitioned_sketch"):
    engine.register_query("pair_" + method, pair, method=method, budget=255, bounds=True)
for method in ("cosine", "basic_sketch", "skimmed_sketch", "sample"):
    engine.register_query("chain_" + method, chain, method=method, budget=255, bounds=True)
ingest()
with tempfile.TemporaryDirectory() as scratch:
    path = Path(scratch) / "engine.ckpt"
    engine.save_checkpoint(path)
    payload = read_checkpoint(path)
sums = [state.pop("sums").tolist() for state in payload["observers"] if "sums" in state]
answers = engine.answers()
cosine = {name: answers.pop(name) for name in list(answers) if "cosine" in name}
rest = pickle.dumps((payload, answers), protocol=pickle.HIGHEST_PROTOCOL)
print(json.dumps({"rest": hashlib.sha256(rest).hexdigest(), "sums": sums, "cosine": cosine}))
"""


def without_blas_variables() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}


def blas_report(code: str, env: dict[str, str]) -> dict:
    """The report ``code`` prints; skips when numpy's BLAS has no thread getter."""
    report = json.loads(last_line_of(code, env))
    if None in report.values():
        pytest.skip("numpy's BLAS exports no OpenBLAS thread getter")
    return report


class TestBlasThreads:
    def test_first_engine_runs_openblas_on_one_thread(self):
        # numpy loads first, as in any library caller, so the engine calls
        # OpenBLAS's setter and leaves the environment alone.
        script = ENGINE_AFTER_NUMPY % (BLAS_VARIABLES,)
        report = blas_report(script, without_blas_variables())
        assert report["engine"] == 1
        assert report["environment"] == dict.fromkeys(BLAS_VARIABLES)

    @pytest.mark.parametrize("variable", BLAS_VARIABLES)
    def test_an_operators_count_stands(self, variable):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS runs at most one thread per CPU")
        script = ENGINE_AFTER_NUMPY % (BLAS_VARIABLES,)
        report = blas_report(script, {**without_blas_variables(), variable: "2"})
        assert report["loaded"] == report["engine"] == 2

    def test_fleet_shards_run_one_thread(self):
        report = blas_report(FLEET_BLAS, without_blas_variables())
        assert report == {"coordinator": 1, "shards": [1, 1]}

    def test_checkpoints_do_not_depend_on_blas_threads(self):
        # Every state but the cosine sums is exact integer arithmetic (the
        # float32 AGMS registration included) or never reaches BLAS, and
        # must match byte for byte.  The cosine projections are float64 BLAS
        # products, and OpenBLAS rounds those of R2's 4,000-row batches
        # differently on two threads, so their sums may differ in the last
        # bits.
        one, two = (
            json.loads(last_line_of(
                CHECKPOINT_STATES, {**without_blas_variables(), "OPENBLAS_NUM_THREADS": threads}
            ))
            for threads in ("1", "2")
        )
        assert one["rest"] == two["rest"]
        assert len(one["sums"]) == len(two["sums"]) > 0
        for sums_one, sums_two in zip(one["sums"], two["sums"]):
            np.testing.assert_allclose(sums_one, sums_two, rtol=1e-12, atol=1e-9)
        assert one["cosine"] == pytest.approx(two["cosine"], rel=1e-12)


class TestLazyExports:
    @pytest.mark.parametrize(
        "package",
        [
            "repro",
            "repro.core",
            "repro.experiments",
            "repro.fleet",
            "repro.histograms",
            "repro.obs",
            "repro.resilience",
            "repro.sampling",
            "repro.sharding",
            "repro.sketches",
            "repro.streams",
        ],
    )
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
