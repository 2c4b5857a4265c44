"""The benchmark (``bench/``) calls ``hkfun`` by name: its per-layer tracer
(``bench/layers.py``) wraps functions, its workloads (``bench/workloads.py``)
call the program and its modules, and each oracle job runs ``hkfun oracle``
with an argv of its own.  A rename or a deletion in ``hkfun`` would break a
benchmark run rather than a test.  These tests read the benchmark's files
and change nothing."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from hkfun import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_hkfun():
    layers = _load("layers")
    assert layers.LAYERS
    for owner, attr, layer in layers.LAYERS:
        name = owner.__module__ if isinstance(owner, type) else owner.__name__
        assert name.startswith("hkfun"), layer
        assert callable(getattr(owner, attr, None)), f"{name}.{attr} ({layer})"


def test_every_hkfun_attribute_in_the_workloads_resolves():
    """``oracle.graded_piece_length_raw``, ``trinomial.residue_representative``
    and every other ``<module>.<name>`` of an ``hkfun`` module that
    ``bench/workloads.py`` imports."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"hkfun.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hkfun"
               for alias in node.names}
    assert {"oracle", "trinomial", "bundle", "density", "volume", "cli"} <= set(modules)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("oracle", "variable_powers") in used
    for module, attr in sorted(used):
        assert hasattr(modules[module], attr), f"hkfun.{module}.{attr}"


def test_oracle_job_argv_parses(monkeypatch):
    """The argv an ``OracleJob`` builds, ``--threads 1`` included, for every
    oracle job of both oracle workloads."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports bench/reference.py
    workloads = _load("workloads")
    parser = cli.build_parser()
    for job in workloads.threshold_purepower(1) + workloads.sweep_cyclic(1):
        argv = job.argv()
        assert argv[argv.index("--threads") + 1] == "1"
        args = parser.parse_args(argv)
        assert (args.command, args.op, args.threads) == ("oracle", job.op, 1)
