import argparse
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tffcomb
from tffcomb.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # the benchmark's traced mode wraps these names in place; a rename in the
    # package would leave a layer unmeasured, so each must still resolve
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, fn_name, _ in tracing.TRACED:
        module = importlib.import_module(f"tffcomb.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)
    assert tffcomb.realize.decide is tffcomb.tffcore.decide


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import tffcomb
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "third_party": sorted(loaded - set(sys.stdlib_module_names) - {"tffcomb"}),
}))
"""


def test_import_loads_only_numpy():
    # the benchmark's setup_s includes ``import tffcomb`` in a fresh process,
    # and importing scipy.linalg alone costs about as much as all the rest;
    # numpy is the sole dependency declared in pyproject.toml
    src = str(Path(tffcomb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert loaded["scipy"] == []
    assert loaded["third_party"] == ["numpy"]


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tffcomb.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")])
    )
    return env


def _private_imports(tree):
    """Names a module imports from tffcomb that start with an underscore,
    module path components included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "tffcomb":
                parts = module.split(".") + [alias.name for alias in node.names]
                yield from (f"{module}:{p}" for p in parts if p.startswith("_"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tffcomb" and any(p.startswith("_") for p in parts):
                    yield alias.name


def test_scripts_use_only_public_names():
    # a script that reaches into the package's private helpers becomes a
    # second owner of what they make; the table, for one, is made only by
    # ``tffcomb maximal --all``
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    private = {
        path.name: sorted(_private_imports(ast.parse(path.read_text())))
        for path in scripts
    }
    assert private == {path.name: [] for path in scripts}
    probe = "from tffcomb.cli import main, _helper\nimport tffcomb._x\n"
    assert sorted(_private_imports(ast.parse(probe))) == [
        "tffcomb._x", "tffcomb.cli:_helper",
    ]


def test_realize_demo_runs():
    # the only script with no other test: decide, certificate, dualities and
    # a numerical realization, end to end
    def run(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "realize_demo.py"), *args],
            env=_env_with_src(), capture_output=True, text=True, timeout=120,
        )

    tight = run()
    assert tight.returncode == 0, tight.stderr
    assert "tight" in tight.stdout and "not tight" not in tight.stdout
    assert "pass" in tight.stdout
    rejected = run("--dim", "3", "--ranks", "2,2")
    assert rejected.returncode == 1, rejected.stderr
    assert "not tight" in rejected.stdout


COMMON = ["-h", "--help", "--json"]
OPTION_SURFACE = {
    "decide": ["--dim", "--ranks"],
    "count": ["--dim", "--ranks"],
    "certificate": ["--dim", "--ranks", "--out"],
    "tableau": ["--dim", "--ranks", "--in"],
    "maximal": ["--alpha", "--dim", "--all", "--max-dim", "--out"],
    "enumerate": ["--alpha", "--dim"],
    "dual": ["--dim", "--ranks", "--alpha", "--spatial", "--naimark",
             "--alpha-reduce", "--strip"],
    "dual-config": ["--in", "--spatial", "--naimark", "--out"],
    "check-bounds": ["--dim", "--ranks", "--alpha"],
    "two-proj": ["--dim", "--p", "--q", "--spectrum"],
    "realize": ["--dim", "--ranks", "--seed", "--tol", "--max-restarts",
                "--out", "--csv"],
    "verify": ["--in", "--alpha", "--tol"],
}


def test_option_surface_is_pinned():
    # every subcommand's flags, in declaration order: a refactor of the
    # parser must add, drop and rename none of them
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [opt for action in p._actions for opt in action.option_strings]
        for name, p in sub.choices.items()
    }
    assert surface == {
        name: COMMON + flags for name, flags in OPTION_SURFACE.items()
    }


def test_realize_workload_needs_no_optimizer(monkeypatch):
    # the benchmark's realize workload times realize_tff on these inputs;
    # each must take an exact path (spectral tetris or certificate
    # eigensteps), and the optimizer must not run
    import refdata

    def must_not_run(*args):
        raise AssertionError("the optimizer ran")

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(tffcomb.realize, "_alternate", must_not_run)
    inputs = workloads.realize_inputs(refdata)
    assert len(inputs) == 231
    for seed, (ranks, dim) in enumerate(inputs):
        frame = tffcomb.realize_tff(ranks, dim, seed=seed)
        report = tffcomb.verify_tff(frame, alpha=Fraction(sum(ranks), dim))
        assert report.passed, (ranks, dim)


def test_bench_pair_summarizes_canned_runs(monkeypatch):
    # the recorder's medians and inclusive quartiles per workload and side,
    # on runs written out by hand; no git or benchmark process is started
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py"
    )
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(bench_pair.subprocess, "run", must_not_run)

    def runs(workload, side, values):
        return [
            {"workload": workload, "side": side, "pair": i,
             "metrics": {"op_p50_ms": v, "ops_per_s": 100 * v}}
            for i, v in enumerate(values)
        ]

    summary = bench_pair.summarize(
        runs("realize", "base", [4, 1, 3, 2, 10]) + runs("realize", "head", [1, 2, 3, 4])
        + runs("duals", "head", [7])
    )
    assert summary == {
        "realize": {
            "base": {
                "op_p50_ms": {"n": 5, "median": 3, "q1": 2, "q3": 4, "iqr": 2},
                "ops_per_s": {"n": 5, "median": 300, "q1": 200, "q3": 400, "iqr": 200},
            },
            "head": {
                "op_p50_ms": {"n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5},
                "ops_per_s": {"n": 4, "median": 250, "q1": 175, "q3": 325, "iqr": 150},
            },
        },
        "duals": {
            "head": {
                "op_p50_ms": {"n": 1, "median": 7, "q1": 7, "q3": 7, "iqr": 0},
                "ops_per_s": {"n": 1, "median": 700, "q1": 700, "q3": 700, "iqr": 0},
            },
        },
    }
    assert bench_pair.parse_plan(["realize:10", "duals:3"]) == [("realize", 10), ("duals", 3)]
    for bad in ("realize", "realize:0", ":3", "realize:x"):
        with pytest.raises(SystemExit):
            bench_pair.parse_plan([bad])
