import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_table_script_matches_cli_bytes():
    # the script and ``maximal --all`` share one cell layout
    def stdout(*argv):
        return subprocess.run(
            [sys.executable, *argv], env=_env_with_src(), capture_output=True,
            timeout=120, check=True,
        ).stdout

    script = stdout(str(ROOT / "scripts" / "make_maximal_tables.py"),
                    "--max-dim", "4")
    cli = stdout("-m", "tffcomb.cli", "maximal", "--all", "--max-dim", "4",
                 "--json")
    assert script == cli


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
