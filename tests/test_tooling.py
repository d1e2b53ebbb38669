import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import tffcomb

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
