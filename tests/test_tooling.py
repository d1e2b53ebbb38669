import importlib
import importlib.util
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
