"""The benchmark's tracer wraps mola functions by module and attribute name.

A function that moves or is renamed would only break the benchmark run;
this test makes it break the suite instead.  perfbench/ is not a package,
so the tracer module is loaded from its file.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_mola_callable():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    targets = [target for _, module_attrs, _ in tracing.WRAPPED for target in module_attrs]
    resolved = [f"{module.__name__}.{attr}" for module, attr, _ in patched]
    assert resolved == [f"mola.{target}" for target in targets]
    for module, attr, original in patched:
        assert callable(original), f"{module.__name__}.{attr}"
        assert getattr(module, attr) is original  # uninstall restored it
