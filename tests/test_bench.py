import importlib.util
from pathlib import Path


def test_traced_run_targets_resolve():
    # the traced bench run swaps out these module attributes; a rename in
    # the program would only show there, as an AttributeError
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in layers.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
