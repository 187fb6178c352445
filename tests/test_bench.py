import importlib.util
from pathlib import Path

from bpictl.cli import run
from bpictl.frames import CONDITION_NAMES
from bpictl.textio import render_model

from conftest import example_model


def _layers():
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_traced_run_targets_resolve():
    # the traced bench run swaps out these module attributes; a rename in
    # the program would only show there, as an AttributeError
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in _layers().TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_traced_layer_fires(tmp_path, capsys):
    # a caller that stops looking a layer up through the wrapped module
    # attribute leaves that layer's metrics at 0 in a traced run
    layers = _layers()
    model = tmp_path / "m.bpm"
    model.write_text(render_model(example_model()))
    with layers.Tracer() as tracer:
        assert run(["check", str(model), "B{a} EX EG p | E[p U !p]"]) == 0
        assert run(["validate", str(model)]) == 0
        assert run(["sat", "EX p", "--max-states", "2"]) == 0
        assert run(["axioms", str(model), "--pool", "1"]) == 0
    fired = {span[0] for span in tracer.spans}
    wanted = {name for _, _, name in layers.TARGETS} - {"frames.cond"}
    wanted |= {f"frames.cond.{name}" for name in CONDITION_NAMES}
    assert sorted(wanted - fired) == []
