"""The benchmark's tracer wraps mola functions by module and attribute name.

A function that moves or is renamed would only break the benchmark run;
this test makes it break the suite instead.  perfbench/ is not a package,
so the tracer module is loaded from its file.
"""

import importlib.util
from pathlib import Path

from mola import data, model, train

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


def test_loss_and_grads_spans_count_the_columns_of_their_batch():
    # the tracer's work counter reads len(batch) and batch[0].history of
    # whatever train.fit hands the loss, so the batches fit passes must keep
    # both working and mean B windows of D channels
    tracing = _load_tracing()
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=120)))
    config = train.TrainConfig(batch_size=8, max_epochs=1, patience=1)
    n_train = len(data.windows(ds, 6, 2, "train"))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        train.pretrain(ds, model.EncoderSpec(kind="linear", in_len=6), 2, config)
    finally:
        tracer.uninstall()
    name_id = tracer.names.index("model.loss_and_grads")
    cols = [tracer.work[i] for i, span in enumerate(tracer.spans) if span[0] == name_id]
    assert n_train % 8 != 0  # the last, shorter batch is counted too
    assert cols == [min(8, n_train - i) * ds.d_channels for i in range(0, n_train, 8)]
