"""The benchmark's tracer wraps mola functions by module and attribute name.

A function that moves or is renamed, or that a workload stops calling,
would only break the benchmark run; these tests make it break the suite
instead.  perfbench/ is not a package, so its modules are loaded from their
files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from mola import adapt, data, model, train

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_mola_callable():
    tracing = _load("tracing")
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
    tracing = _load("tracing")
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


def test_every_training_step_goes_through_the_traced_functions():
    # perfbench's per-layer table counts model.loss_and_grads,
    # adapt.segment_grads and train.adam_step spans; a step that bypassed
    # one of them would leave that table silently wrong
    tracing = _load("tracing")
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=200)))
    spec = model.EncoderSpec(kind="mlp2", in_len=6, hidden=(6, 4), activation="tanh")
    config = train.TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=2, patience=2)
    plan = adapt.make_segment_plan(8, 4, lookback=6)
    steps_per_epoch = {h: -(-len(data.windows(ds, 6, h, "train")) // 16) for h in (2, 8)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        foundation, pre = train.pretrain(ds, spec, 2, config)
        soft = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=0)
        _, soft_records = train.adapt_all_segments(foundation, plan, soft, ds, config)
        one_hot = adapt.new_adapter(foundation, plan, n_experts=4, rank=2, seed=0,
                                    routing="one-hot")
        _, one_hot_records = train.adapt_all_segments(foundation, plan, one_hot, ds, config)
    finally:
        tracer.uninstall()
    pretrain_steps = len(pre.epochs) * steps_per_epoch[2]
    # soft segments fit one after another, one-hot ones in one lockstep fit
    adapt_steps = (sum(len(r.epochs) for r in soft_records)
                   + max(len(r.epochs) for r in one_hot_records)) * steps_per_epoch[8]
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("model.loss_and_grads") == pretrain_steps + adapt_steps
    assert names.count("adapt.segment_grads") == adapt_steps
    assert names.count("train.adam_step") == pretrain_steps + adapt_steps
    for span in tracer.spans:  # an adaptation step's loss runs inside its segment_grads
        if tracer.names[span[0]] == "model.loss_and_grads" and span[3] >= 0:
            parent = tracer.names[tracer.spans[span[3]][0]]
            assert parent in ("train.pretrain", "adapt.segment_grads")


@pytest.mark.parametrize("workload", ["compare_onehot", "etth_cli_soft", "floor_svd"])
def test_each_workload_calls_the_functions_its_usage_entry_names(workload, tmp_path):
    # perfbench --trace 1 fails a run whose wrapped calls disagree with
    # predictions.json's "usage"; this runs each workload at its tiny size
    # under the tracer, so a step that stops calling one of them (say
    # adapt.effective_weight) fails the suite instead
    tracing, workloads = _load("tracing"), _load("workloads")
    usage = json.loads((ROOT / "perfbench" / "predictions.json").read_text())["usage"]
    wl = workloads.WORKLOADS[workload](tiny=True)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wl.setup(0, tmp_path / "work")
        lo = tracer.mark()
        outputs = {name: fn() for name, fn in wl.phases()}
        hi = tracer.mark()
    finally:
        tracer.uninstall()
    assert wl.check(outputs)[1] == []
    called = {name for name, n in tracer.aggregate(lo, hi)["calls"].items() if n}
    assert called == {name for name, users in usage.items() if workload in users}
