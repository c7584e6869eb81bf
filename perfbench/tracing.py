"""Span recording around mola's public functions, installed from outside.

A :class:`Tracer` replaces selected module attributes of the ``mola``
package with wrappers that record one span per call: (name, start, end,
parent).  The wrapper is installed where the caller looks the name up, so a
module that imported a function by name (``model`` reads checkpoints through
its own ``read_json``) gets its own wrapper under the same span name.  Spans
stay in memory; :meth:`Tracer.dump` writes them out when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children always
nest inside their parent and self times never overlap.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter


def _batch_cols(args, kwargs, result):
    batch = args[1]
    return len(batch) * batch[0].history.shape[1]


def _grad_params(args, kwargs, result):
    return sum(g.size for g in args[1].values())


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _csv_rows(args, kwargs, result):
    return result.n_points


def _eval_windows(args, kwargs, result):
    return result["n_windows"]


def _stage_records(result):
    """Run records of one training stage call (one record, or one per segment)."""
    records = result[1]
    return records if isinstance(records, list) else [records]


# (span name, module attributes to patch, work counter).  The work counter
# gives the per-call amount behind the "*_per_call", "bytes", "rows" and
# "windows" statistics.
WRAPPED = (
    ("data.windows", ("data.windows",), None),
    ("data.load_csv", ("data.load_csv",), _csv_rows),
    ("model.loss_and_grads", ("model.loss_and_grads",), _batch_cols),
    ("model.mse_loss", ("model.mse_loss",), None),
    ("model.forecast", ("model.forecast",), None),
    ("model.ar_f_forecast", ("model.ar_f_forecast",), None),
    ("model.load_checkpoint", ("model.load_checkpoint",), None),
    ("adapt.segment_grads", ("adapt.segment_grads",), None),
    ("adapt.adapted_model", ("adapt.adapted_model",), None),
    ("adapt.effective_weight", ("adapt.effective_weight",), None),
    ("adapt.segment_loss", ("adapt.segment_loss",), None),
    ("train.adam_step", ("train.adam_step",), _grad_params),
    ("train.evaluate_forecaster", ("train.evaluate_forecaster",), _eval_windows),
    ("train.mola_forecast", ("train.mola_forecast",), None),
    ("train.pretrain", ("train.pretrain",), None),
    ("train.arf_train", ("train.arf_train",), None),
    ("train.mtf_train", ("train.mtf_train",), None),
    ("train.adapt_all_segments", ("train.adapt_all_segments",), None),
    ("linalg.svd", ("linalg.svd",), None),
    ("linalg.least_squares", ("linalg.least_squares",), None),
    ("analysis.paradigm_compare", ("analysis.paradigm_compare",), None),
    ("analysis.dataset_bottleneck", ("analysis.dataset_bottleneck",), None),
    ("analysis.min_attainable_error", ("analysis.min_attainable_error",), None),
    ("analysis.window_set_hash", ("analysis.window_set_hash",), None),
    # model.py imported these two by name, so it needs its own patch
    ("io.write_json", ("_io.write_json", "model.write_json"), _file_bytes),
    ("io.read_json", ("_io.read_json", "model.read_json"), _file_bytes),
    ("cli.main", ("cli.main",), None),
)

STAGES = ("train.pretrain", "train.arf_train", "train.mtf_train", "train.adapt_all_segments")


class Tracer:
    """In-memory span recorder.  Install, run, uninstall, then read."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1); a slot is reserved on
        # entry so parents precede their children
        self.spans: list = []
        self._stack: list[int] = []
        # per span index: amount of work (only for counted functions)
        self.work: dict[int, float] = {}
        # per span index: (epochs run, best epoch) of each returned run record
        self.records: dict[int, list[tuple[int, int]]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, work):
        tracer = self
        spans, stack = self.spans, self._stack
        fixed_id = None if name == "cli.main" else self._name_id(name)
        is_stage = name in STAGES

        def wrapper(*args, **kwargs):
            nid = fixed_id
            if nid is None:  # cli.main gets one span name per subcommand
                argv = args[0] if args else kwargs.get("argv")
                nid = tracer._name_id(f"cli.main.{argv[0]}")
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            if is_stage:
                tracer.records[idx] = [
                    (len(r.epochs), r.best_epoch) for r in _stage_records(result)
                ]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name, targets, work in WRAPPED:
            for target in targets:
                module_name, attr = target.split(".")
                module = importlib.import_module(f"mola.{module_name}")
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one iteration's spans."""
        return len(self.spans)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time of spans lo..hi-1 (their parents must lie in the range)."""
        out = [end - start for _, start, end, _ in self.spans[lo:hi]]
        for i in range(lo, hi):
            _, start, end, parent = self.spans[i]
            if parent >= 0:
                out[parent - lo] -= end - start
        return out

    def nesting_errors(self, lo: int, hi: int) -> list[str]:
        """Spans that do not lie inside their parent, or whose parent is outside lo..hi."""
        errors = []
        for i in range(lo, hi):
            nid, start, end, parent = self.spans[i]
            if end < start:
                errors.append(f"span {i} ({self.names[nid]}) ends before it starts")
            if parent < 0:
                continue
            if not lo <= parent < i:
                errors.append(f"span {i} ({self.names[nid]}) has parent {parent} outside the iteration")
                continue
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({self.names[nid]}) is not inside its parent {parent}")
        return errors

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and work total,
        plus the run records returned by the training stages, for spans lo..hi-1."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        work: dict[str, float] = defaultdict(float)
        records: list[tuple[int, int]] = []
        for i, own in zip(range(lo, hi), self.self_times(lo, hi)):
            nid, start, end, _ = self.spans[i]
            name = self.names[nid]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            if i in self.work:
                work[name] += self.work[i]
            records.extend(self.records.get(i, ()))
        return {"calls": calls, "total": total, "self": self_s, "work": work,
                "records": records}

    def dump(self, path) -> None:
        """Write every recorded span as [name, start_s, end_s, parent_index],
        times relative to the first span."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        rows = [
            [nid, round(start - t_ref, 9), round(end - t_ref, 9), parent]
            for nid, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
