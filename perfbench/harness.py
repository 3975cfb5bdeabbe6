"""Measurement machinery: stage calls under a timeout, spans, and an
outside sampler of the memory of the driver and the Ray processes it
started."""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field

import pyarrow as pa


class StageFailed(Exception):
    """A stage call raised or timed out; the rest of the pass is skipped."""


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn()`` on a daemon thread and wait at most ``timeout_s``.

    A call that does not return in time raises ``TimeoutError``; its thread
    is abandoned (a hung Ray job cannot be cancelled from the driver) and
    the process can still exit, because the thread is a daemon."""
    box: queue.Queue = queue.Queue(maxsize=1)

    def target():
        try:
            box.put((True, fn()))
        except BaseException as e:  # handed to the caller below
            box.put((False, e))

    t = threading.Thread(target=target, daemon=True)
    t.start()
    try:
        ok, value = box.get(timeout=max(timeout_s, 0.0))
    except queue.Empty:
        raise TimeoutError(f"no result after {timeout_s:.0f} s") from None
    if not ok:
        raise value
    return value


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    rows: int | None = None
    ops: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.end - self.start


class Recorder:
    """Runs one pass's stage calls and checks.

    Untraced, a call returns whatever the stage returns (a lazy Dataset
    stays lazy, so Ray fuses it into its consumer). Traced, a Dataset is
    materialized inside the call's span, so the span times that layer and
    not its consumer; spans are kept in memory."""

    def __init__(self, traced: bool, stage_timeout_s: float, deadline: float):
        self.traced = traced
        self.stage_timeout_s = stage_timeout_s
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[Span] = []
        self._pass: str | None = None

    def begin_pass(self, name: str) -> None:
        self._pass = name

    def _timeout(self) -> float:
        return max(1.0, min(self.stage_timeout_s,
                            self.deadline - time.monotonic()))

    def call(self, layer: str, fn, *, ops: bool = False):
        """One stage call into ``layer`` (``<module>.<function>``)."""
        import ray.data as rd

        self.attempted += 1

        def body():
            out = fn()
            if self.traced and isinstance(out, rd.Dataset):
                out = out.materialize()
            return out

        t0 = time.perf_counter()
        try:
            out = call_with_timeout(body, self._timeout())
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{layer}: {type(e).__name__}: {e}"[:300])
            raise StageFailed(layer) from e
        t1 = time.perf_counter()
        if self.traced:
            span = Span(layer, t0, t1, self._pass)
            if isinstance(out, rd.Dataset):
                span.rows = out.count()
                if ops:
                    span.ops = operator_walls(out, t0)
            self.spans.append(span)
        return out

    def collect(self, layer: str, ds, columns: list[str] | None = None):
        """Gather the output of ``layer`` on the driver, part of the pass.
        Untraced, this is what executes the lazy plan; a failure here is a
        failure of that layer's call."""
        t0 = time.perf_counter()
        try:
            out = call_with_timeout(lambda: collect(ds, columns),
                                    self._timeout())
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{layer}: {type(e).__name__}: {e}"[:300])
            raise StageFailed(layer) from e
        if self.traced:
            self.spans.append(Span(f"collect.{layer}", t0,
                                   time.perf_counter(), self._pass))
        return out

    def check(self, layer: str, fn):
        """Check the collected output of ``layer``, after the pass clock
        has stopped. ``fn`` returns an error string, or ``None`` when the
        output is right. A wrong output counts as a failed call of that
        layer."""
        try:
            err = call_with_timeout(fn, self._timeout())
        except Exception as e:
            err = f"{type(e).__name__}: {e}"
        if err:
            self.failed += 1
            self.failures.append(f"{layer}: wrong output: {err}"[:300])
        return err is None

    def annotate(self, layer: str, **extra) -> None:
        """Attach a per-layer quantity to the latest span of ``layer``."""
        if not self.traced:
            return
        for span in reversed(self.spans):
            if span.name == layer:
                span.extra.update(extra)
                return


def op_class(name: str) -> str:
    """Stable class of a Ray Data operator name: ``exchange`` for the
    all-to-all operators, else ``map`` (reads fuse into their maps)."""
    keys = ("Shuffle", "Aggregate", "Join", "Repartition", "Sort",
            "GroupBy", "Groupby")
    return "exchange" if any(k in name for k in keys) else "map"


def operator_walls(ds, since: float) -> dict[str, float]:
    """Busy seconds per operator class of ``ds``'s executions that started
    after ``since`` (``time.perf_counter`` and Ray's task clocks are both
    the host's monotonic clock). Reads ``Dataset.stats()``' structured
    form; returns ``{}`` when Ray changes it."""
    try:
        summary = ds._plan.stats().to_summary()
    except Exception:
        return {}
    out: dict[str, float] = {}
    seen = set()

    def walk(s):
        if id(s) in seen:
            return
        seen.add(id(s))
        for op in s.operators_stats:
            start = op.earliest_start_time
            if start is None or start < since:
                continue
            wall = (op.wall_time or {}).get("sum") or 0.0
            cls = op_class(op.operator_name)
            out[cls] = out.get(cls, 0.0) + float(wall)
        for p in s.parents:
            walk(p)

    try:
        walk(summary)
    except Exception:
        return {}
    return out


def block_skew(ds) -> float:
    """max/mean rows per non-empty output block of a materialized Dataset."""
    rows = []
    for bundle in ds.iter_internal_ref_bundles():
        rows.extend(m.num_rows or 0 for m in bundle.metadata)
    rows = [r for r in rows if r]
    if not rows:
        return 0.0
    return max(rows) * len(rows) / sum(rows)


def collect(ds, columns: list[str] | None = None) -> pa.Table:
    """Execute ``ds`` (if lazy) and gather it on the driver as one table."""
    if columns is not None:
        ds = ds.select_columns(columns)
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow",
                                                   batch_size=None)]
    parts = [t for t in parts if t.num_columns]
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="default")


# ---------------------------------------------------------------------------
# process memory, sampled from outside the engine
# ---------------------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def pss_bytes(pid: int) -> int:
    """Proportional set size: private pages plus each shared page divided
    by the number of processes mapping it, so object-store pages count
    once across the raylet and the workers that map them."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) << 10
    except OSError:
        pass
    return 0


class RssSampler:
    """Samples the summed PSS of the driver and every process it started
    (raylet with its object store, GCS, workers) on a background thread
    and keeps the peak."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        me = os.getpid()
        total = sum(pss_bytes(p) for p in [me, *descendants(me)])
        self.peak = max(self.peak, total)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
