"""Spans around the calls into each fhsforge layer, for the traced replay.

`install(tracer)` replaces the public functions of galois, cyclic, fhs,
bounds, constructions and cli with wrappers that record a span per call,
in every fhsforge module that refers to them, so calls between layers are
seen too.  A span is [name, start, end, parent index, run id]; spans and
counts stay in memory until the worker writes them out at the end.
With `watch_memory`, tracemalloc runs inside the partition and certificate
spans; it slows code that allocates many small objects (the orbit-oracle
partitions took twice as long), so the worker takes times and peaks from
two separate replays.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
import types
from collections import Counter

from fhsforge import bounds, cli, constructions, cyclic, fhs, galois

MODULES = {"galois": galois, "cyclic": cyclic, "fhs": fhs, "bounds": bounds,
           "constructions": constructions, "cli": cli}

# span name -> functions of that layer's module it wraps
SPANS = {
    "galois.field": ("make_field", "field_from_order"),
    "cyclic.factor": ("factor_x_pow_n_minus_one",),
    "cyclic.build_code": ("build_code",),
    "cyclic.enumerate": ("codeword_matrix",),
    "cyclic.partition": ("class_partition", "enumerate_classes"),
    "cyclic.mindist": ("min_distance_exhaustive",),
    "fhs.to_sequences": ("classes_to_fhs",),
    "fhs.certificate": ("max_nontrivial",),
    "bounds.report": ("optimality_report",),
    "bounds.pf_sweep": ("pf_identity_sweep",),
    "constructions.family": ("family_a", "family_b", "family_c"),
    "cli.main": ("main",),
}
PEAK_SPANS = ("cyclic.partition", "fhs.certificate")

# time metric -> span.  Each is the spans' self time (duration minus traced
# child spans), except constructions.family_s, which times the whole call.
TIME_METRICS = {
    "galois.field_s": "galois.field",
    "cyclic.factor_s": "cyclic.factor",
    "cyclic.build_code_s": "cyclic.build_code",
    "cyclic.enumerate_s": "cyclic.enumerate",
    "cyclic.partition_s": "cyclic.partition",
    "cyclic.mindist_s": "cyclic.mindist",
    "fhs.to_sequences_s": "fhs.to_sequences",
    "fhs.parse_s": "fhs.parse",
    "fhs.certificate_s": "fhs.certificate",
    "bounds.report_s": "bounds.report",
    "bounds.pf_sweep_s": "bounds.pf_sweep",
    "constructions.family_s": "constructions.family",
    "cli.self_s": "cli.main",
}
INCLUSIVE = ("constructions.family",)
COUNT_METRICS = ("cyclic.factor_tables", "cyclic.codes", "cyclic.codewords",
                 "cyclic.orbits", "fhs.sequences", "fhs.nominal_comparisons",
                 "bounds.triples")
PEAK_METRICS = {"cyclic.partition_peak_mb": "cyclic.partition",
                "fhs.certificate_peak_mb": "fhs.certificate"}


class Tracer:
    def __init__(self, watch_memory: bool = False):
        self.watch_memory = watch_memory
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks_mb: dict[str, float] = {}
        self.run_id: str | None = None
        self._open: list[int] = []
        self._factor_keys: set[tuple[int, int]] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        watch = (self.watch_memory and name in PEAK_SPANS
                 and not tracemalloc.is_tracing())
        if watch:
            tracemalloc.start()
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.run_id]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.monotonic()
        try:
            yield
        finally:
            record[2] = time.monotonic()
            self._open.pop()
            if watch:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)

    def count(self, function: str, args: tuple, result) -> None:
        if function == "factor_x_pow_n_minus_one":
            key = (args[0].order, args[1])
            if key not in self._factor_keys:  # the process starts cold
                self._factor_keys.add(key)
                self.counts["cyclic.factor_tables"] += 1
        elif function == "build_code":
            self.counts["cyclic.codes"] += 1
        elif function == "codeword_matrix":
            self.counts["cyclic.codewords"] += result.shape[0]
        elif function == "class_partition":
            self.counts["cyclic.orbits"] += len(result[1])
        elif function == "max_nontrivial":
            self.counts["fhs.sequences"] += args[0].size
            self.counts["fhs.nominal_comparisons"] += result.nominal_comparisons
        elif function == "pf_identity_sweep":
            self.counts["bounds.triples"] += result.triples_checked

    def layer_metrics(self, measure) -> dict[str, float]:
        """Per-layer totals; `measure(start, end)` turns a span into seconds."""
        duration = [measure(start, end) for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += duration[i]
        out = {}
        for metric, span in TIME_METRICS.items():
            out[metric] = sum(
                duration[i] - (0.0 if span in INCLUSIVE else covered[i])
                for i, record in enumerate(self.spans) if record[0] == span
            )
        out.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        out.update({metric: self.peaks_mb.get(span, 0.0)
                    for metric, span in PEAK_METRICS.items()})
        return out


def _wrap(tracer: Tracer, span: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        tracer.count(fn.__name__, args, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    for span, names in SPANS.items():
        home = MODULES[span.split(".")[0]]
        for name in names:
            original = getattr(home, name)
            wrapper = _wrap(tracer, span, original)
            for module in MODULES.values():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
    # fhs.parse: the CLI's json.loads of a record plus FhsSet.from_json_dict
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.loads = _wrap(tracer, "fhs.parse", json.loads)
    cli.json = proxy
    fhs.FhsSet.from_json_dict = staticmethod(
        _wrap(tracer, "fhs.parse", fhs.FhsSet.from_json_dict))
