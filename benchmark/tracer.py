"""Spans recorded around calls into `kiselman`'s public functions.

`Tracer.install` replaces each traced function at every module attribute
and class attribute that holds it, so callers that imported the name pick
up the wrapper too.  A span is (name, start, end, parent index, size); the
spans stay in memory until `write` stores them as JSON lines.  Self time is
a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

_clock = time.perf_counter


def _targets(kiselman) -> list[tuple[str, object, str]]:
    # (span name, owner, attribute); the owner's attribute is the original
    words, reduce, census = kiselman.words, kiselman.reduce, kiselman.census
    oracle, verify, bounds, reports = kiselman.oracle, kiselman.verify, kiselman.bounds, kiselman.reports
    targets = [
        ("words.validate", words.Word, "__post_init__"),
        ("words.canonical_violation", words, "canonical_violation"),
        ("reduce.canonical_form", reduce, "canonical_form"),
        ("reduce.multiply", reduce, "multiply"),
        ("census.count", census, "count"),
        ("census.longest_census", census, "longest_census"),
        ("census.iter_canonical", census, "iter_canonical"),
        ("oracle.certify_reducer", oracle, "certify_reducer"),
        ("oracle.congruence_closure", oracle, "congruence_closure"),
        ("verify.bounds_suite", verify, "bounds_suite"),
        ("verify.identities_suite", verify, "identities_suite"),
        ("verify.structure_suite", verify, "structure_suite"),
        ("reports.to_json_dict", reports.BoundReport, "to_json_dict"),
        ("cli.main", kiselman.cli, "main"),
    ]
    for name in reports.__all__:
        if inspect.isfunction(getattr(reports, name)):
            targets.append((f"reports.{name}", reports, name))
    for name in bounds.__all__:
        if inspect.isfunction(getattr(bounds, name)):
            targets.append((f"bounds.{name}", bounds, name))
    return targets


def _closure_size(classes) -> int:
    return sum(len(c.members) for c in classes)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        # a closure's span also records how many words its universe held
        size = _closure_size if name == "oracle.congruence_closure" else None
        if inspect.isgeneratorfunction(fn):
            # each resumption is a span, so the consumer's time between
            # resumptions stays with the consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if size is not None:
                self.spans[idx][4] = size(result)
            return result

        return wrapper

    def install(self, kiselman) -> None:
        """Wrap every traced function wherever a `kiselman` module holds it."""
        modules = [m for key, m in sys.modules.items() if key == "kiselman" or key.startswith("kiselman.")]
        for name, owner, attr in _targets(kiselman):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, factor: float) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced run.

    Times are multiplied by `factor`, the run's speed correction.  A layer
    the workload never reaches reads 0.
    """
    children: list[float] = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - children[i]) * factor

    def under(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def p50_us(name: str, op: str) -> float:
        durations = [
            (end - start) * factor * 1e6
            for n, start, end, parent, _ in spans
            if n == name and parent >= 0 and spans[parent][0] == op
        ]
        return statistics.median(durations) if durations else 0.0

    reduces = calls.get("reduce.canonical_form", 0)
    scans = sum(
        1 for i, span in enumerate(spans) if span[0] == "words.canonical_violation" and under(i, "reduce.canonical_form")
    )
    closure_words = sum(s[4] for s in spans if s[0] == "oracle.congruence_closure")
    scan = [
        (s[2] - s[1]) * factor
        for s in spans
        if s[0] == "reduce.canonical_form" and s[3] >= 0 and spans[s[3]][0] == "oracle.certify_reducer"
    ]
    closures_in_certify = sum(
        1 for s in spans if s[0] == "oracle.congruence_closure" and s[3] >= 0 and spans[s[3]][0] == "oracle.certify_reducer"
    )

    def prefixed(prefix: str, table: dict) -> float:
        return float(sum(v for k, v in table.items() if k.startswith(prefix)))

    return {
        "words.validate.calls": calls.get("words.validate", 0),
        "words.validate.self_s": self_s.get("words.validate", 0.0),
        "words.canonical_violation.calls": calls.get("words.canonical_violation", 0),
        "words.canonical_violation.self_s": self_s.get("words.canonical_violation", 0.0),
        "words.canonical_violation.p50_us": p50_us("words.canonical_violation", "op.check"),
        "reduce.canonical_form.calls": reduces,
        "reduce.canonical_form.self_s": self_s.get("reduce.canonical_form", 0.0),
        "reduce.multiply.self_s": self_s.get("reduce.multiply", 0.0),
        "reduce.canonical_form.p50_us": p50_us("reduce.canonical_form", "op.reduce"),
        "reduce.multiply.p50_us": p50_us("reduce.multiply", "op.multiply"),
        "reduce.scans_per_reduce": scans / reduces if reduces else 0.0,
        "census.count.calls": calls.get("census.count", 0),
        "census.count.self_s": self_s.get("census.count", 0.0),
        "census.longest_census.self_s": self_s.get("census.longest_census", 0.0),
        "census.iter_canonical.self_s": self_s.get("census.iter_canonical", 0.0),
        "oracle.certify_reducer.self_s": self_s.get("oracle.certify_reducer", 0.0),
        "oracle.congruence_closure.calls": calls.get("oracle.congruence_closure", 0),
        "oracle.congruence_closure.self_s": self_s.get("oracle.congruence_closure", 0.0),
        "oracle.closure_words": closure_words,
        "oracle.useful_word_share": len(scan) / closure_words if closure_words else 0.0,
        "oracle.scan_calls": len(scan),
        "oracle.scan_s": float(sum(scan)),
        "oracle.retries": closures_in_certify - calls.get("oracle.certify_reducer", 0) if closures_in_certify else 0,
        "verify.bounds_suite.self_s": self_s.get("verify.bounds_suite", 0.0),
        "verify.identities_suite.self_s": self_s.get("verify.identities_suite", 0.0),
        "verify.structure_suite.self_s": self_s.get("verify.structure_suite", 0.0),
        "bounds.calls": int(prefixed("bounds.", calls)),
        "bounds.self_s": prefixed("bounds.", self_s),
        "reports.self_s": prefixed("reports.", self_s),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
