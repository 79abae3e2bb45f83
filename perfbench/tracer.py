"""Run the linkcensus command line with spans around the calls into each layer.

Usage: python3 perfbench/tracer.py SPANS.json ARGS...

ARGS are the arguments of `linkcensus`.  The environment variable
PERFBENCH_TRACE holds `TRACE_ID:PARENT_SPAN_ID`, so that every process of
one workload run records into the same trace under the benchmark's root
span.  Spans stay in memory and are written to SPANS.json when the
command returns.

The wrappers replace the public entry points where the program looks
them up: `fpg` functions on the `fpg` module (its enumerator reads them
as module globals at call time) and in the modules that imported
`enumerate_pairings`, the kernel's `search_pairing` on the loaded kernel
module, and the `search` and `core` functions in the `cli` namespace.
Nothing inside the compiled kernel is traced, so its depth-first search,
leaf classification and signatures appear as one span per call, with the
call's counters as attributes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: (module, attribute, span name); modules are relative to `linkcensus`
PATCHES = (
    ("fpg", "is_canonical", "fpg.is_canonical"),
    ("fpg", "is_connected", "fpg.is_connected"),
    ("search", "enumerate_pairings", "fpg.enumerate_pairings"),
    ("cli", "enumerate_pairings", "fpg.enumerate_pairings"),
    ("cli", "split_jobs", "search.split_jobs"),
    ("cli", "run_job", "search.run_job"),
    ("cli", "merge", "search.merge"),
    ("cli", "parse_job", "search.parse_job"),
    ("cli", "format_job", "search.format_job"),
    ("cli", "result_to_dict", "search.result_to_dict"),
    ("cli", "result_from_dict", "search.result_from_dict"),
    ("cli", "decode_signature", "core.decode_signature"),
    ("cli", "serialize", "core.serialize"),
)

ENGINE_COUNTERS = ("nodes", "leaves", "prune_orient", "prune_edge", "prune_genus")


class Tracer:
    """In-memory spans of one process, nested by a stack of open spans."""

    def __init__(self, trace_id: str, parent: str):
        self.trace_id = trace_id
        self._closed: list[tuple] = []
        self._stack = [parent]
        self._next = 0

    def open(self) -> tuple[str, str, int]:
        span_id = f"{os.getpid()}.{self._next}"
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent, time.monotonic_ns()

    def close(self, opened: tuple[str, str, int], name: str, attrs: dict) -> None:
        end = time.monotonic_ns()
        self._stack.pop()
        self._closed.append((opened, name, end, attrs))

    def records(self) -> list[dict]:
        return [{"trace": self.trace_id, "id": span_id, "parent": parent,
                 "name": name, "start": start, "end": end, "attrs": attrs}
                for (span_id, parent, start), name, end, attrs in self._closed]

    def wrap(self, name: str, fn, counters=None):
        """Span each call of `fn`; `counters(result)` gives its attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self.open()
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    attrs = counters(result)
                return result
            finally:
                self.close(opened, name, attrs)
        return traced

    def wrap_generator(self, name: str, fn):
        """Span each resumption of the generator `fn` returns.

        A consumer interleaves its own calls between items, so one span
        over the whole iteration would not nest; each resumption that
        yields an item carries `items: 1`.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                opened = self.open()
                attrs = {"items": 0}
                try:
                    item = next(gen)
                    attrs["items"] = 1
                except StopIteration:
                    return
                finally:
                    self.close(opened, name, attrs)
                yield item
        return traced


def engine_counters(raw: dict) -> dict:
    attrs = {k: raw[k] for k in ENGINE_COUNTERS}
    attrs["kept"] = len(raw["orient_sigs"]) + len(raw["nonor_sigs"])
    return attrs


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "PERFBENCH_TRACE" not in os.environ:
        print("usage: PERFBENCH_TRACE=TRACE:PARENT tracer.py SPANS.json ARGS...",
              file=sys.stderr)
        return 2
    spans_path, args = argv[0], argv[1:]
    trace_id, _, parent = os.environ["PERFBENCH_TRACE"].partition(":")
    tracer = Tracer(trace_id, parent)
    root = tracer.open()
    try:
        # imported inside the root span: loading the package is program time
        from linkcensus import cli, search

        engine = search.load_backend()
        if engine.BACKEND_NAME != "fast":
            print(f"error: backend is {engine.BACKEND_NAME!r}, not 'fast'",
                  file=sys.stderr)
            return 1
        engine.search_pairing = tracer.wrap(
            "engine.search_pairing", engine.search_pairing, engine_counters)
        for module, attr, name in PATCHES:
            mod = importlib.import_module(f"linkcensus.{module}")
            fn = getattr(mod, attr)
            wrap = (tracer.wrap_generator if name == "fpg.enumerate_pairings"
                    else tracer.wrap)
            setattr(mod, attr, wrap(name, fn))
        return cli.main(args)
    finally:
        tracer.close(root, "cli.main", {"argv": args})
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
