"""Per-layer timing from outside the program.

The traced run wraps named public functions and methods of the layers
with timers, patched where callers look them up: module functions are
replaced in every loaded ``repro`` module that binds them (the engine
calls ``ops.and_lists``, ``tables`` imported ``max_merge_lists`` by
name), methods on their class.  A call's self time is its duration minus
the time spent in wrapped calls it made on the same thread.

Nothing in ``src/`` changes; the spans a later change adds inside the
program should close the ``unattributed_ms`` gap these wrappers leave.
"""

import sys
import threading
import time

#: layer name -> (module, class or None, attribute names).
WRAPPERS = {
    "htl.parse": ("repro.htl.parser", None, ("parse",)),
    "model.object_universe": ("repro.model.hierarchy", "Video", ("object_universe",)),
    "core.ops.list_algebra": (
        "repro.core.ops",
        None,
        (
            "and_lists",
            "next_list",
            "until_lists",
            "eventually_list",
            "max_merge_lists",
            "always_list",
        ),
    ),
    "pictures.similarity_table": (
        "repro.pictures.retrieval",
        "PictureRetrievalSystem",
        ("similarity_table",),
    ),
    "core.simlist.from_sorted_pieces": (
        "repro.core.simlist",
        "SimilarityList",
        ("from_sorted_pieces",),
    ),
    "core.planner.plan_for": ("repro.core.planner", "Planner", ("plan_for",)),
    "ingest.submit": ("repro.ingest.ingester", "Ingester", ("submit",)),
    "ingest.commit": ("repro.ingest.ingester", "Ingester", ("commit",)),
    "ingest.checkpoint": ("repro.ingest.ingester", "Ingester", ("checkpoint",)),
    "model.append_segments": ("repro.model.hierarchy", "Video", ("append_segments",)),
    "store.load": ("repro.store.store", "Store", ("load",)),
    "pictures.index_build": (
        "repro.pictures.retrieval",
        "PictureRetrievalSystem",
        ("__init__",),
    ),
}

#: Wrappers whose results count entries produced (``<layer>`` ->
#: counter name).
ENTRY_COUNTERS = {"core.ops.list_algebra": "core.ops.entries_out"}


class Tracer:
    """Installs the wrappers and accumulates calls and self time."""

    def __init__(self):
        self.calls = {name: 0 for name in WRAPPERS}
        self.self_s = {name: 0.0 for name in WRAPPERS}
        self.counters = {name: 0 for name in ENTRY_COUNTERS.values()}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.active = False
        #: Wrapped names whose target the program no longer has; their
        #: layer reads zero calls.
        self.missing = []

    # -- accounting ------------------------------------------------------
    def _wrap(self, name, function):
        tracer = self
        counter = ENTRY_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += elapsed - children
            if counter is not None:
                with tracer._lock:
                    tracer.counters[counter] += len(result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def snapshot(self):
        with self._lock:
            return dict(self.calls), dict(self.self_s), dict(self.counters)

    # -- patching --------------------------------------------------------
    def install(self):
        if self.active:
            return
        self.active = True
        for name, (module_name, class_name, attributes) in WRAPPERS.items():
            module = sys.modules.get(module_name)
            owner = module if class_name is None else getattr(module, class_name, None)
            for attribute in attributes:
                target = ".".join(filter(None, (module_name, class_name, attribute)))
                if owner is None or attribute not in vars(owner):
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                if class_name is not None:
                    original = owner.__dict__[attribute]
                    if isinstance(original, classmethod):
                        patched = classmethod(self._wrap(name, original.__func__))
                    else:
                        patched = self._wrap(name, original)
                    setattr(owner, attribute, patched)
                    self._undo.append((owner, attribute, original))
                    continue
                original = getattr(module, attribute)
                patched = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if loaded is None or not loaded.__name__.startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, patched)
                            self._undo.append((loaded, key, original))

    def uninstall(self):
        self.active = False
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
