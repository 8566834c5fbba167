"""Specification models: each concept's behaviour written the naive way.

A fast body in ``repro`` is proven by feeding the same input to it and
to its model here and requiring the same values and the same errors.
One module per layer, one model per concept:

* ``core`` — the per-byte change tracker, the delta-record codec and
  page reconstruction (tests in ``tests/core/*_spec.py``);
* ``wal`` — log record and frame codecs (``tests/engine/test_wal_spec.py``);
* ``schema`` — the record schema (``tests/engine/test_schema_spec.py``);
* ``storage`` — fetch, the update bracket and the heap file
  (``tests/storage/test_heap_spec.py``);
* ``workloads`` — the draw helpers as the numpy calls they stand for
  (``tests/workloads/test_helpers_spec.py``, and the draw kernel's twin);
* ``ftl`` — relocation one page at a time (``tests/ftl/test_gc_spec.py``).

A perf PR may diff against its parent while writing, but commits only a
spec comparison: no frozen copy of an earlier body lives in ``tests/``
(``tests/lint/test_spec_guard.py`` refuses ``Parent*`` classes and
``parent_*`` functions, and ``_``-prefixed imports from ``repro`` here).
"""

import struct

from repro.core.reconstruct import ReconstructionError

#: What a model and its subject may raise on input both must refuse.
EXPECTED_ERRORS = (ValueError, KeyError, struct.error, ReconstructionError)


def outcome(fn, *args):
    """The value ``fn`` returns, or the exception (type, message) it raises."""
    try:
        return ("ok", fn(*args))
    except EXPECTED_ERRORS as error:
        return ("raised", type(error), str(error))
