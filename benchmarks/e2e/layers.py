"""Attributing host CPU time and Python calls to layers, from outside.

Nothing here touches the program's source: the sampler and the call
counter look at interpreter frames, and the span wrappers are placed on
*instances* around public methods, so a layer's cost is seen at its
boundary exactly as its callers see it.
"""

from __future__ import annotations

import os
import signal
import sys
from time import perf_counter
from types import FrameType
from typing import Any, Callable, Dict, Iterable, Optional

from benchmarks.e2e.spec import LAYERS

_OWN_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_filename(filename: str) -> Optional[str]:
    """Layer a source file belongs to, or None for code outside the repo.

    ``…/repro/<pkg>/….py`` is layer ``<pkg>`` when the benchmark reports
    that layer and ``bench`` otherwise (``repro.bench``, ``repro.lint``…);
    the benchmark's own files are ``bench`` too.  Standard-library,
    numpy and ``repro/__init__.py`` frames have no layer of their own.
    """
    if filename.startswith(_OWN_DIR):
        return "bench"
    _, found, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not found:
        return None
    package, is_dir, _ = tail.partition("/")
    if not is_dir:
        return None
    return package if package in LAYERS else "bench"


class FrameClassifier:
    """Maps a frame to the layer of its innermost ``repro`` frame.

    Time spent in C, numpy or the standard library is charged to the
    layer that called it: the walk goes up the stack until a file with a
    layer is found, and ends in ``bench`` (the benchmark's own loop).
    """

    def __init__(self) -> None:
        self._by_file: Dict[str, Optional[str]] = {}

    def of_filename(self, filename: str) -> Optional[str]:
        try:
            return self._by_file[filename]
        except KeyError:
            layer = self._by_file[filename] = layer_of_filename(filename)
            return layer

    def of_frame(self, frame: Optional[FrameType]) -> str:
        while frame is not None:
            layer = self.of_filename(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "bench"


class CpuSampler:
    """``SIGPROF`` sampler: one sample per ``interval_s`` of process CPU.

    The handler runs between bytecodes of the main thread, so a sample
    taken while C code runs is seen at the Python frame that called it.
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.samples: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._classifier = FrameClassifier()
        self._previous: Any = None

    def _on_sample(self, _signum: int, frame: Optional[FrameType]) -> None:
        self.samples[self._classifier.of_frame(frame)] += 1

    def __enter__(self) -> "CpuSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, float]:
        """Fraction of samples per layer (all 0.0 when none were taken)."""
        total = sum(self.samples.values())
        return {
            layer: (count / total if total else 0.0)
            for layer, count in self.samples.items()
        }


class CallCounter:
    """``sys.setprofile`` counter of Python and C calls per layer.

    A Python call is charged to the layer of the called function (or of
    its nearest ``repro`` caller when the function is library code), a C
    call to the layer of the frame that made it.  The count depends only
    on the code path taken, so it repeats exactly where wall time drifts.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._classifier = FrameClassifier()

    def _on_event(self, frame: FrameType, event: str, _arg: object) -> None:
        if event == "call" or event == "c_call":
            self.calls[self._classifier.of_frame(frame)] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._on_event)
        return self

    def __exit__(self, *_exc: object) -> None:
        sys.setprofile(None)


class Span:
    """Calls and inclusive host seconds seen at one layer boundary."""

    __slots__ = ("calls", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed into this span (exceptions are timed too)."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s += perf_counter() - start
                self.calls += 1

        return timed

    def wrap_methods(self, obj: object, names: Iterable[str]) -> None:
        """Shadow ``obj``'s bound methods ``names`` with timed ones.

        An instance attribute hides the class's method for every caller
        that goes through this object, which is how the program itself
        reaches the layer (``manager.device.write_page(...)``).
        """
        for name in names:
            setattr(obj, name, self.wrap(getattr(obj, name)))
