"""Callback-chaining helpers for multi-stage activities.

HDFS transfers are pipelines of stages (read a block, then ship it;
write a block at each replica in turn).  :func:`chain` runs a list of
callback-style stages in order; :func:`join` waits for N parallel
completions.  Stages run through the event loop, so no recursion depth
builds up.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

Stage = Callable[[Callable[[], None]], None]


def chain(stages: Sequence[Stage], on_complete: Callable[[], None]) -> None:
    """Run ``stages`` sequentially; each stage receives a ``done`` callback.

    A stage is ``fn(done)`` and must eventually call ``done()`` exactly
    once.  After the final stage, ``on_complete`` fires.
    """
    stages = list(stages)

    def run(index: int) -> None:
        if index >= len(stages):
            on_complete()
            return
        stages[index](lambda: run(index + 1))

    run(0)


class Join:
    """Barrier: fires ``on_complete`` after ``expect()``-ed arms finish.

    Arms may be added while others are already running (used by shuffle,
    where fetches are created as map outputs materialize); call
    :meth:`seal` once no more arms will be added.
    """

    def __init__(self, on_complete: Callable[[], None]) -> None:
        self._on_complete = on_complete
        self._outstanding = 0
        self._sealed = False
        self._fired = False

    def expect(self) -> Callable[[], None]:
        """Register one arm; returns the callback the arm must invoke."""
        if self._fired:
            raise RuntimeError("join already completed")
        self._outstanding += 1
        called = {"done": False}

        def done() -> None:
            if called["done"]:
                raise RuntimeError("join arm completed twice")
            called["done"] = True
            self._outstanding -= 1
            self._maybe_fire()

        return done

    def seal(self) -> None:
        """Declare that no further arms will be registered."""
        self._sealed = True
        self._maybe_fire()

    def _maybe_fire(self) -> None:
        if self._sealed and self._outstanding == 0 and not self._fired:
            self._fired = True
            self._on_complete()


def join(count: int, on_complete: Callable[[], None]) -> List[Callable[[], None]]:
    """Convenience: a sealed :class:`Join` with ``count`` pre-made arms."""
    barrier = Join(on_complete)
    arms = [barrier.expect() for _ in range(count)]
    barrier.seal()
    return arms
