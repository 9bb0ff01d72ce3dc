"""Forked helper processes: one lifecycle for every child that works beside a run.

``Child`` runs ``target(*args)`` in a started, daemonic fork-context
``multiprocessing.Process``, with its end of an optional ``Pipe`` last;
the arguments pass through the fork, not through pickle.  Ctrl-C is
blocked across the fork and ignored in the child, so a Ctrl-C sent to the
process group reaches the parent alone.  ``multiprocessing`` flushes stdio
before the fork and ends the child through ``os._exit``, so the child
prints none of the parent's output.  A pipe that ends under the child ends
it quietly.  A failed fork, a pipe that ends under the parent and a
nonzero exit raise ``NoAnswer``.
"""

from __future__ import annotations

import contextlib
import os
import signal

# the fewest sites for three uses, on 2 vCPUs, where a fork costs the run about 7 ms, its start
# and the copy-on-write faults after it:
# * a state whose snapshot rows ``io`` hands to forked formatters: on runs as long as fig4's
#   (16k steps) a formatter lost at 1200 sites and broke even from 6000 to 12000, and on
#   big-star's 400-step runs it won from 1200 sites up;
# * a window whose far tails ``dynamics.evolve`` hands to a forked stepper: big-star's windows
#   of 20k to 60k sites stepped 1.21 times as many sites a second;
# * the size below which a stack splits by runs, so that a stack's child never runs beside a
#   far-tail child: a third process on two CPUs made the sweep slower than one
FORK_SITES = 20000


class NoAnswer(RuntimeError):
    """A child that gave no answer; ``started`` is False where the fork itself failed."""

    def __init__(self, message: str, started: bool = True):
        super().__init__(message)
        self.started = started


def fits() -> bool:
    """Whether a child can run beside the integration: ``os.fork``, two usable CPUs, and a process
    that may have children, which a daemonic ``multiprocessing`` process may not."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return False
    import multiprocessing  # here, so that ``import alnet`` does not load it

    return not multiprocessing.current_process().daemon


def _in_child(target, args: tuple, ends: tuple) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    if ends:
        ends[0].close()  # else the child holds its own pipe open and never sees its end
    with contextlib.suppress(EOFError, ConnectionError):
        target(*args, *ends[1:])


def _close_sentinels(tb) -> None:
    """Close the two pipes that CPython's fork ``Popen._launch`` opens before ``os.fork`` and leaves
    open when the fork raises; a no-op where its frame is not in the traceback ``tb``."""
    from multiprocessing.popen_fork import Popen

    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        if frame.f_code is Popen._launch.__code__:
            for name in ("parent_r", "child_w", "child_r", "parent_w"):
                with contextlib.suppress(KeyError, OSError):
                    os.close(frame.f_locals[name])


class Child(contextlib.AbstractContextManager):
    """``target(*args)`` in a forked child, on a new ``Pipe`` unless ``duplex`` is None.

    With ``duplex`` False the child writes and the parent reads the pipe,
    whose parent's end is ``pipe``.  A failed fork leaves no descriptor open.
    """

    def __init__(self, target, *args, duplex: bool | None = None):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        ends = () if duplex is None else context.Pipe(duplex)
        self.pipe = ends[0] if ends else None
        self.process = context.Process(target=_in_child, args=(target, args, ends), daemon=True)
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.process.start()
        except BaseException as exc:
            _close_sentinels(exc.__traceback__)
            if self.pipe is not None:
                self.pipe.close()
            if isinstance(exc, OSError):
                raise NoAnswer(f"no child could be forked: {exc}", started=False) from None
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            if ends:
                ends[1].close()

    def recv(self, into=None):
        """The child's next object, or its next bytes written into the buffer ``into``."""
        try:
            return self.pipe.recv() if into is None else self.pipe.recv_bytes_into(into)
        except (EOFError, ConnectionError):  # ConnectionResetError: a child killed with data unread
            raise NoAnswer(f"the child (pid {self.process.pid}) ended before its answer") from None

    def ended(self, wait: bool = True) -> bool:
        """Whether the child has ended, after waiting for it if ``wait``; a nonzero exit raises NoAnswer."""
        if wait:
            self.process.join()
        if self.process.exitcode:
            raise NoAnswer(f"the child (pid {self.process.pid}) exited with {self.process.exitcode}")
        return self.process.exitcode == 0

    def close(self) -> None:
        """Close the pipe, end the child and reap it, as the end of a ``with`` block does; once only."""
        if self.process is not None:
            process, self.process = self.process, None
            if self.pipe is not None:
                self.pipe.close()
            process.terminate()  # a no-op once it has ended
            process.join()
            process.close()

    def __exit__(self, *exc) -> None:
        self.close()
