import errno
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import alnet
from alnet.forked import Child, NoAnswer
from conftest import assert_no_child_is_left, fds_left_open


def failing_fork():
    raise BlockingIOError(errno.EAGAIN, "fork: no process slot")


def killed(child):
    os.kill(child.process.pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
@pytest.mark.parametrize(
    "target, duplex, before_answer, started",
    [
        (lambda *args: None, False, None, False),
        (lambda: sys.exit(3), None, None, True),
        (lambda end: os._exit(1), False, None, True),
        (lambda end: time.sleep(60), False, killed, True),
    ],
    ids=["failed-fork", "sys-exit-3", "os-exit-1", "sigkill"],
)
def test_every_lack_of_an_answer_is_one_error(monkeypatch, capfd, target, duplex, before_answer, started):
    with fds_left_open() as left:
        with pytest.raises(NoAnswer) as error:
            with monkeypatch.context() as patched:
                if not started:
                    patched.setattr(os, "fork", failing_fork)
                child = Child(target, duplex=duplex)
            with child:
                if before_answer is not None:
                    before_answer(child)
                if child.pipe is not None:
                    child.recv()
                child.ended()
    assert error.value.started is started
    assert left == {}
    assert_no_child_is_left()
    assert capfd.readouterr() == ("", "")


def test_a_child_ignores_ctrl_c_and_answers(capfd):
    def echo(end):
        end.send(end.recv())

    with Child(echo, duplex=True) as child:
        # Ctrl-C stays blocked in the child until it ignores it, so it may come at once
        os.kill(child.process.pid, signal.SIGINT)
        child.pipe.send("ping")
        assert child.recv() == "ping"
        assert child.ended()
    assert_no_child_is_left()
    assert capfd.readouterr() == ("", "")


def test_importing_the_cli_loads_no_multiprocessing():
    # a run that forks nothing, fig4 say, pays no memory for the module
    env = dict(os.environ, PYTHONPATH=str(Path(alnet.__file__).parents[1]))
    code = "import sys, alnet.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
