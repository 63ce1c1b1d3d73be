"""Host worker process: runs the registered functions sent to one host core.

`backends` starts one of these per core, on the core's first call, exec'd
rather than forked: a `python -c` command that puts the parent's `sys.path`
in place, so functions resolve against the same source tree, and then calls
`main` with the fds of two pipes of its own, which carry
`multiprocessing.connection.Connection` messages. Each request is a pickled
`(fn, args, kwargs)`, and the process answers it with one reply before it
reads the next. The function pickles by reference, so this process imports
its module on first use, inside the call: a function that cannot be loaded
fails its task, not this process. Standard output stays the inherited one,
so a function that prints cannot corrupt the messages, and it is flushed
after every call.

A reply is `(True, result)` or `(False, exception, "Type: message")`. The
exception travels pickled, as None if it does not survive a pickle round
trip; the parent then raises `RuntimeError("Type: message")` instead. A
process that cannot import this module answers its first request, from
the boot command, with `(None, "Type: message")` and exits. The process
ends at the end of its request stream (`EOFError` or `OSError`): the parent
closes its end at exit, or the operating system does if the parent dies.
SIGINT is ignored, so a Ctrl-C at the terminal stops the parent only, and
the parent then ends this process.
"""

from __future__ import annotations

import pickle
import signal
import sys
from contextlib import suppress
from multiprocessing.connection import Connection


def _portable(exc: Exception) -> bytes | None:
    """`exc` pickled, or None if it does not come back out of a pickle."""
    try:
        data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception:
        return None
    return data


def _answer(request: bytes) -> bytes:
    try:
        fn, args, kwargs = pickle.loads(request)
        return pickle.dumps((True, fn(*args, **kwargs)), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # the call's failure belongs to its task, not to this process
        return pickle.dumps(
            (False, _portable(exc), f"{type(exc).__name__}: {exc}"), pickle.HIGHEST_PROTOCOL
        )
    finally:
        sys.stdout.flush()


def main() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests_fd, replies_fd = (int(arg) for arg in sys.argv[1:3])
    requests = Connection(requests_fd, writable=False)
    replies = Connection(replies_fd, readable=False)
    # a reply stream ends too once the parent, its reader, is gone
    with suppress(EOFError, OSError), requests, replies:
        while True:
            replies.send_bytes(_answer(requests.recv_bytes()))
