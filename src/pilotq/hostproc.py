"""Host worker process: runs registered functions sent by the backends' pool.

`backends` starts each of these as `python -m pilotq.hostproc <requests fd>
<replies fd>`, exec'd rather than forked, with two pipes of its own. The
first request frame is the parent's `sys.path`, so functions resolve against
the same source tree; each later one is a pickled `(fn, args, kwargs)`, and
the process answers it with one reply frame before it reads the next. The
function pickles by reference, so this process imports its module on first
use. Standard output stays the inherited one, so a function that prints
cannot corrupt the frames, and it is flushed after every call.

A reply is `(True, result)` or `(False, exception, "Type: message")`. The
exception travels pickled, as None if it does not survive a pickle round
trip; the parent then raises `RuntimeError("Type: message")` instead. The
process ends at the end of its request stream: the parent closes its end at
exit, or the operating system does if the parent dies. SIGINT is ignored,
so a Ctrl-C at the terminal stops the parent only, and the parent then ends
this process.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from pilotq.backends import read_frame, write_frame


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
    try:
        with os.fdopen(requests_fd, "rb") as requests, os.fdopen(replies_fd, "wb") as replies:
            path = read_frame(requests)
            if path is None:
                return
            sys.path[:] = pickle.loads(path)
            while (request := read_frame(requests)) is not None:
                write_frame(replies, _answer(request))
    except BrokenPipeError:  # the parent is gone, and with it the reader of the reply
        pass

if __name__ == "__main__":
    main()
