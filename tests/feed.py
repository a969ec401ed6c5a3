"""fed, the one writer thread of the pipe and FIFO tests."""

import os
import threading
from contextlib import contextmanager, nullcontext


@contextmanager
def fed(data: bytes, fifo=None):
    """Yield the read end of a new pipe, as a binary file, or, given a
    path, the path of a FIFO made there; a writer thread writes data into
    it and closes its end.  On a normal exit, asserts that the writer has
    finished; the pipe's read end is closed either way."""
    if fifo is None:
        read_fd, write_fd = os.pipe()
        end = open(read_fd, "rb")
    else:
        os.mkfifo(fifo)
        end = nullcontext(fifo)

    def write():
        with open(write_fd if fifo is None else fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with end as reader:
        yield reader
        writer.join(timeout=60)
        assert not writer.is_alive(), "the writer thread has not finished"
