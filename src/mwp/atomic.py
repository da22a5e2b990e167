"""Atomic file replacement for the artifacts the CLI writes, and the one
reader of the text files it reads.

A file is written under a temporary name in its own directory, which is
created first if it is missing, and moved over the target with
``os.replace`` only once every byte is written, so a reader sees either the
old file or the complete new one, and a write that fails midway leaves the
old file as it was and no temporary file behind. This guards against failed
or interrupted writes, not against power loss: nothing is fsynced.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_file(path: str | Path):
    """A binary file handle whose contents replace ``path`` when the block
    exits without an exception; on an exception nothing is replaced."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    # 0o666 lets the umask set the mode, as a plain open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in UTF-8, atomically."""
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def read_utf8(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """The text of ``path`` decoded as UTF-8; bytes that do not decode raise
    ``error`` with a message naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
