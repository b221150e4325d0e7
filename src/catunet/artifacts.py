"""Crash-safe artifact writes: every file the pipeline produces is written
whole or not at all."""

import os
import secrets


def write_atomic(path: str, data) -> None:
    """Write `data` (bytes, or text as UTF-8) to `path` in one rename.

    The bytes go to a temp file in `path`'s directory that then replaces
    `path`, so a write that fails midway leaves the previous file as it was
    and no temp file behind (no fsync: this guards against the process
    failing, not the machine).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    # not tempfile.mkstemp: its 0600 mode would outlive the rename
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
