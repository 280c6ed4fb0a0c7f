"""Error types shared across the package."""

import contextlib
import os
import stat
from pathlib import Path


class ContractViolation(ValueError):
    """Raised when an operation's input breaks a documented contract.

    Examples: dimension mismatch between an affine map and its input, a
    non-orthonormal rotation, a non-planar relative pose handed to the BEV
    warp, or a malformed scene/config file. The CLI converts this into a
    JSON diagnostic and a nonzero exit code.
    """


def require(condition: bool, message: str) -> None:
    """Raise ContractViolation with `message` unless `condition` holds."""
    if not condition:
        raise ContractViolation(message)


def _open_in_place(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def open_output(path, mode: str = "w", **kwargs):
    """`path` opened for writing, its parent directories made first. An
    OSError on the way, such as a parent that is a regular file, becomes a
    ContractViolation naming the path.

    An existing file is written over in place and, when it is a regular
    file, cut to the end of what was written once the block ends, also when
    the block raises: truncating a file on open can cost more than writing
    its new bytes. A pipe or a device such as /dev/null is never cut."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode, opener=_open_in_place, **kwargs) as fh:
            try:
                yield fh
            finally:
                fh.flush()
                fd = fh.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc}") from exc
