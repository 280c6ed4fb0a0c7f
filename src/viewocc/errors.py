"""Error types shared across the package."""

import contextlib
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


@contextlib.contextmanager
def open_output(path, mode: str = "w", **kwargs):
    """`path` opened for writing, its parent directories made first. An
    OSError on the way, such as a parent that is a regular file, becomes a
    ContractViolation naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc}") from exc
