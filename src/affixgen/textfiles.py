"""How affixgen reads and writes its text files.

Every input is UTF-8 text, with or without a byte-order mark, whose lines
end at ``\\n``, ``\\r\\n`` or ``\\r``. ``lines`` yields a file's non-blank
lines with their numbers and ``read_text`` returns the whole file; both
raise ValueError naming the file on bytes that are not UTF-8. No Unicode
normalization is applied. Every output is written through ``replacing``:
to a temporary file beside its target, renamed over the target once the
write completes, so a failed write leaves the target as it was.

Snapshot files are read by ``corpus.read_snapshot`` alone, under a stricter
contract of their own.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

_ENCODING = "utf-8-sig"  # reads UTF-8, dropping a leading byte-order mark


def lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of ``path``, without its line end, and its line number from 1."""
    with open(path, encoding=_ENCODING) as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                if line.strip():
                    yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def read_text(path: str | Path) -> str:
    """The whole of ``path``, its line ends read as ``\\n``."""
    with open(path, encoding=_ENCODING) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    return ValueError(f"{path}: not UTF-8 text: {exc}")


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on ``.{name}.{pid}.tmp`` beside ``path``, renamed over ``path`` at the end.

    ``mode`` is ``"w"`` for UTF-8 text or ``"wb"`` for bytes. If the block
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding="utf-8" if mode == "w" else None) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
