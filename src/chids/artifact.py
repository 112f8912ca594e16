"""How chids opens, decodes, rejects and formats its own files.

Every file chids writes is ASCII text, and every file it reads may be gzip.
`open_text` turns an I/O fault into IoError (exit 3), and damaged gzip data
or bytes that are not ASCII into DataError (exit 4); `parsing` reports a
fault raised while parsing as a DataError. Each names the file, and no
other code puts a file's name into an error. Every tab-separated table
chids writes is formatted by `table_text`.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from contextlib import contextmanager

from .errors import DataError, IoError

GZIP_MAGIC = b"\x1f\x8b"


@contextmanager
def open_text(path, mode: str = "r"):
    """Open the chids file `path` as ASCII text, mode "r" or "w". A file
    read that starts with the gzip magic is decompressed."""
    try:
        with open(path, mode + "b") as raw:
            packed = mode == "r" and raw.peek(2)[:2] == GZIP_MAGIC
            with io.TextIOWrapper(gzip.GzipFile(fileobj=raw) if packed else raw,
                                  encoding="ascii") as fh:
                yield fh
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # BadGzipFile is an OSError
        raise DataError(f"{path}: damaged gzip data: {exc}") from None
    except OSError as exc:
        raise IoError(f"cannot {'write' if 'w' in mode else 'read'} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not ASCII text: {exc.reason}") from None


class parsing:
    """Context manager that names `path` (and `line`, when set) in a fault
    raised while parsing it. A DataError keeps its type and attributes and
    gets the name as a prefix; any other fault becomes one DataError. Wrap
    parsing only, never later work. A UnicodeDecodeError, raised by a file
    read line by line, passes on to `open_text`."""

    def __init__(self, path, line: int | None = None):
        self.path, self.line = path, line

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        where = f"{self.path}" if self.line is None else f"{self.path}: line {self.line}"
        if isinstance(exc, DataError):
            exc.args = (f"{where}: {exc}",)
        elif isinstance(exc, (AttributeError, IndexError, KeyError, OverflowError, TypeError,
                              ValueError)) and not isinstance(exc, UnicodeDecodeError):
            raise DataError(f"{where}: malformed file ({kind.__name__}: {exc})") from None


def read_text(path) -> str:
    with open_text(path) as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open_text(path, "w") as fh:
        fh.write(text)


def json_text(obj) -> str:
    """A chids JSON file: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_parsed(path, parse):
    """`parse` applied to the text of `path`, with its faults reported as
    DataErrors naming the file."""
    text = read_text(path)
    with parsing(path):
        return parse(text)


def table_text(header: str, rows, magic: str | None = None) -> str:
    """A tab-separated table: the `magic` line when given, the `header` row,
    then each row's fields, already `str`, joined by tabs; a final newline."""
    head = [header] if magic is None else [magic, header]
    return "\n".join([*head, *map("\t".join, rows)]) + "\n"


def read_rows(path, magic: str, header: str, row) -> list:
    """`row(*fields)` of each non-blank row of a tab-separated file that
    opens with the `magic` line and the `header` row. Every row has as many
    fields as the header, one starting with `#` included; a fault names the
    row's line. The file is read line by line, and only `\n`, `\r\n` and
    `\r` end a line."""
    n = header.count("\t") + 1
    rows = []
    with open_text(path) as fh, parsing(path) as guard:  # a fault names guard.line
        for guard.line, want in ((1, magic), (2, header)):
            if fh.readline().rstrip("\n") != want:
                raise DataError(f"expected {want!r}")
        for guard.line, ln in enumerate(fh, 3):
            if ln.strip():
                fields = ln.rstrip("\n").split("\t")
                if len(fields) != n:
                    raise DataError(f"expected {n} fields, got {len(fields)}")
                rows.append(row(*fields))
    return rows
