"""How chids opens, decodes, rejects and formats its own files.

Every file chids writes is ASCII text but the dataset cache, whose arrays
follow a text header, and every file it reads may be gzip. `open_text` and
`open_binary` turn an I/O fault into IoError (exit 3), and damaged gzip
data or text bytes that are not ASCII into DataError (exit 4); `parsing`
reports a fault raised while parsing as a DataError, and `naming` prefixes
a chids error raised by later checks of what a file held. Each names the
file, and no other code puts a file's name into an error. `read_lines` reads
each file of lines, and `finite` parses each number in one and `count` each
count; `read_rows` reads the rows of a tab-separated table a block at a
time, `table_text` formats each tab-separated table chids writes, a block
of rows at a time, and `write_text` writes a file piece by piece.
`write_binary` writes arrays straight from their buffers, and `read_into`
reads them back straight into theirs, after `bytes_left` has said whether
the file holds them.
"""

from __future__ import annotations

import gzip
import io
import itertools
import json
import math
import os
import zlib
from contextlib import contextmanager

from .errors import ChidsError, DataError, IoError

GZIP_MAGIC = b"\x1f\x8b"
# Rows per piece of a table or a record file chids writes: each piece is
# formatted and written on its own, so a file costs the same memory at any
# length.
BLOCK_ROWS = 1024
# Rows `read_rows` parses together: a block is split and built at once, and
# its transient copies stay a few KB whatever the file's length.
_BLOCK_ROWS = 32
# What `parsing` reports as a malformed file, and `read_rows` rebuilds row
# by row to name the row that raised it. `json.loads` raises RecursionError
# on arrays nested too deep.
_PARSE_FAULTS = (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError,
                 ValueError)
# Bytes a binary read moves at a time: a gzip file copies each piece once.
_READ_BYTES = 1 << 14


@contextmanager
def open_binary(path, mode: str = "r"):
    """Open the chids file `path` as bytes, mode "r" or "w". A file read
    that starts with the gzip magic is decompressed."""
    try:
        with open(path, mode + "b") as raw:
            packed = mode == "r" and raw.peek(2)[:2] == GZIP_MAGIC
            with gzip.GzipFile(fileobj=raw) if packed else raw as fh:
                yield fh
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # BadGzipFile is an OSError
        raise DataError(f"{path}: damaged gzip data: {exc}") from None
    except OSError as exc:
        raise IoError(f"cannot {'write' if 'w' in mode else 'read'} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not ASCII text: {exc.reason}") from None


@contextmanager
def open_text(path, mode: str = "r"):
    """Open the chids file `path` as ASCII text, like `open_binary`."""
    with open_binary(path, mode) as fh, io.TextIOWrapper(fh, encoding="ascii") as text:
        yield text


class parsing:
    """Context manager that names `path` (and `line`, when set; `numbered`
    keeps it at the line being read) in a fault raised while parsing it. A
    chids error keeps its type and attributes and gets the name as a prefix;
    any other fault becomes one DataError. Wrap parsing only, never later
    work. A UnicodeDecodeError, raised by a file read line by line, passes
    on to `open_text`."""

    def __init__(self, path, line: int | None = None):
        self.path, self.line = path, line

    def __enter__(self):
        return self

    def numbered(self, lines):
        for line in lines:
            yield line.rstrip("\n")
            self.line += 1

    def __exit__(self, kind, exc, tb):
        where = f"{self.path}" if self.line is None else f"{self.path}: line {self.line}"
        if isinstance(exc, ChidsError):
            exc.args = (f"{where}: {exc}",)
        elif isinstance(exc, _PARSE_FAULTS) and not isinstance(exc, UnicodeDecodeError):
            raise DataError(f"{where}: malformed file ({kind.__name__}: {exc})") from None


@contextmanager
def naming(path):
    """Context manager that names `path` in a chids error raised inside; the
    error keeps its type and exit code, and any other fault passes on as it
    is. For checks of what a file held after it was read and closed."""
    try:
        yield
    except ChidsError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_text(path, text) -> None:
    """Write the chids file `path`: `text` is its whole text, or an iterable
    of the pieces of it, written one at a time."""
    with open_text(path, "w") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def write_binary(path, pieces) -> None:
    """Write the chids file `path` from `pieces`, each bytes or a contiguous
    array, written one at a time straight from its buffer."""
    with open_binary(path, "w") as fh:
        fh.writelines(pieces)


def bytes_left(fh) -> int:
    """How many bytes `fh`, from `open_binary`, holds after its position: a
    plain file's size says; a gzip file is decompressed to its end to count
    them, a piece at a time, and then read again up to the position."""
    here = fh.tell()
    if not isinstance(fh, gzip.GzipFile):
        return os.fstat(fh.fileno()).st_size - here
    n = 0
    while piece := fh.read(_READ_BYTES):
        n += len(piece)
    fh.seek(here)
    return n


def read_into(fh, arr) -> None:
    """Fill the contiguous array `arr` with the next bytes of `fh`, read
    straight into its buffer; a file that ends first is a DataError."""
    view = memoryview(arr.reshape(-1).view("u1"))
    at = 0
    while at < len(view):
        got = fh.readinto(view[at:at + _READ_BYTES])
        if not got:
            raise DataError(f"the file ends {len(view) - at} bytes early")
        at += got


def json_text(obj) -> str:
    """A chids JSON file: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_parsed(path, parse):
    """`parse` applied to the text of `path`, with its faults reported as
    DataErrors naming the file."""
    with open_text(path) as fh, parsing(path):
        return parse(fh.read())


def read_lines(path, parse):
    """`parse` applied to an iterator over the lines of `path`, read as it
    goes, each without its line end: only `\n`, `\r\n` and `\r` end one. A
    fault in `parse` names the file and the line last read (once the lines
    run out, the line after the last)."""
    with open_text(path) as fh, parsing(path, 1) as guard:
        return parse(guard.numbered(fh))


def finite(text: str) -> float:
    """The number `text`: finite, with nothing around it (`float` skips
    spaces and control characters, which chids never writes there)."""
    value = float(text)
    if not math.isfinite(value) or text != text.strip():
        raise DataError(f"{text!r} is not a finite number")
    return value


def count(text: str) -> int:
    """The count `text`: ASCII digits, with nothing around them (`int` also
    takes a sign, `_` between digits, and spaces and control characters
    around them, which chids never writes)."""
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"{text!r} is not a count")
    return int(text)


def table_text(header: str, rows, magic: str | None = None):
    """A tab-separated table, as pieces of text for `write_text`: the `magic`
    line when given and the `header` row, then each row's fields, already
    `str`, joined by tabs, BLOCK_ROWS rows to a piece. Every line ends in a
    newline."""
    yield header + "\n" if magic is None else f"{magic}\n{header}\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        yield "".join(["\t".join(row) + "\n" for row in block])


def read_rows(path, magic: str, header: str, build) -> list:
    """The items `build` makes of the non-blank rows of a tab-separated file
    that opens with the `magic` line and the `header` row. `build(fields)`
    takes the fields of one or more whole rows, row after row, and returns
    one item per row. Every row has as many fields as the header, one
    starting with `#` included; a fault names the row's line.

    Rows are read _BLOCK_ROWS at a time. A block whose rows are all
    non-blank and all have the header's field count is split and built at
    once; any other block, or one whose build raises, is built row by row,
    so that a fault names its own row's line."""
    n = header.count("\t") + 1
    tabs = itertools.repeat("\t")
    out = []
    with open_text(path) as fh, parsing(path, 1) as guard:
        for want in (magic, header):
            if next(fh, "").rstrip("\n") != want:
                raise DataError(f"expected {want!r}")
            guard.line += 1
        while rows := list(itertools.islice(fh, _BLOCK_ROWS)):
            counts = list(map(str.count, rows, tabs))
            if min(counts) == max(counts) == n - 1 and not any(map(str.isspace, rows)):
                fields = "".join(rows).replace("\n", "\t").split("\t")
                del fields[n * len(rows):]  # the empty text after a last line end
                try:
                    out += build(fields)
                    guard.line += len(rows)
                    continue
                except (ChidsError, *_PARSE_FAULTS):
                    pass  # built again below, a row at a time
            for row in rows:
                if not row.isspace():  # a line read from a file is never empty
                    fields = row.rstrip("\n").split("\t")
                    if len(fields) != n:
                        raise DataError(f"expected {n} fields, got {len(fields)}")
                    out += build(fields)
                guard.line += 1
    return out
