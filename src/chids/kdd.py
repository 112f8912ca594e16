"""KDD-format connection records: feature schema, parsing, class taxonomy, datasets.

A record is one line of 41 comma-separated feature values plus a label
(optionally suffixed with a period). Datasets are held columnar: numeric
features in one float64 matrix, nominal features as integer codes into
per-feature symbol domains that grow in first-sighting order during ingest.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import re
import zlib
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import artifact
from .errors import (
    DataError,
    DatasetParseError,
    FieldCountMismatch,
    NumericParseError,
    SchemaMismatch,
    UnknownLabel,
    UnknownNominalSymbol,
)
from .sections import FEATURE_TABLE, NOMINAL, NUMERIC, AttackClass

N_CLASSES = len(AttackClass)
# a nominal symbol a model file can hold: not empty, no whitespace or comma
SYMBOL_RE = re.compile(r"[^\s,]+")


class FeatureSchema:
    """Ordered (name, kind) feature pairs plus mutable nominal symbol domains.

    Every feature is numeric or nominal, and no domain repeats a symbol.
    Domains grow in first-sighting order during ingest; a cache read keeps
    them fixed and rejects codes outside them.
    """

    def __init__(self, features: Sequence[tuple[str, str]], domains: dict[str, list[str]] | None = None):
        self.features: tuple[tuple[str, str], ...] = tuple((name, kind) for name, kind in features)
        self.names: tuple[str, ...] = tuple(name for name, _ in self.features)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        if any(kind not in (NUMERIC, NOMINAL) for _, kind in self.features):
            raise ValueError(f"feature kinds must be {NUMERIC!r} or {NOMINAL!r}")
        if not all(isinstance(name, str) for name in self.names):
            raise ValueError("feature names must be strings")
        self.numeric_names: tuple[str, ...] = tuple(n for n, k in self.features if k == NUMERIC)
        self.nominal_names: tuple[str, ...] = tuple(n for n, k in self.features if k == NOMINAL)
        # name -> (kind, column slot within the numeric or nominal matrix)
        self.slot: dict[str, tuple[str, int]] = {n: (NUMERIC, j) for j, n in enumerate(self.numeric_names)}
        self.slot.update((n, (NOMINAL, j)) for j, n in enumerate(self.nominal_names))
        self.domains: dict[str, list[str]] = {n: [] for n in self.nominal_names}
        if domains:
            for name, syms in domains.items():
                if name in self.domains:
                    if not (isinstance(syms, list) and all(isinstance(sym, str) for sym in syms)):
                        raise ValueError(f"feature {name}: domain is not a list of strings")
                    if len(set(syms)) != len(syms):
                        raise ValueError(f"feature {name}: domain repeats a symbol")
                    self.domains[name] = list(syms)
        self._codes: dict[str, dict[str, int]] = {
            n: {s: i for i, s in enumerate(d)} for n, d in self.domains.items()
        }

    @classmethod
    def default(cls) -> "FeatureSchema":
        return cls(FEATURE_TABLE)

    def code(self, name: str, symbol: str, add: bool = False) -> int:
        """Code of `symbol` in `name`'s domain; -1 if absent, appended when add=True."""
        codes = self._codes[name]
        c = codes.get(symbol, -1)
        if c < 0 and add:
            c = len(self.domains[name])
            self.domains[name].append(symbol)
            codes[symbol] = c
        return c

    def subset(self, keep: Sequence[str]) -> "FeatureSchema":
        """New schema with only `keep` features, in original order."""
        keep = set(keep)
        return FeatureSchema([f for f in self.features if f[0] in keep],
                             {n: d for n, d in self.domains.items() if n in keep})

    def to_json_obj(self) -> dict:
        return {"features": self.features, "domains": self.domains}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FeatureSchema":
        return cls(obj["features"], obj.get("domains", {}))


class ClassTaxonomy:
    """Total mapping from the 23 raw labels onto the five classes."""

    def __init__(self, members: dict[AttackClass, Sequence[str]]):
        self.members = {c: tuple(members.get(c, ())) for c in AttackClass}
        self.label_class: dict[str, AttackClass] = {}
        for cls_, labels in self.members.items():
            for lab in labels:
                lab = lab.lower()
                if lab in self.label_class:
                    raise ValueError(f"label {lab!r} mapped twice")
                self.label_class[lab] = cls_

    def classify(self, label: str) -> AttackClass:
        cls_ = self.label_class.get(label.lower())
        if cls_ is None:
            raise UnknownLabel(f"unknown label {label!r}")
        return cls_


DEFAULT_TAXONOMY = ClassTaxonomy(
    {
        AttackClass.NORMAL: ("normal",),
        AttackClass.DOS: ("back", "land", "neptune", "pod", "smurf", "teardrop"),
        AttackClass.PROBE: ("ipsweep", "nmap", "portsweep", "satan"),
        AttackClass.R2L: (
            "ftp_write",
            "guess_passwd",
            "imap",
            "multihop",
            "phf",
            "spy",
            "warezclient",
            "warezmaster",
        ),
        AttackClass.U2R: ("buffer_overflow", "loadmodule", "perl", "rootkit"),
    }
)


def _label(raw: str) -> str:
    """A raw label's normal form: stripped, lower-case, one trailing period dropped."""
    label = raw.strip().lower()
    return label[:-1] if label.endswith(".") else label


def classify_label(label: str) -> AttackClass:
    """Class of a raw label (case-insensitive, trailing period tolerated)."""
    return DEFAULT_TAXONOMY.classify(_label(label))


class KddRecord(NamedTuple):
    """One connection sample: 41 typed values plus the raw label.

    Numeric values are floats, nominal values their symbol strings. `label`
    is None for unlabeled records (only produced when explicitly allowed).
    """

    values: tuple
    label: str | None


def parse_record(
    line: str,
    schema: FeatureSchema,
    strict: bool = False,
    allow_unlabeled: bool = False,
) -> KddRecord:
    """Parse one comma-separated record line.

    Labels are lower-cased and stripped of a trailing period. In strict mode
    a nominal symbol outside the schema's domain is an error; otherwise it is
    appended to the domain, unless SYMBOL_RE refuses it, as the raw reader
    does.
    """
    fields = line.rstrip("\r\n").split(",")
    n = len(schema.names)
    if len(fields) == n + 1:
        label: str | None = _label(fields[n])
    elif allow_unlabeled and len(fields) == n:
        label = None
    else:
        raise FieldCountMismatch(f"expected {n + 1} fields, got {len(fields)}")
    values = []
    for index, ((name, kind), raw) in enumerate(zip(schema.features, fields)):
        raw = raw.strip()
        if kind == NUMERIC:
            try:
                v = float(raw)
            except ValueError:
                raise NumericParseError(index, raw) from None
            if not math.isfinite(v):
                raise NumericParseError(index, raw)
            values.append(v)
        else:
            if schema.code(name, raw) < 0:
                if strict:
                    raise UnknownNominalSymbol(f"feature {name}: unknown symbol {raw!r}")
                if not SYMBOL_RE.fullmatch(raw):
                    raise DataError(f"feature {index}: symbol {raw!r} is empty or has whitespace in it")
                schema.code(name, raw, add=True)
            values.append(raw)
    return KddRecord(tuple(values), label)


class Dataset:
    """Columnar record store bound to a schema and a taxonomy.

    `numeric` is (n, numeric features) float64, `nominal` (n, nominal features) int32 codes
    into the schema domains, `class_codes` int32 AttackClass values (-1 marks
    an unlabeled record). Instances are treated as immutable.

    A dataset read from raw record lines holds one row per distinct line
    text; `line_rows` then gives the row of every line it was read from, in
    line order, and `take(line_rows)` is one row per line. It is None for a
    cache and for a dataset built in code.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        numeric: np.ndarray,
        nominal: np.ndarray,
        labels: np.ndarray,
        class_codes: np.ndarray,
        taxonomy: ClassTaxonomy = DEFAULT_TAXONOMY,
    ):
        self.schema = schema
        self.labels = np.asarray(labels, dtype=object)
        n = len(self.labels)
        self.numeric = np.asarray(numeric, dtype=np.float64).reshape(n, len(schema.numeric_names))
        self.nominal = np.asarray(nominal, dtype=np.int32).reshape(n, len(schema.nominal_names))
        self.class_codes = np.asarray(class_codes, dtype=np.int32)
        self.taxonomy = taxonomy
        self.parse_errors: list[tuple[int, str]] = []
        self.line_rows: np.ndarray | None = None
        if not (len(self.labels) == len(self.class_codes) == self.numeric.shape[0] == self.nominal.shape[0]):
            raise ValueError("column length mismatch")

    def __len__(self) -> int:
        return self.numeric.shape[0]

    def class_histogram(self) -> dict[AttackClass, int]:
        labeled = self.class_codes[self.class_codes >= 0]
        counts = np.bincount(labeled, minlength=N_CLASSES)
        return {c: int(counts[c]) for c in AttackClass}

    def column(self, name: str) -> np.ndarray:
        kind, j = self.schema.slot[name]
        return self.numeric[:, j] if kind == NUMERIC else self.nominal[:, j]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.schema,
            self.numeric[idx],
            self.nominal[idx],
            self.labels[idx],
            self.class_codes[idx],
            self.taxonomy,
        )

    @classmethod
    def from_records(
        cls,
        records: Iterable[KddRecord],
        schema: FeatureSchema | None = None,
        taxonomy: ClassTaxonomy = DEFAULT_TAXONOMY,
    ) -> "Dataset":
        schema = schema if schema is not None else FeatureSchema.default()
        records = list(records)
        n = len(records)
        numeric = np.zeros((n, len(schema.numeric_names)))
        nominal = np.zeros((n, len(schema.nominal_names)), dtype=np.int32)
        labels = np.empty(n, dtype=object)
        codes = np.full(n, -1, dtype=np.int32)
        for i, r in enumerate(records):
            if len(r.values) != len(schema.names):
                raise SchemaMismatch(f"record {i}: {len(r.values)} values vs {len(schema.names)} features")
            for name, v in zip(schema.names, r.values):
                kind, j = schema.slot[name]
                if kind == NUMERIC:
                    numeric[i, j] = float(v)
                else:
                    nominal[i, j] = schema.code(name, str(v), add=True)
            labels[i] = r.label
            if r.label is not None:
                codes[i] = int(taxonomy.classify(r.label))
        return cls(schema, numeric, nominal, labels, codes, taxonomy)


# Lines per chunk for the record reader; small chunks keep the split fields
# in cache and bound the transient memory.
_CHUNK_ROWS = 256


def _room(arr: np.ndarray, rows: int) -> None:
    """Let `arr` hold `rows` rows, growing it in place by at least an eighth
    (realloc, which may move its data: the reader keeps no view of it)."""
    if rows > len(arr):
        arr.resize((max(rows, len(arr) + len(arr) // 8), *arr.shape[1:]), refcheck=False)


def _read_records(
    fh,
    schema: FeatureSchema,
    *,
    labels_optional: bool = False,
    error_budget: int = 0,
    chunk_lines: int = _CHUNK_ROWS,
) -> Dataset:
    """Parse the raw record lines left in `fh` into a Dataset, one chunk at a time.

    Every non-blank line maps to the id of its text, and only a new text is
    parsed: raw record lines repeat. A new text is split once; the chunk's
    new texts are then converted column by column, with fields
    whitespace-stripped and nominal symbols coded straight into the schema's
    domains in first-sighting order. Each chunk's good rows are written into
    the next rows of numeric and nominal arrays that grow in place, so no
    second copy of the rows is made, and the text table is dropped before
    the dataset is assembled.

    Lines need the label field; with `labels_optional`, lines without it
    and labels outside DEFAULT_TAXONOMY are unlabeled records. A text with
    a nominal symbol new to its domain that SYMBOL_RE refuses is bad, and
    none of its symbols enters a domain. Every bad text is dropped. Its
    error is kept on `dataset.parse_errors` for each of its lines, in line
    order, and the (error_budget + 1)-th raises DatasetParseError.

    The dataset holds one row per good text, in first-occurrence order, and
    `line_rows` gives the row of every good line.
    """
    n = len(schema.names)
    num_idx = [schema.names.index(name) for name in schema.numeric_names]
    nom_idx = [schema.names.index(name) for name in schema.nominal_names]
    numeric = np.empty((0, len(num_idx)))
    nominal = np.empty((0, len(nom_idx)), dtype=np.int32)
    n_rows = 0
    labels: list[str | None] = []
    class_codes: list[int] = []
    errors: list[tuple[int, str]] = []
    text_id: dict[str, int] = {}  # raw line text -> text id, in first-occurrence order
    n_texts = 0
    line_texts = np.empty(0, dtype=np.int64)  # the text id of every non-blank line
    n_lines = 0
    text_error: dict[int, str] = {}  # text id of a bad text -> its message
    line_no = 0
    while True:
        try:
            lines = list(itertools.islice(fh, chunk_lines))
        except UnicodeDecodeError as exc:
            raise DataError(f"line {line_no + 1} or later is not ASCII text: {exc.reason}") from None
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise DataError(f"line {line_no + 1} or later is damaged gzip data: {exc}") from None
        if not lines:
            break
        seen = []  # (line number, text id) of every non-blank line
        rows, ids = [], []  # fields and text id of each new text
        for raw in lines:
            line_no += 1
            if raw.isspace():
                continue
            t = text_id.setdefault(raw, n_texts)
            seen.append((line_no, t))
            if t < n_texts:
                continue
            n_texts += 1
            fields = raw.split(",")
            if len(fields) != n + 1:
                if len(fields) == n and labels_optional:
                    fields.append(None)
                else:
                    text_error[t] = f"expected {n + 1} fields, got {len(fields)}"
                    continue
            rows.append(fields)
            ids.append(t)
        cols = list(zip(*rows)) if rows else [()] * (n + 1)

        start, stop = n_rows, n_rows + len(rows)
        _room(numeric, stop)
        _room(nominal, stop)
        for j, k in enumerate(num_idx):
            try:
                numeric[start:stop, j] = list(map(float, cols[k]))
            except ValueError:
                vals = []
                for i, raw in enumerate(cols[k]):
                    try:
                        vals.append(float(raw))
                    except ValueError:
                        text_error.setdefault(ids[i], f"feature {k}: not a number: {raw.strip()!r}")
                        vals.append(math.nan)
                numeric[start:stop, j] = vals
        for i, j in zip(*np.nonzero(~np.isfinite(numeric[start:stop]))):
            text_error.setdefault(ids[i], f"feature {num_idx[j]}: not finite")

        label_of: dict = {None: None}
        code_of: dict = {None: -1}
        for raw in dict.fromkeys(cols[n]):
            if raw is None:
                continue
            lab = _label(raw)
            cls_ = DEFAULT_TAXONOMY.label_class.get(lab)
            if cls_ is not None:
                label_of[raw], code_of[raw] = lab, int(cls_)
            elif labels_optional:
                label_of[raw], code_of[raw] = None, -1
            else:
                for i, r in enumerate(cols[n]):
                    if r == raw:
                        text_error.setdefault(ids[i], f"unknown label {lab!r}")

        # a symbol new to its domain must be one a model file can hold
        for name, k in zip(schema.nominal_names, nom_idx):
            for raw in dict.fromkeys(cols[k]):
                sym = raw.strip()
                if schema.code(name, sym) < 0 and not SYMBOL_RE.fullmatch(sym):
                    bad = f"feature {k}: symbol {sym!r} is empty or has whitespace in it"
                    for i, r in enumerate(cols[k]):
                        if r == raw:
                            text_error.setdefault(ids[i], bad)

        if text_error:
            errors += [(no, text_error[t]) for no, t in seen if t in text_error]
            if len(errors) > error_budget:
                raise DatasetParseError(errors[: error_budget + 1])
            keep = [i for i, t in enumerate(ids) if t not in text_error]
            if len(keep) < len(ids):
                stop = start + len(keep)
                numeric[start:stop] = numeric[start:start + len(ids)][keep]
                cols = [[col[i] for i in keep] for col in cols]
        for j, (name, k) in enumerate(zip(schema.nominal_names, nom_idx)):
            sym_code = {raw: schema.code(name, raw.strip(), add=True)
                        for raw in dict.fromkeys(cols[k])}
            nominal[start:stop, j] = list(map(sym_code.__getitem__, cols[k]))
        n_rows = stop
        labels += map(label_of.__getitem__, cols[n])
        class_codes += map(code_of.__getitem__, cols[n])
        _room(line_texts, n_lines + len(seen))
        line_texts[n_lines:n_lines + len(seen)] = [t for _, t in seen]
        n_lines += len(seen)

    del text_id  # read to the end: the texts go before the dataset is assembled
    for arr, size in ((numeric, n_rows), (nominal, n_rows), (line_texts, n_lines)):
        arr.resize((size, *arr.shape[1:]), refcheck=False)
    ds = Dataset(schema, numeric, nominal, np.array(labels, dtype=object),
                 np.array(class_codes, dtype=np.int32))
    if text_error:  # a good line's row counts the good texts before its own
        bad_text = np.zeros(n_texts, dtype=bool)
        bad_text[list(text_error)] = True
        line_texts = (np.cumsum(~bad_text) - 1)[line_texts[~bad_text[line_texts]]]
    ds.line_rows = line_texts
    ds.parse_errors = errors
    return ds


def load_dataset(path, error_budget: int = 100, labels_optional: bool = False) -> Dataset:
    """Load a KDD-format file (plain or gzip) into a columnar Dataset on the
    default schema, whose domains grow in first-sighting order. The dataset
    holds one row per distinct line text; its `line_rows` maps every good
    line to its row.

    Bad lines are collected with their line numbers and skipped; once more
    than `error_budget` accumulate the load aborts with DatasetParseError.
    Surviving errors are kept on `dataset.parse_errors`. With
    `labels_optional`, 41-field lines and labels outside the taxonomy load
    as unlabeled records instead of bad lines.
    """
    with artifact.open_text(path) as fh, artifact.parsing(path):
        return _read_records(fh, FeatureSchema.default(), labels_optional=labels_optional,
                             error_budget=error_budget)


_CACHE_TAG = b"#chids-dataset"  # the first word of a dataset cache of any version
CACHE_MAGIC = _CACHE_TAG + b" v2\n"
_HEADER_KEYS = {"schema", "rows", "labels"}


def save_cache(ds: Dataset, path) -> None:
    """Write a dataset to the versioned binary cache format.

    After the magic line, one ASCII JSON line holds the schema, the row
    count and the table of distinct labels in first-occurrence order. Three
    little-endian arrays follow: the numeric values (`<f8`, rows x numeric
    features), the nominal codes (`<i4`, rows x nominal features) and each
    row's index into the label table (`<i4`, -1 for an unlabeled row). The
    value arrays are written straight from their buffers, so every value,
    `-0.0` included, reads back bit for bit; the label indices are built
    and written `artifact.BLOCK_ROWS` rows at a time.
    """
    blocks = range(0, len(ds), artifact.BLOCK_ROWS)
    table: dict = {None: -1}  # label -> its index in the header's table
    for start in blocks:
        for label in ds.labels[start:start + artifact.BLOCK_ROWS].tolist():
            table.setdefault(label, len(table) - 1)
    header = {"schema": ds.schema.to_json_obj(), "rows": len(ds), "labels": list(table)[1:]}

    def pieces():
        yield CACHE_MAGIC
        yield (json.dumps(header, separators=(",", ":")) + "\n").encode("ascii")
        yield np.ascontiguousarray(ds.numeric, dtype="<f8")
        yield np.ascontiguousarray(ds.nominal, dtype="<i4")
        for start in blocks:
            labels = ds.labels[start:start + artifact.BLOCK_ROWS].tolist()
            yield np.array(list(map(table.__getitem__, labels)), dtype="<i4")

    artifact.write_binary(path, pieces())


def _outside(values: np.ndarray, low, high):
    """The index of the first of `values` outside [low, high], or None. Two
    reductions, which copy nothing, check the bounds; nan passes neither."""
    if values.size and not (values.min() >= low and values.max() <= high):
        return tuple(np.argwhere(~((values >= low) & (values <= high)))[0])
    return None


def load_cache(path) -> Dataset:
    """Read a cache written by save_cache. Its domains are fixed, unlabeled
    rows are allowed, and anything save_cache would not have written
    raises DataError.

    The header is checked first: its keys, the schema (as line 2), the row
    count and every label, which must be in the taxonomy. The bytes left
    are then counted against what the row count needs, before any array
    is sized from it, and each array is read straight into its buffer.
    Every numeric value must be finite, every nominal code inside its
    domain and every label index inside the table.
    """
    with artifact.open_binary(path) as fh, artifact.parsing(path, 1) as guard:
        magic = fh.readline(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            if magic.startswith(_CACHE_TAG + b" v1"):
                raise DataError("a version 1 dataset cache: `chids preprocess` rewrites it")
            raise DataError(f"not a chids dataset cache (got {magic!r})")
        guard.line = 2
        header = json.loads(fh.readline().decode("ascii"))
        if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
            raise DataError(f"the header is not an object with the keys {sorted(_HEADER_KEYS)}")
        schema = FeatureSchema.from_json_obj(header["schema"])
        n, table = header["rows"], header["labels"]
        if type(n) is not int or n < 0:
            raise DataError(f"rows {n!r} is not a count")
        if not isinstance(table, list) or not all(isinstance(label, str) for label in table):
            raise DataError("labels is not a list of strings")
        table = [_label(label) for label in table]
        table_codes = [int(DEFAULT_TAXONOMY.classify(label)) for label in table]

        guard.line = None  # the arrays have no lines
        shape = (len(schema.numeric_names), len(schema.nominal_names))
        need = n * (8 * shape[0] + 4 * shape[1] + 4)
        have = artifact.bytes_left(fh)
        if have != need:
            raise DataError(f"{n} rows take {need} bytes after the header, not {have}")
        numeric = np.empty((n, shape[0]), dtype="<f8")
        nominal = np.empty((n, shape[1]), dtype="<i4")
        label_index = np.empty(n, dtype="<i4")
        for arr in (numeric, nominal, label_index):
            artifact.read_into(fh, arr)

        big = np.finfo(np.float64).max
        if (at := _outside(numeric, -big, big)) is not None:
            raise DataError(f"record {at[0]}: feature {schema.numeric_names[at[1]]}: "
                            f"{float(numeric[at])!r} is not a finite number")
        for j, name in enumerate(schema.nominal_names):
            size = len(schema.domains[name])
            if (at := _outside(nominal[:, j], 0, size - 1)) is not None:
                raise DataError(f"record {at[0]}: feature {name}: code {nominal[at[0], j]} "
                                f"is outside its domain of {size}")
        if (at := _outside(label_index, -1, len(table) - 1)) is not None:
            raise DataError(f"record {at[0]}: label index {label_index[at]} "
                            f"is outside the table of {len(table)}")
    # index -1, an unlabeled row, takes the last entry
    labels = np.array([*table, None], dtype=object)[label_index]
    codes = np.array([*table_codes, -1], dtype=np.int32)[label_index]
    return Dataset(schema, numeric, nominal, labels, codes)


def load_records(path) -> Dataset:
    """`detect`'s input: a dataset cache, told by its first bytes, or raw
    record lines read with optional labels (a label outside the taxonomy
    reads as absent), where the first bad line is fatal. Either may be
    gzip."""
    try:
        with artifact.open_binary(path) as fh:
            head = fh.read(len(_CACHE_TAG))
    except DataError:  # damaged gzip: the raw reader names the bad line
        head = b""
    if head == _CACHE_TAG:
        return load_cache(path)
    return load_dataset(path, error_budget=0, labels_optional=True)
