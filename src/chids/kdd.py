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
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

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


class FeatureSchema:
    """Ordered (name, kind) feature pairs plus mutable nominal symbol domains.

    Every feature is numeric or nominal, and no domain repeats a symbol.
    Domains grow in first-sighting order during ingest; a cache read keeps
    them fixed and rejects symbols outside them.
    """

    def __init__(self, features: Sequence[tuple[str, str]], domains: dict[str, list[str]] | None = None):
        self.features: tuple[tuple[str, str], ...] = tuple((name, kind) for name, kind in features)
        self.names: tuple[str, ...] = tuple(name for name, _ in self.features)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        if any(kind not in (NUMERIC, NOMINAL) for _, kind in self.features):
            raise ValueError(f"feature kinds must be {NUMERIC!r} or {NOMINAL!r}")
        self.numeric_names: tuple[str, ...] = tuple(n for n, k in self.features if k == NUMERIC)
        self.nominal_names: tuple[str, ...] = tuple(n for n, k in self.features if k == NOMINAL)
        # name -> (kind, column slot within the numeric or nominal matrix)
        self.slot: dict[str, tuple[str, int]] = {n: (NUMERIC, j) for j, n in enumerate(self.numeric_names)}
        self.slot.update((n, (NOMINAL, j)) for j, n in enumerate(self.nominal_names))
        self.domains: dict[str, list[str]] = {n: [] for n in self.nominal_names}
        if domains:
            for name, syms in domains.items():
                if name in self.domains:
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


@dataclass(frozen=True)
class KddRecord:
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
    appended to the domain.
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
            if strict and schema.code(name, raw) < 0:
                raise UnknownNominalSymbol(f"feature {name}: unknown symbol {raw!r}")
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
    cache: bool = False,
    labels_optional: bool = False,
    error_budget: int = 0,
    line_no: int = 0,
    chunk_lines: int = _CHUNK_ROWS,
) -> Dataset:
    """Parse the record lines left in `fh` into a Dataset, one chunk at a time.

    Every non-blank line maps to a text id, and only a new text is parsed.
    Raw record lines repeat, so a raw line's id is that of its text. A cache
    was deduplicated before it was written, so each of its lines is a new
    text of its own and no text is kept. A new text is split once; the
    chunk's new texts are then converted column by column, with fields
    whitespace-stripped and nominal symbols coded straight into the schema's
    domains in first-sighting order. Each chunk's good rows are written into
    the next rows of numeric and nominal arrays that grow in place, so no
    second copy of the rows is made, and the text table is dropped before
    the dataset is assembled.

    Raw lines grow the domains and need the label field; with
    `labels_optional`, lines without it and labels outside DEFAULT_TAXONOMY
    are unlabeled records. A cache keeps its domains fixed (an unseen symbol
    raises UnknownNominalSymbol), allows lines without the label field and
    rejects unknown labels. Every other bad text is dropped. Its error is
    kept on `dataset.parse_errors` for each of its lines, in line order, and
    the (error_budget + 1)-th raises DatasetParseError.

    The dataset holds one row per good text, in first-occurrence order. For
    raw lines, `line_rows` gives the row of every good line.
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
    line_texts = np.empty(0, dtype=np.int64)  # raw lines: the text id of every non-blank line
    n_lines = 0
    text_error: dict[int, str] = {}  # text id of a bad text -> its message
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
        rows, nos, ids = [], [], []  # fields, line number and text id of each new text
        for raw in lines:
            line_no += 1
            if raw.isspace():
                continue
            t = n_texts if cache else text_id.setdefault(raw, n_texts)
            seen.append((line_no, t))
            if t < n_texts:
                continue
            n_texts += 1
            fields = raw.split(",")
            if len(fields) != n + 1:
                if len(fields) == n and (cache or labels_optional):
                    fields.append(None)
                else:
                    text_error[t] = f"expected {n + 1} fields, got {len(fields)}"
                    continue
            rows.append(fields)
            nos.append(line_no)
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

        if text_error:
            errors += [(no, text_error[t]) for no, t in seen if t in text_error]
            if len(errors) > error_budget:
                raise DatasetParseError(errors[: error_budget + 1])
            keep = [i for i, t in enumerate(ids) if t not in text_error]
            if len(keep) < len(ids):
                stop = start + len(keep)
                numeric[start:stop] = numeric[start:start + len(ids)][keep]
                cols = [[col[i] for i in keep] for col in cols]
                nos = [nos[i] for i in keep]
        for j, (name, k) in enumerate(zip(schema.nominal_names, nom_idx)):
            sym_code = {}
            for raw in dict.fromkeys(cols[k]):
                c = schema.code(name, raw.strip(), add=not cache)
                if c < 0:
                    no = nos[cols[k].index(raw)]
                    raise UnknownNominalSymbol(
                        f"line {no}: feature {name}: unknown symbol {raw.strip()!r}"
                    )
                sym_code[raw] = c
            nominal[start:stop, j] = list(map(sym_code.__getitem__, cols[k]))
        n_rows = stop
        labels += map(label_of.__getitem__, cols[n])
        class_codes += map(code_of.__getitem__, cols[n])
        if not cache:
            _room(line_texts, n_lines + len(seen))
            line_texts[n_lines:n_lines + len(seen)] = [t for _, t in seen]
            n_lines += len(seen)

    del text_id  # read to the end: the texts go before the dataset is assembled
    for arr, size in ((numeric, n_rows), (nominal, n_rows), (line_texts, n_lines)):
        arr.resize((size, *arr.shape[1:]), refcheck=False)
    ds = Dataset(schema, numeric, nominal, np.array(labels, dtype=object),
                 np.array(class_codes, dtype=np.int32))
    if not cache:
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
        ds = _read_records(fh, FeatureSchema.default(), labels_optional=labels_optional,
                           error_budget=error_budget)
    if ds.parse_errors:
        import logging

        logging.getLogger(__name__).warning("%s: skipped %d bad line(s)", path, len(ds.parse_errors))
    return ds


CACHE_MAGIC = "#chids-dataset v1"


def save_cache(ds: Dataset, path) -> None:
    """Write a dataset to the versioned delimited cache format.

    Rows are record lines: floats via repr, so they read back exactly, and
    nominal values as their symbols. Each block of `artifact.BLOCK_ROWS`
    rows is built column by column and written as one piece; within it, a
    numeric column formats each distinct value (by bit pattern, so `-0.0`
    keeps its sign) once.
    """
    schema = ds.schema

    def pieces():
        yield CACHE_MAGIC + "\n"
        yield "#schema " + json.dumps(schema.to_json_obj(), separators=(",", ":")) + "\n"
        for start in range(0, len(ds), artifact.BLOCK_ROWS):
            stop = start + artifact.BLOCK_ROWS
            cols = []
            for name in schema.names:
                kind, j = schema.slot[name]
                if kind == NUMERIC:
                    col = ds.numeric[start:stop, j]
                    bits, codes = np.unique(col.view(np.int64), return_inverse=True)
                    texts = list(map(repr, bits.view(np.float64).tolist()))
                    cols.append(map(texts.__getitem__, codes.tolist()))
                else:
                    cols.append(map(schema.domains[name].__getitem__, ds.nominal[start:stop, j].tolist()))
            labels = ds.labels[start:stop].tolist()
            if None in labels:  # unlabeled rows end with their last feature
                rows = (r if lab is None else r + (lab,) for r, lab in zip(zip(*cols), labels))
            else:
                rows = zip(*cols, labels)
            yield "".join([",".join(r) + "\n" for r in rows])

    artifact.write_text(path, pieces())


def load_cache(path) -> Dataset:
    """Read a cache written by save_cache. Its domains are fixed, unlabeled
    rows are allowed, and the first bad line raises DatasetParseError."""
    with artifact.open_text(path) as fh, artifact.parsing(path, 1) as guard:
        magic = fh.readline().rstrip("\n")
        if magic != CACHE_MAGIC:
            raise DataError(f"not a chids dataset cache (got {magic!r})")
        guard.line = 2
        schema_line = fh.readline().rstrip("\n")
        if not schema_line.startswith("#schema "):
            raise DataError("missing schema header")
        schema = FeatureSchema.from_json_obj(json.loads(schema_line[len("#schema "):]))
        guard.line = None  # a bad record names its own line
        return _read_records(fh, schema, cache=True, line_no=2)


def load_records(path) -> Dataset:
    """`detect`'s input: a dataset cache, or raw record lines read with
    optional labels (a label outside the taxonomy reads as absent), where
    the first bad line is fatal. Either may be gzip."""
    try:
        first = artifact.read_lines(path, lambda lines: next(lines, ""))
    except DataError:  # undecodable: the raw reader names the bad line
        first = ""
    if first == CACHE_MAGIC:
        return load_cache(path)
    return load_dataset(path, error_budget=0, labels_optional=True)
