"""chids files are opened, decoded and rejected in one place (`artifact`),
and no damage to one of them ends a command with a traceback."""

import ast
import contextlib
import gzip
import io
import re
import shutil
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chids
from oracles import non_finite_numbers, table_text_oracle
from chids import artifact
from chids.anomaly import read_stream
from chids.artifact import BLOCK_ROWS
from chids.cli import main
from chids.config import RunConfig, render_config
from chids.kdd import CACHE_MAGIC

SRC = Path(chids.__file__).parent


def _calls():
    """(file, top-level name) and node of every call outside `artifact`."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "artifact.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield (path.name, getattr(top, "name", None)), node


# calls that open, read or write a file by its name or handle
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "tofile",
               "fromfile", "memmap"}


def test_only_artifact_opens_chids_files():
    # numpy's save* and load* read and write files too, and gzip.open is an open
    found = []
    for where, node in _calls():
        f = node.func
        if isinstance(f, ast.Name):
            owner, called = None, f.id
        elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) != "artifact":
            owner, called = getattr(f.value, "id", None), f.attr
        else:
            continue
        if called in _FILE_CALLS or (owner in ("np", "numpy")
                                     and called.startswith(("save", "load"))):
            found.append(f"{where[0]}:{node.lineno} {called}")
    assert found == []


def test_no_module_splits_lines_itself():
    # str.splitlines also breaks a line at \v, \f and \x1c-\x1e;
    # artifact.read_lines ends a line only at \n, \r\n or \r
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "splitlines"]
    assert found == []


def _imported(nodes):
    """The modules imported by the import statements among `nodes`: a chids
    module by its name in the package, any other by its full name."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x, y
                yield from (alias.name for alias in node.names)
            else:
                yield node.module


def test_settings_and_cli_load_no_stage_module():
    # `config` and the settings it reads load no stage module and no numpy,
    # anywhere; `cli` loads none at its top level, because each cmd_*
    # imports the stages it runs
    light = {"__init__", "artifact", "config", "errors", "rule_config", "sections"}
    stages = {path.stem for path in SRC.glob("*.py")} - light
    found = []
    for name in ("config", "rule_config", "sections", "cli"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        nodes = tree.body if name == "cli" else ast.walk(tree)
        found += [f"{name}.py imports {module}" for module in _imported(nodes)
                  if module in stages or module.split(".")[0] == "numpy"]
    assert found == []


def test_no_module_names_numpy_random():
    # importing numpy.random costs a child about 6 MB and 10 ms; the split's
    # seeded permutation is chids's own (`pcg64`), so no stage loads it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[:2] in (["np", "random"], ["numpy", "random"])]
    assert found == []


def test_only_artifact_names_a_file_in_an_error():
    # a message that formats a path is built by artifact.open_text or
    # artifact.parsing (or by an errors.py class given the path)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("artifact.py", "errors.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            for part in ast.walk(node.exc):
                if isinstance(part, ast.FormattedValue) and any(
                        getattr(n, "id", getattr(n, "attr", "")).endswith("path")
                        for n in ast.walk(part.value)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _program_trees():
    """The parsed source of every program file: src/ and non-test perfbench/."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    return [ast.parse(p.read_text()) for p in [*SRC.glob("*.py"), *perfbench.glob("*.py")]
            if not p.name.startswith("test_")]


def test_no_public_name_only_tests_use():
    # Every public function, class, method and module-level constant is used
    # by the program or by the benchmark (perfbench/ wraps some by name).
    used = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # a name looked up by string
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                unused += [f"{path.name}: {t.id}" for t in targets if isinstance(t, ast.Name)
                           and not t.id.startswith("_") and t.id not in used]
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            names = [top.name]
            if isinstance(top, ast.ClassDef):
                names += [f"{top.name}.{m.name}" for m in top.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            unused += [f"{path.name}: {name}" for name in names
                       if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


def test_every_defaulted_parameter_has_a_program_caller():
    # Calls are matched by callee name: a function's own name, a method's
    # name, a class's name for its __init__, and `cls` inside a classmethod
    # for its class. The allowed parameters leave with the per-record
    # reader (ROADMAP item 2), or put a chunk boundary inside a small file.
    allowed = {"parse_record(strict)", "parse_record(allow_unlabeled)",
               "from_records(schema)", "from_records(taxonomy)", "_read_records(chunk_lines)"}
    defaulted = {}  # callee name -> [(position or None, parameter name)]

    def declare(callee, fn, bound):
        a = fn.args
        positional = [*a.posonlyargs, *a.args][bound:]
        params = [(i, p.arg) for i, p in enumerate(positional)]
        params = params[len(params) - len(a.defaults):] if a.defaults else []
        params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        defaulted.setdefault(callee, []).extend(params)

    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                declare(top.name, top, 0)
            elif isinstance(top, ast.ClassDef):
                for m in top.body:
                    if isinstance(m, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                        declare(top.name if m.name == "__init__" else m.name, m, 0 if static else 1)

    set_params = set()
    for tree in _program_trees():
        scopes = [(None, node) for node in tree.body]
        while scopes:
            owner, node = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes += [(node.name, m) for m in node.body]
                continue
            in_classmethod = isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee == "cls" and in_classmethod:
                    callee = owner
                n_pos = len(call.args)
                if any(isinstance(a, ast.Starred) for a in call.args):
                    n_pos = float("inf")
                names = {k.arg for k in call.keywords}
                for pos, name in defaulted.get(callee, ()):
                    if None in names or name in names or (pos is not None and pos < n_pos):
                        set_params.add(f"{callee}({name})")
    unset = sorted(f"{callee}({name})" for callee, params in defaulted.items()
                   for _, name in params)
    unset = [p for p in unset if p not in set_params and p not in allowed]
    assert unset == []


def test_only_artifact_writes_chids_files():
    # every file chids writes goes through artifact.write_text or write_binary
    found = []
    for where, node in _calls():
        f = node.func
        called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        modes = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
        modes += [k.value.value for k in node.keywords
                  if k.arg == "mode" and isinstance(k.value, ast.Constant)]
        if called in ("open_text", "open_binary") and "w" in modes:
            found.append(f"{where[0]}:{node.lineno} {called}(..., 'w')")
    assert found == []


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("magic", [None, "#chids-test v1"])
def test_table_text_matches_the_whole_table_reference(tmp_path, n, magic):
    rows = [(str(i), "x" * (i % 7), f"{i / 3!r}") for i in range(n)]
    want = table_text_oracle("a\tb\tc", rows, magic)
    assert "".join(artifact.table_text("a\tb\tc", iter(rows), magic)) == want
    artifact.write_text(tmp_path / "t.tsv", artifact.table_text("a\tb\tc", rows, magic))
    assert (tmp_path / "t.tsv").read_bytes() == want.encode()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, synth_corpus_path):
    """Every file a command reads: caches, model, rank file, timing, an
    event stream, a raw record sample and a config file."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    common = ["--out", str(out), "--seed", "1"]
    for args in (
        ["preprocess", "--dataset", str(synth_corpus_path),
         "--set", "split.train_size=600", "--set", "split.test_size=300"],
        ["train"],
        ["evaluate"],
        ["simulate", "--scenario", "sybil"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(args + common) == 0
    # one record per event of the stream, which detect --events pairs with it
    lines = Path(synth_corpus_path).read_text().splitlines()[:len(read_stream(out / "stream_sybil.tsv"))]
    (out / "sample.kdd").write_text("\n".join(lines) + "\n")
    (out / "run.conf").write_text(render_config(RunConfig()))
    return out


SAMPLE = ["--input", "{out}/sample.kdd"]
# damaged file -> each command that reads it; no command reads the rank tables,
# manifest.json or train_timing.txt
READERS = {
    "sample.kdd": [["detect", *SAMPLE], ["preprocess", "--dataset", "{out}/sample.kdd",
                                         "--set", "split.train_size=10", "--set", "split.test_size=5"]],
    "train.cache": [["train"]],
    "test.cache": [["evaluate"], ["detect", "--input", "{out}/test.cache"]],
    "train_full.cache": [["detect", "--input", "{out}/train_full.cache"]],
    "model.txt": [["evaluate"], ["detect", *SAMPLE]],
    "transform.json": [["detect", *SAMPLE]],
    "stream_sybil.tsv": [["detect", *SAMPLE, "--events", "{out}/stream_sybil.tsv"]],
    "run.conf": [["config", "--config", "{out}/run.conf"]],
}
# What an exit 2-4 message names after the file: the line of a file read by
# lines; the magic line, the header line or a record of a dataset cache, or
# the payload's length; the line or the event of a stream. A JSON file is
# parsed whole. Any file may be refused whole, by the opener.
_CACHE = r"line [12]: |record \d+: |rows take \d+ bytes after the header"
WHERE = {name: _CACHE if name.endswith(".cache") else "" if name.endswith(".json") else r"line \d+"
         for name in READERS} | {"stream_sybil.tsv": r"line \d+: |event \d+: "}
_OPENER = "not ASCII text|damaged gzip data"
# a config value that `validate` refuses is named by its key, not by the file
_KEY = "|".join(re.escape(ln.split(" = ")[0]) for ln in render_config(RunConfig()).splitlines()[1:])
# the lines a command prints to stderr before it fails
PROGRESS = re.compile(r"chids: (loading|dedupe:|selected features|training) |.*: skipped \d+ bad line")

# What a token is replaced or extended by: the empty token, non-finite
# numbers as Python and JSON spell them, the edges of a float, a 23-digit
# integer, a control character, non-ASCII letters and digits, and numbers
# Python reads that chids never writes
TOKENS = ("", "nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1", "-0", "1e308", "1e-320",
          "1" * 23, "\x1c", "é", " 1", "0x10", "1_0", "+1", "١")
BYTE_KINDS = ("truncate", "non-ascii", "bits", "flip")
LINE_KINDS = ("delete", "duplicate", "swap-lines", "cut", "append")
FIELD_KINDS = ("swap", "drop")  # a field is split at the line's most common separator
TOKEN_KINDS = ("replace", "extend", "copy")  # a token is split at any separator
WRAPS = ("plain", "plain", "gzip", "cr", "crlf")  # after the damage; plain twice as often
_TOKEN_SEPS = re.compile(rb'([\t\n ,:"{}\[\]]+)')


class Pin(NamedTuple):
    """`command` (or each that reads `file`) exits `code`, with `text` in its error."""
    file: str
    code: int
    text: str
    command: str | None = None


class Mutation(NamedTuple):
    """One damage: `kind` at byte or line `i` (from 0), with field or token
    `j`, and second line `k` (`swap-lines`), second field `k` (`swap`) or
    token `k` of the whole file (`copy`); then the file's line ends are
    made CR or CRLF, or the file is gzipped (`wrap`). A pinned example
    damages its `pin`'s file only."""
    kind: str
    i: int = 0
    j: int = 0
    k: int = 0
    token: str = ""
    wrap: str = "plain"
    pin: Pin | None = None


def damage(raw: bytes, m: Mutation) -> bytes:
    """`raw` damaged by `m`. A dataset cache's lines are its magic and its
    header; the arrays after them are bytes, damaged only by a byte kind."""
    cache = raw.startswith(CACHE_MAGIC)
    head = raw.index(b"\n", len(CACHE_MAGIC)) + 1 if cache else len(raw)
    if m.kind in BYTE_KINDS:
        raw = damage_bytes(raw, m, head if cache else 0)
    else:
        raw = damage_lines(raw[:head], m) + raw[head:]
    if m.wrap in ("cr", "crlf") and not cache:  # a cache's line ends are bytes of its arrays
        raw = raw.replace(b"\n", b"\r" if m.wrap == "cr" else b"\r\n")
    return gzip.compress(raw, mtime=0) if m.wrap == "gzip" else raw


def damage_bytes(raw: bytes, m: Mutation, payload: int) -> bytes:
    """Cut at byte i, insert non-ASCII bytes there, flip its bits, or
    overwrite 8 bytes of the payload with `token`'s float bits (the bits of
    a token that is no float are zeros)."""
    if m.kind == "bits":
        at = payload + m.i % max(len(raw) - payload - 7, 1)
        try:
            bits = struct.pack("<d", float(m.token))
        except ValueError:
            bits = bytes(8)
        return raw[:at] + bits + raw[at + 8:]
    at = m.i % (len(raw) + 1)
    if m.kind == "truncate":
        return raw[:at]
    if m.kind == "non-ascii":
        return raw[:at] + b"\xe9\xff" + raw[at:]
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:] if at < len(raw) else raw


def damage_lines(text: bytes, m: Mutation) -> bytes:
    """Delete, duplicate or swap line i, cut the text before it, or add a
    line after the last; swap or drop a field of line i; or replace a token
    of it by `token` or by another token of the text, or add `token` after
    it as a field of its own."""
    lines = text.split(b"\n")  # the last item is what follows the last line end
    a, b = m.i % len(lines), m.k % len(lines)
    token = m.token.encode()
    if m.kind in LINE_KINDS:
        if m.kind == "delete":
            del lines[a]
        elif m.kind == "duplicate":
            lines.insert(a, lines[a])
        elif m.kind == "swap-lines":
            lines[a], lines[b] = lines[b], lines[a]
        elif m.kind == "cut":
            lines[a:] = [b""]
        else:  # a line after the last
            lines[-1:] = [lines[-1] + token, b""]
        return b"\n".join(lines)
    sep = max(b" \t,:=", key=lines[a].count).to_bytes(1, "big")
    if m.kind in FIELD_KINDS:
        fields = lines[a].split(sep)
        f, g = m.j % len(fields), m.k % len(fields)
        if m.kind == "swap":
            fields[f], fields[g] = fields[g], fields[f]
        else:
            del fields[f]
        lines[a] = sep.join(fields)
        return b"\n".join(lines)
    parts = _TOKEN_SEPS.split(lines[a])  # tokens at the even places, separators between
    at = [n for n in range(0, len(parts), 2) if parts[n]]
    if at:
        n = at[m.j % len(at)]
        if m.kind == "replace":
            parts[n] = token
        elif m.kind == "extend":
            parts[n] += sep + token
        else:
            every = [t for t in _TOKEN_SEPS.split(text)[::2] if t]
            parts[n] = every[m.k % len(every)]
        lines[a] = b"".join(parts)
    return b"\n".join(lines)


M, P = Mutation, Pin
# Each damage a hand-written case once pinned, and the damage each fault
# found by the sweep showed, with the check it reaches. Lines count from 0
# here and from 1 in the messages.
PINNED = [
    # model.txt: cut short; a text threshold; an unknown class, feature or operator
    M("truncate", 16, pin=P("model.txt", 4, "line 2: expected 'kind '")),
    M("truncate", 30, pin=P("model.txt", 4, "line 3: expected 'features '")),
    M("truncate", 60, pin=P("model.txt", 4, "line 3: malformed file")),
    M("truncate", 100, pin=P("model.txt", 4, "line 4: expected 'default '")),
    M("replace", 7, 4, token="0x10", pin=P("model.txt", 4, "line 8: malformed file")),
    M("replace", 7, 6, token="nan", pin=P("model.txt", 4, "line 8: unknown class 'nan'")),
    M("replace", 7, 2, token="nan", pin=P("model.txt", 4, "line 8: feature 'nan' is not on")),
    M("copy", 7, 3, 18, pin=P("model.txt", 4, "line 8: bad operator for numeric")),
    M("copy", 4, 3, 81, pin=P("model.txt", 4, "line 5: bad operator for nominal")),
    # model.txt, test.cache: whole, but one feature is not the other's; exit 6
    # names both files (detect: the model's and transform.json, or the cache
    # and transform.json)
    M("replace", 2, 5, token="dst_bytes", pin=P("model.txt", 6, "dataset schema differs from")),
    M("replace", 1, 6, token="dst_bytes",
      pin=P("test.cache", 6, "dataset schema differs from", "evaluate")),
    M("replace", 1, 6, token="dst_bytes", pin=P("test.cache", 6, "not in schema: ['src_bytes']",
                                                "detect")),
    # sample.kdd, line 6: two fields, 43 fields, a text or nan number, an
    # empty service
    M("truncate", 568, pin=P("sample.kdd", 4, "line 6: expected 42 fields, got 2", "detect")),
    M("extend", 5, 41, token="nan", pin=P("sample.kdd", 4, "line 6: expected 42 fields", "detect")),
    M("replace", 5, 4, token="0x10", pin=P("sample.kdd", 4, "line 6: feature 4: not a", "detect")),
    M("replace", 5, 4, token="nan", pin=P("sample.kdd", 4, "line 6: feature 4: not finite", "detect")),
    M("replace", 5, 2, token="", pin=P("sample.kdd", 4, "line 6: feature 2: symbol ''", "detect")),
    # transform.json: a key renamed, a value short, not JSON, n, mu and sigma,
    # the version, a selected feature
    M("replace", 1, 0, token="nan", pin=P("transform.json", 4, "malformed file (KeyError")),
    M("delete", 8, pin=P("transform.json", 4, "malformed file (ValueError: stats shape")),
    M("truncate", 30, pin=P("transform.json", 4, "malformed file (JSONDecodeError")),
    M("delete", 12, pin=P("transform.json", 4, "malformed file (KeyError: 'n')")),
    M("replace", 12, 1, token="Infinity", pin=P("transform.json", 4, "(OverflowError")),
    M("replace", 14, 0, token="nan", pin=P("transform.json", 4, "'nan' is not a finite")),
    M("replace", 8, 0, token="-inf", pin=P("transform.json", 4, "'-inf' is not a finite")),
    M("replace", 33, 1, token="2", pin=P("transform.json", 4, "version 2, expected 1: `chids")),
    M("replace", 29, 0, token="nan",
      pin=P("transform.json", 4, "'nan', 'count', 'duration']: expected a list of distinct")),
    # transform.json: a normalization that is not of the selected numeric
    # features, in schema order
    M("replace", 29, 0, token="dst_bytes", pin=P("transform.json", 4,
      "normalization features ['duration', 'src_bytes', 'count']: expected the numeric")),
    M("swap-lines", 3, k=4, pin=P("transform.json", 4,
      "normalization features ['src_bytes', 'duration', 'count']: expected the numeric")),
    # stream_sybil.tsv: no header row; the engine's faults name the file
    M("delete", 1, pin=P("stream_sybil.tsv", 4, "line 2: expected 'ts\\tsource")),
    M("replace", 2, 0, token="nan", pin=P("stream_sybil.tsv", 4, "stream_sybil.tsv: event 0: non-finite")),
    M("swap-lines", 2, k=3, pin=P("stream_sybil.tsv", 6, "stream_sybil.tsv: event 1: timestamp")),
    # train.cache: a symbol no model file can hold
    M("replace", 1, 12, token="", pin=P("train.cache", 4, "line 2: symbol '' is not serializable")),
    # run.conf: bytes that are not ASCII
    M("non-ascii", 10, pin=P("run.conf", 2, "run.conf: not ASCII text")),
]


def pinned(test):
    """`test` with an explicit example for each PINNED mutation."""
    for m in PINNED:
        test = example(m=m)(test)
    return test


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(READERS))
@pinned
@settings(max_examples=32, deadline=None, derandomize=True)
@given(m=st.builds(Mutation, st.sampled_from(BYTE_KINDS + LINE_KINDS + FIELD_KINDS + TOKEN_KINDS),
                   st.integers(0, 2**16), st.integers(0, 64), st.integers(0, 2**16),
                   st.sampled_from(TOKENS), st.sampled_from(WRAPS), st.none()))
def test_damaged_artifact_exits_with_a_documented_code(run_dir, name, m):
    """Each command that reads the damaged file exits 0, with only finite
    numbers in what it wrote, or exits with a documented code, one line
    naming the file (where the file has lines or records, the one at fault)
    after its progress lines, and the out directory as it was. An exit 6 from
    evaluate or detect, whose files may be whole but not each other's, names
    the damaged file among them."""
    if m.pin and m.pin.file != name:
        return
    before = _tree(run_dir)
    before[name] = damage(before[name], m)
    for argv in READERS[name]:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(run_dir, out)
            target = out / name
            target.write_bytes(before[name])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.format(out=out) for a in argv] + ["--out", str(out)])
            err = err.getvalue()
            assert code in (0, 2, 3, 4, 5, 6) and "Traceback" not in err, (argv, err)
            if m.pin and m.pin.command in (None, argv[0]):
                assert code == m.pin.code and m.pin.text in err, (argv, err)
            after = _tree(out)
            if code == 0:
                written = [out / p for p, raw in after.items() if before.get(p) != raw]
                assert non_finite_numbers(written) == [], argv
                continue
            assert after == before, argv
            *progress, last = err.splitlines()
            assert all(map(PROGRESS.match, progress)) and not PROGRESS.match(last), err
            if code in (2, 3, 4) and not re.match(f"chids: ({_KEY})[ :]", last):
                assert last.startswith(f"chids: {target}: "), (argv, last)
                assert not WHERE[name] or re.search(f"{WHERE[name]}|{_OPENER}", last), (argv, last)
            if code == 6 and argv[0] in ("evaluate", "detect"):
                assert re.match(f"chids: ([^:]+, )?{re.escape(str(target))}[,:] ", last), (argv, last)


def test_readers_are_the_files_each_command_opens(run_dir, tmp_path, monkeypatch):
    """Each command opens for reading exactly the files of the run directory
    whose READERS entry lists it, so the sweep damages every file a command
    reads and only those."""
    listed, opened = {}, {}
    for name, argvs in READERS.items():
        for argv in argvs:
            listed.setdefault(argv[0], set()).add(name)
    real = artifact.open_binary
    for i, argv in enumerate(sorted({tuple(a) for argvs in READERS.values() for a in argvs})):
        out = tmp_path / str(i)
        shutil.copytree(run_dir, out)

        def spy(path, mode="r", reads=opened.setdefault(argv[0], set()), out=out):
            if mode == "r" and Path(path).parent == out:
                reads.add(Path(path).name)
            return real(path, mode)

        monkeypatch.setattr(artifact, "open_binary", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([a.format(out=out) for a in argv] + ["--out", str(out)]) == 0, argv
    assert opened == listed


# The damage that evaluate refused in the split census and the training
# time while it copied them into its report; no command reads either file
UNREAD = [
    ("train_timing.txt", M("replace", 0, 2, token="nan")),
    ("train_timing.txt", M("replace", 0, 2, token="-1")),
    ("train_timing.txt", M("replace", 0, 2, token="0x10")),
    ("train_timing.txt", M("truncate", 0)),
    ("train_timing.txt", M("duplicate", 0)),
    ("train_timing.txt", M("replace", 0, 1, token="nan")),
    ("train_timing.txt", M("non-ascii", 20)),
    ("manifest.json", M("replace", 5, 0, token="nan")),
    ("manifest.json", M("replace", 14, 1, token="1e308")),
    ("manifest.json", M("truncate", 1)),
    ("manifest.json", M("non-ascii", 10)),
    ("manifest.json", M("replace", 14, 1, token="-1")),
    ("manifest.json", M("replace", 21, 1, token="1" * 23)),
    ("manifest.json", M("replace", 33, 0, token="nan")),
]


@pytest.mark.parametrize("name, m", UNREAD + [("train_timing.txt", None), ("manifest.json", None)])
def test_evaluate_reads_no_split_census_or_training_time(run_dir, tmp_path, name, m):
    """evaluate exits 0 and writes the same report, but for its one timing
    line, whether these files are damaged, missing or whole."""
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    target = out / name
    if m is None:
        target.unlink()
    else:
        target.write_bytes(damage(target.read_bytes(), m))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["evaluate", "--out", str(out)]) == 0
    got, want = _tree(out / "report"), _tree(run_dir / "report")
    assert re.fullmatch(rb"timing test_s \d+\.\d{6}\n", got.pop("timings.txt"))
    del want["timings.txt"]
    assert got == want
