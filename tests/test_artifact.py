"""chids files are opened, decoded and rejected in one place (`artifact`),
and no damage to one of them ends a command with a traceback."""

import ast
import contextlib
import io
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chids
from oracles import table_text_oracle
from chids import artifact
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
    """Every artifact a run writes: caches, model, report bundle, an event
    stream, a raw record sample and a config file."""
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
    lines = Path(synth_corpus_path).read_text().splitlines()[:20]
    (out / "sample.kdd").write_text("\n".join(lines) + "\n")
    (out / "run.conf").write_text(render_config(RunConfig()))
    return out


# damaged file -> the command that reads it
READERS = {
    "test.cache": ["evaluate"],
    "train_full.cache": ["detect", "--input", "{out}/train_full.cache"],
    "model.txt": ["evaluate"],
    "stream_sybil.tsv": ["detect", "--input", "{out}/sample.kdd", "--events", "{out}/stream_sybil.tsv"],
    "manifest.json": ["report"],
    "transform.json": ["detect", "--input", "{out}/sample.kdd"],
    "rank_igr_full.tsv": ["report"],
    "report/confusion.tsv": ["report"],
    "train_timing.txt": ["evaluate"],
    "run.conf": ["config", "--config", "{out}/run.conf"],
}


def damage(raw: bytes, kind: str, i: int, j: int, k: int, token: str) -> bytes:
    """Truncate, insert non-ASCII bytes, overwrite 8 bytes of the payload
    with `token`'s float bits (the empty token's are zeros), or swap, drop
    or replace one field of one line (fields split at the line's most
    common separator). A dataset cache's payload is its arrays, and its
    only line that may be edited is the header; any other file is all
    payload and all lines."""
    if kind == "truncate":
        return raw[: i % (len(raw) + 1)]
    if kind == "non-ascii":
        i %= len(raw) + 1
        return raw[:i] + b"\xe9\xff" + raw[i:]
    head = raw.index(b"\n", len(CACHE_MAGIC)) + 1 if raw.startswith(CACHE_MAGIC) else 0
    if kind == "bits":
        at = head + i % max(len(raw) - head - 7, 1)
        return raw[:at] + struct.pack("<d", float(token or 0)) + raw[at + 8:]
    if head:
        return raw[:len(CACHE_MAGIC)] + damage_lines(raw[len(CACHE_MAGIC):head - 1], kind, 0, j, k,
                                                    token) + b"\n" + raw[head:]
    return damage_lines(raw, kind, i, j, k, token)


def damage_lines(raw: bytes, kind: str, i: int, j: int, k: int, token: str) -> bytes:
    lines = raw.decode("ascii").split("\n")
    n = i % len(lines)
    sep = max(" \t,:=", key=lines[n].count)
    fields = lines[n].split(sep)
    a, b = j % len(fields), k % len(fields)
    if kind == "swap":
        fields[a], fields[b] = fields[b], fields[a]
    elif kind == "drop":
        del fields[a]
    else:
        fields[a] = token
    lines[n] = sep.join(fields)
    return "\n".join(lines).encode("ascii")


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["truncate", "non-ascii", "bits", "swap", "drop", "replace"]),
    i=st.integers(0, 2**16),
    j=st.integers(0, 64),
    k=st.integers(0, 64),
    token=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1", ""]),
)
def test_damaged_artifact_exits_with_a_documented_code(run_dir, name, kind, i, j, k, token):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(run_dir, out)
        target = out / name
        target.write_bytes(damage(target.read_bytes(), kind, i, j, k, token))
        args = [a.format(out=out) for a in READERS[name]] + ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5, 6), err
    assert "Traceback" not in err
    assert code == 0 or len(err.splitlines()) == 1, err
