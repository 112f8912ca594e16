import dataclasses
import shutil

import pytest

from oracles import non_finite_numbers
from synthdata import write_corpus
from chids import ranking
from chids.cli import main
from chids.config import (
    SELECT_METHODS,
    RunConfig,
    apply_setting,
    load_config,
    parse_config_lines,
    render_config,
)
from chids.errors import ConfigError
from chids.rule_config import RuleConfig
from chids.sections import POLICY_TRUST_MISUSE, AttackClass, PipelineConfig, SplitSpec, TreeParams


class TestParsing:
    def test_round_trip_through_render(self):
        cfg = RunConfig(seed=42, select_method="igr", part_min_leaf=5)
        again = parse_config_lines(render_config(cfg).split("\n"))
        assert again == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_lines("# a comment\n\nseed = 9\n  # indented comment\n".split("\n"))
        assert cfg.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_lines(["no.such.key = 1"])

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config_lines(["seed = banana"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_lines(["seed 9"])

    def test_csv_values(self):
        cfg = parse_config_lines("prune = land, urgent\nsplit.minority = u2r,r2l\n".split("\n"))
        assert cfg.prune == ("land", "urgent")
        assert cfg.split_minority == ("u2r", "r2l")

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nseed 9\n", "line 2: expected `key = value`, got 'seed 9'"),
        ("seed = 1\nno.such.key = 1\n", "line 2: unknown config key 'no.such.key'"),
        ("\r\nseed = banana\r\n", "line 2: bad value for seed: 'banana' (expected int)"),
        ("seed = 1\ndataset = runs/a\x0cb.kdd\nseed 9\n",
         "line 3: expected `key = value`, got 'seed 9'"),
    ], ids=["no-equals", "unknown-key", "bad-value", "form-feed-in-an-earlier-line"])
    def test_file_error_names_the_file_and_line(self, tmp_path, text, message):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(text.encode("ascii"))
        with pytest.raises(ConfigError) as caught:
            load_config(conf)
        assert str(caught.value) == f"{conf}: {message}"

    def test_missing_file(self, tmp_path):
        from chids.errors import IoError

        with pytest.raises(IoError):
            load_config(tmp_path / "nope.conf")


class TestValidation:
    def test_bad_enums_rejected(self):
        for key, value in (
            ("select.method", "pca"),
            ("pipeline.policy", "ignore"),
            ("detect.mode", "psychic"),
            ("detect.mode", "stream"),  # --events supplies the flags
        ):
            cfg = apply_setting(RunConfig(), key, value)
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_every_select_method_has_a_scorer(self):
        # config names the methods without loading ranking, which scores them
        assert SELECT_METHODS == tuple(ranking.SCORERS)

    # keys of the learners PART replaced: `model.kind` had `part` its only value
    @pytest.mark.parametrize("key, value", [("part.prune", "true"), ("model.kind", "part")],
                             ids=["part.prune", "model.kind"])
    def test_part_prune_is_an_unknown_key_exit_2(self, tmp_path, key, value, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        for argv in (["config", "--set", f"{key}={value}"], ["config", "--config", str(conf)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"unknown config key {key!r}" in err and len(err.splitlines()) == 1

    def test_threads_floor(self):
        cfg = apply_setting(RunConfig(), "threads", "0")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_builders_reflect_settings(self):
        cfg = RunConfig(seed=5, rules_repetition_limit=7, part_confidence=0.1)
        assert cfg.split_spec().seed == 5
        assert cfg.rule_config().repetition_limit == 7
        assert cfg.tree_params().confidence == 0.1


# one non-default value for every key of a built section
SECTION_SETTINGS = [
    ("rules.interval_lower", "0.25", 0.25),
    ("rules.interval_upper", "20", 20.0),
    ("rules.retransmission_deadline", "3", 3.0),
    ("rules.delay_window", "1.5", 1.5),
    ("rules.repetition_limit", "4", 4),
    ("rules.rssi_min", "-90", -90.0),
    ("rules.rssi_max", "-30", -30.0),
    ("rules.collision_limit", "6", 6),
    ("rules.window", "12", 12.0),
    ("rules.max_sources_per_message", "2", 2),
    ("part.min_leaf", "3", 3),
    ("part.confidence", "0.1", 0.1),
    ("pipeline.policy", "trust_misuse", "trust_misuse"),
    ("pipeline.alert_sink", "a.log", "a.log"),
]
SECTIONS = {"rules": "rule_config", "part": "tree_params", "pipeline": "pipeline_config"}


class TestSections:
    @pytest.mark.parametrize("key, raw, value", SECTION_SETTINGS,
                             ids=[key for key, _, _ in SECTION_SETTINGS])
    def test_setting_reaches_its_section(self, key, raw, value):
        prefix, name = key.split(".", 1)
        build = SECTIONS[prefix]
        assert getattr(getattr(RunConfig(), build)(), name) != value
        cfg = apply_setting(RunConfig(), key, raw)
        cfg.validate()
        assert getattr(getattr(cfg, build)(), name) == value

    def test_every_section_key_is_covered(self):
        keys = {ln.split(" = ")[0] for ln in render_config(RunConfig()).splitlines()[1:]}
        in_sections = {k for k in keys if k.split(".")[0] in SECTIONS}
        assert in_sections == {key for key, _, _ in SECTION_SETTINGS}


# Each settings record: some non-default fields, and changes its check refuses
# (SplitSpec has no check, and RunConfig is checked by `validate`, not at
# construction).
RECORDS = {
    RuleConfig: ({"window": 2.0, "repetition_limit": 7},
                 [{"window": -1.0}, {"delay_window": float("inf")}, {"rssi_min": float("nan")},
                  {"interval_lower": 5.0, "interval_upper": 1.0}, {"rssi_min": -10.0, "rssi_max": -20.0},
                  {"repetition_limit": 0}, {"collision_limit": 2.0}]),
    TreeParams: ({"confidence": 0.1}, [{"min_leaf": 0}, {"confidence": 0.6}, {"confidence": 1e-17}]),
    PipelineConfig: ({"policy": POLICY_TRUST_MISUSE}, [{"policy": "other"}, {"alert_sink": ""}]),
    SplitSpec: ({"seed": 3, "minority_classes": (AttackClass.U2R,)}, []),
    RunConfig: ({"seed": 4, "prune": ("land",), "rules_window": 2.0}, []),
}


def _as_dataclass(cls):
    """A frozen dataclass with `cls`'s fields and defaults: what each record
    was built as before."""
    return dataclasses.make_dataclass(
        cls.__name__, [(name, object, dataclasses.field(default=getattr(cls, name)))
                       for name in cls.__annotations__], frozen=True)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestSettingsRecords:
    """Every settings record is built by position or keyword, checked at
    construction and immutable, with a frozen dataclass's equality, hash and
    repr."""

    def test_a_frozen_record_of_its_fields(self, cls):
        changed, _ = RECORDS[cls]
        names = tuple(cls.__annotations__)
        cfg = cls(**changed)
        values = tuple(getattr(cfg, name) for name in names)
        assert values == tuple(changed.get(name, getattr(cls, name)) for name in names)
        assert cls(*values) == cfg and hash(cls(*values)) == hash(cfg)
        assert cls(*values[:1], **{n: v for n, v in zip(names[1:], values[1:])}) == cfg
        assert cfg != cls() and cfg != values
        assert all(cfg != other() for other in RECORDS if other is not cls)
        twin = type("Twin", (cls,), {"__annotations__": cls.__annotations__})  # same fields
        assert twin(**changed) != cfg and cfg != twin(**changed)
        for change in (lambda: setattr(cfg, names[0], values[0]), lambda: delattr(cfg, names[0]),
                       lambda: setattr(cfg, "other", 1)):
            with pytest.raises(AttributeError):
                change()
        assert tuple(getattr(cfg, name) for name in names) == values

    def test_a_wrong_argument_is_a_type_error(self, cls):
        names = tuple(cls.__annotations__)
        defaults = tuple(getattr(cls, name) for name in names)
        for args, kwargs in (((defaults[0],), {names[0]: defaults[0]}),  # a field given twice
                             ((), {"no_such_field": 1}),  # an unknown field
                             ((*defaults, 1), {})):  # one argument too many
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_hash_and_repr_are_the_dataclass_ones(self, cls):
        changed, _ = RECORDS[cls]
        before = _as_dataclass(cls)
        for kwargs in ({}, changed):
            assert repr(cls(**kwargs)) == repr(before(**kwargs))
            assert hash(cls(**kwargs)) == hash(before(**kwargs))

    def test_replace_checks_as_construction_does(self, cls):
        changed, refused = RECORDS[cls]
        assert cls()._replace(**changed) == cls(**changed)
        assert cls(**changed)._replace() == cls(**changed)
        with pytest.raises(TypeError):
            cls()._replace(no_such_field=1)
        for bad in refused:
            with pytest.raises(ValueError) as built:
                cls(**bad)
            with pytest.raises(ValueError) as replaced:
                cls(**changed)._replace(**bad)
            assert str(replaced.value) == str(built.value)


# Every key `chids config` prints, each edge value, through `config`; a value
# it accepts for a key a stage reads also runs through that stage. Exit 1
# (a traceback) would be a chids bug; 2-6 are the documented refusals.
KEYS = [ln.split(" = ")[0] for ln in render_config(RunConfig()).splitlines()[1:]]
EDGE_VALUES = ("0", "-1", "1e-300", "1e308", "inf", "-inf", "nan", "")
SPLIT = ["--set", "split.train_size=200", "--set", "split.test_size=80"]


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """A ~400-line corpus and its preprocessed out directory."""
    root = tmp_path_factory.mktemp("sweep")
    write_corpus(root / "c.kdd", n=280, seed=3)
    assert main(["preprocess", "--dataset", str(root / "c.kdd"), "--out", str(root / "base"),
                 *SPLIT]) == 0
    return root


def stage_argvs(key, setting, out, corpus):
    """The commands that read `key`, in order, each with `setting`."""
    section = key.split(".")[0]
    if section == "part":
        return [[cmd, "--out", out, *setting] for cmd in ("train", "evaluate")]
    if section == "rules":
        return [["simulate", "--scenario", scenario, "--out", out, *setting]
                for scenario in ("replay", "sybil")]
    if section in ("seed", "split", "select"):
        return [["preprocess", "--dataset", corpus, "--out", out, *SPLIT, *setting]]
    if section in ("pipeline", "detect"):
        return [["train", "--out", out], ["detect", "--input", corpus, "--out", out, *setting]]
    return []


class TestEdgeValueSweep:
    @pytest.mark.parametrize("key", KEYS)
    def test_no_edge_value_exits_1(self, key, sweep_run, tmp_path, capsys):
        # and a stage that exits 0 writes only finite numbers
        values = ("0", "-1", "1") if key == "threads" else EDGE_VALUES  # never many threads
        for n, value in enumerate(values):
            setting = ["--set", f"{key}={value}"]
            codes = [exit_code(["config", *setting])]
            out = tmp_path / str(n)
            argvs = []
            if codes == [0]:
                argvs = stage_argvs(key, setting, str(out), str(sweep_run / "c.kdd"))
            if argvs:
                shutil.copytree(sweep_run / "base", out)  # train and evaluate read its caches
            for argv in argvs:
                codes.append(exit_code(argv))
                if codes[-1] == 0:
                    assert non_finite_numbers(out.rglob("*")) == [], (value, argv)
            assert set(codes) <= {0, 2, 3, 4, 5, 6}, (value, codes)
        capsys.readouterr()
