import gzip
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import synthdata
from oracles import cache_bytes_oracle, iter_records, record, serialize_record
from test_anomaly import traced
from chids.artifact import BLOCK_ROWS
from chids.errors import (
    DataError,
    DatasetParseError,
    FieldCountMismatch,
    IoError,
    NumericParseError,
    UnknownLabel,
    UnknownNominalSymbol,
)
from chids.kdd import (
    AttackClass,
    DEFAULT_TAXONOMY,
    FEATURE_TABLE,
    Dataset,
    FeatureSchema,
    KddRecord,
    _label,
    classify_label,
    load_cache,
    load_dataset,
    load_records,
    parse_record,
    save_cache,
)


def make_line(service="http", src_bytes="181", label="normal."):
    fields = ["0"] * 41
    fields[1] = "tcp"
    fields[2] = service
    fields[3] = "SF"
    fields[4] = src_bytes
    fields[5] = "5450"
    fields[28] = "1.00"
    return ",".join(fields) + "," + label


class TestSchema:
    def test_default_shape(self):
        s = FeatureSchema.default()
        assert len(s.features) == 41
        assert len(s.numeric_names) == 34
        assert len(s.nominal_names) == 7
        assert len(set(s.names)) == 41
        assert s.features == FEATURE_TABLE

    def test_subset_reindexes(self):
        s = FeatureSchema.default()
        sub = s.subset(["service", "src_bytes", "diff_srv_rate"])
        assert sub.names == ("service", "src_bytes", "diff_srv_rate")
        assert sub.features == (("service", "nominal"), ("src_bytes", "numeric"),
                                ("diff_srv_rate", "numeric"))


class TestTaxonomy:
    def test_covers_23_labels(self):
        assert len(DEFAULT_TAXONOMY.label_class) == 23
        sizes = {c: len(DEFAULT_TAXONOMY.members[c]) for c in AttackClass}
        assert sizes[AttackClass.NORMAL] == 1
        assert sum(sizes.values()) == 23

    def test_classify_examples(self):
        assert classify_label("normal") is AttackClass.NORMAL
        assert classify_label("neptune") is AttackClass.DOS
        assert classify_label("rootkit") is AttackClass.U2R
        assert classify_label("Smurf.") is AttackClass.DOS  # case/period normalized

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            classify_label("quantum_worm")

    def test_total_and_pure(self):
        for lab in DEFAULT_TAXONOMY.label_class:
            assert classify_label(lab) is classify_label(lab)


class TestParseRecord:
    def test_trailing_period_stripped(self):
        r = parse_record(make_line(label="smurf."), FeatureSchema.default())
        assert r.label == "smurf"

    def test_field_count_mismatch(self):
        line = ",".join(["0"] * 40)
        with pytest.raises(FieldCountMismatch):
            parse_record(line, FeatureSchema.default())

    def test_typical_line_types(self):
        s = FeatureSchema.default()
        r = parse_record(make_line(), s)
        assert r.values[0] == 0.0 and isinstance(r.values[0], float)
        assert r.values[1] == "tcp"
        assert r.values[2] == "http"

    def test_numeric_parse_error_carries_index(self):
        line = make_line(src_bytes="oops")
        with pytest.raises(NumericParseError) as exc:
            parse_record(line, FeatureSchema.default())
        assert exc.value.index == 4

    def test_non_finite_rejected(self):
        with pytest.raises(NumericParseError):
            parse_record(make_line(src_bytes="nan"), FeatureSchema.default())

    @pytest.mark.parametrize("service", ["", "a b", "a\x1cb"], ids=["empty", "space", "x1c"])
    def test_refuses_a_new_symbol_the_raw_reader_refuses(self, service):
        s = FeatureSchema.default()
        with pytest.raises(DataError) as caught:
            parse_record(make_line(service=service), s)
        assert str(caught.value) == f"feature 2: symbol {service!r} is empty or has whitespace in it"
        assert s.domains["service"] == []

    def test_strict_mode_rejects_unknown_symbol(self):
        s = FeatureSchema.default()
        parse_record(make_line(service="http"), s)
        with pytest.raises(UnknownNominalSymbol):
            parse_record(make_line(service="gopher"), s, strict=True)
        # lenient mode grows the domain instead
        parse_record(make_line(service="gopher"), s)
        assert "gopher" in s.domains["service"]

    def test_unlabeled_only_when_allowed(self):
        line = make_line().rsplit(",", 1)[0]
        with pytest.raises(FieldCountMismatch):
            parse_record(line, FeatureSchema.default())
        r = parse_record(line, FeatureSchema.default(), allow_unlabeled=True)
        assert r.label is None


class TestRoundTrip:
    def test_simple_round_trip(self):
        s = FeatureSchema.default()
        r = parse_record(make_line(), s)
        assert parse_record(serialize_record(r), s) == r

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_round_trip(self, data):
        s = FeatureSchema.default()
        values = []
        for _, kind in s.features:
            if kind == "numeric":
                values.append(
                    data.draw(
                        st.floats(
                            min_value=-1e9,
                            max_value=1e9,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    )
                )
            else:
                values.append(data.draw(st.sampled_from(["a", "b", "tcp", "0", "1"])))
        label = data.draw(st.sampled_from(list(DEFAULT_TAXONOMY.label_class)))
        r = KddRecord(tuple(values), label)
        assert parse_record(serialize_record(r), s) == r


class TestLoadDataset:
    def test_three_line_fixture_histogram(self, tmp_path):
        p = tmp_path / "mini.kdd"
        p.write_text(
            make_line(label="normal.") + "\n"
            + make_line(label="neptune.", src_bytes="0") + "\n"
            + make_line(label="satan.", service="private") + "\n"
        )
        ds = load_dataset(p)
        hist = ds.class_histogram()
        # hand count: 1 normal, 1 dos, 1 probe
        assert hist[AttackClass.NORMAL] == 1
        assert hist[AttackClass.DOS] == 1
        assert hist[AttackClass.PROBE] == 1
        assert hist[AttackClass.R2L] == 0
        assert len(ds) == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.kdd"
        p.write_text("")
        ds = load_dataset(p)
        assert len(ds) == 0

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "mini.kdd.gz"
        with gzip.open(p, "wt") as fh:
            fh.write(make_line() + "\n")
        ds = load_dataset(p)
        assert len(ds) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_dataset(tmp_path / "nope.kdd")

    def test_error_budget(self, tmp_path):
        p = tmp_path / "bad.kdd"
        good = make_line()
        p.write_text("\n".join(["x,y"] * 5 + [good]) + "\n")
        ds = load_dataset(p, error_budget=10)
        assert len(ds) == 1
        assert len(ds.parse_errors) == 5
        with pytest.raises(DatasetParseError):
            load_dataset(p, error_budget=2)

    def test_histogram_matches_per_record_classification(self, tmp_path):
        p = tmp_path / "mix.kdd"
        labels = ["normal.", "smurf.", "ipsweep.", "phf.", "perl.", "normal."]
        p.write_text("".join(make_line(label=l) + "\n" for l in labels))
        ds = load_dataset(p)
        recount = {c: 0 for c in AttackClass}
        for r in iter_records(ds):
            recount[classify_label(r.label)] += 1
        assert recount == ds.class_histogram()


class TestReaderMemory:
    """The record reader writes each chunk's rows into arrays that grow in
    place and drops its text table before it assembles the dataset, so it
    holds no second copy of the rows (tracemalloc: peak - live after)."""

    def test_raw_read_holds_less_than_its_result(self, tmp_path):
        # a repeat-heavy corpus: 9,899 lines, 2,981 distinct. Concatenating
        # per-chunk parts held 1.73 times the result at its peak
        path = tmp_path / "c.kdd"
        synthdata.write_corpus(path, n=3000, seed=7, dup_rate=2.3)
        ds, current, peak = traced(lambda: load_dataset(path))
        assert len(ds.line_rows) > 3 * len(ds)
        assert peak - current < current

    def test_cache_read_holds_no_more_than_concatenated_parts(self, tmp_path, synth_corpus_path):
        # each array is read straight into its buffer and checked without a
        # copy, so the peak is the result plus the label indices and a few
        # small parts (the text reader's peak was 1.278 MB past its result)
        path = tmp_path / "part.cache"
        save_cache(load_dataset(synth_corpus_path).take(np.arange(2000)), path)
        ds, current, peak = traced(lambda: load_cache(path))
        assert len(ds) == 2000
        held = ds.numeric.nbytes + ds.nominal.nbytes + ds.labels.nbytes + ds.class_codes.nbytes
        assert peak <= held + 64 * 1024


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        p = tmp_path / "mini.kdd"
        p.write_text(
            make_line() + "\n" + make_line(label="teardrop.", service="private") + "\n"
        )
        ds = load_dataset(p)
        cache = tmp_path / "mini.cache"
        save_cache(ds, cache)
        ds2 = load_cache(cache)
        assert len(ds2) == len(ds)
        assert ds2.schema.names == ds.schema.names
        assert np.array_equal(ds2.numeric, ds.numeric)
        assert np.array_equal(ds2.nominal, ds.nominal)
        assert list(ds2.labels) == list(ds.labels)

    def test_cache_bytes_stable(self, tmp_path):
        p = tmp_path / "mini.kdd"
        p.write_text(make_line() + "\n")
        ds = load_dataset(p)
        c1, c2 = tmp_path / "a.cache", tmp_path / "b.cache"
        save_cache(ds, c1)
        save_cache(ds, c2)
        assert c1.read_bytes() == c2.read_bytes()


class TestCacheWriter:
    """`save_cache` writes each value array straight from its buffer and the
    label indices a block at a time; its bytes are those of the
    value-by-value reference."""

    @staticmethod
    def edge_dataset(n):
        schema = FeatureSchema([("zero", "numeric"), ("const", "numeric"),
                                ("distinct", "numeric"), ("extreme", "numeric"),
                                ("proto", "nominal")],
                               {"proto": ["tcp", "udp", "icmp"]})
        i = np.arange(n)
        numeric = np.column_stack([
            np.where(i % 3 == 1, -0.0, 0.0),
            np.full(n, 0.1),
            i / 7 - 3,
            np.array([5e-324, 1e308, -1e-300, -0.0])[i % 4],
        ])
        labels = np.array([None if k % 5 == 2 else ("normal", "smurf")[k % 2] for k in range(n)],
                          dtype=object)
        codes = np.array([-1 if lab is None else int(DEFAULT_TAXONOMY.classify(lab))
                          for lab in labels], dtype=np.int32)
        return Dataset(schema, numeric, i % 3, labels, codes)

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_bytes_match_the_value_by_value_reference(self, tmp_path, n):
        ds = self.edge_dataset(n)
        cache = tmp_path / "edge.cache"
        save_cache(ds, cache)
        assert cache.read_bytes() == cache_bytes_oracle(ds)
        back = load_cache(cache)
        assert back.numeric.tobytes() == ds.numeric.tobytes()  # -0.0 keeps its sign
        assert list(back.labels) == list(ds.labels)

    def test_transient_memory_is_per_block(self, tmp_path):
        # a table of every row's value codes would grow with the rows:
        # 34 int64 columns are 2.2 MB at 8 blocks
        def transient(blocks):
            rng = np.random.default_rng(blocks)
            n = blocks * BLOCK_ROWS
            schema = FeatureSchema.default()
            for name in schema.nominal_names:
                schema.code(name, "x", add=True)
            numeric = rng.integers(0, 50, (n, len(schema.numeric_names))) / 8
            numeric[:, :4] = rng.standard_normal((n, 4))  # mostly distinct columns
            ds = Dataset(schema, numeric, np.zeros((n, len(schema.nominal_names)), np.int32),
                         np.array(["normal"] * n, dtype=object), np.zeros(n, np.int32))
            tracemalloc.start()
            try:
                save_cache(ds, tmp_path / "wide.cache")
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current

        assert transient(8) <= 1.25 * transient(2)


class TestStrictLoad:
    """A cache is read on the domains it was written with."""

    def test_strict_load_rejects_unknown_symbols(self, tmp_path):
        p = tmp_path / "mini.kdd"
        p.write_text(make_line(service="http") + "\n")
        ds = load_dataset(p)  # learns http, the only service
        cache = tmp_path / "mini.cache"
        save_cache(ds, cache)
        assert len(load_cache(cache)) == 1
        service = ds.schema.nominal_names.index("service")
        nominal = ds.nominal.copy()
        nominal[0, service] = 1  # a symbol the domain does not hold
        save_cache(Dataset(ds.schema, ds.numeric, nominal, ds.labels, ds.class_codes), cache)
        with pytest.raises(DataError, match="record 0: feature service: code 1 is outside"):
            load_cache(cache)

    def test_unlabeled_round_trip(self):
        s = FeatureSchema.default()
        line = make_line().rsplit(",", 1)[0]
        r = parse_record(line, s, allow_unlabeled=True)
        assert parse_record(serialize_record(r), s, allow_unlabeled=True) == r


class TestColumnarReader:
    def test_long_nominal_symbols_stay_distinct(self, tmp_path):
        # equal in their first 32 characters
        a, b = "svc_" + "x" * 40, "svc_" + "x" * 39 + "y"
        p = tmp_path / "long.kdd"
        p.write_text(make_line(service=a) + "\n" + make_line(service=b) + "\n")
        ds = load_dataset(p)
        assert ds.schema.domains["service"] == [a, b]
        assert ds.column("service").tolist() == [0, 1]

    def test_padded_fields_are_stripped(self, tmp_path):
        p = tmp_path / "padded.kdd"
        p.write_text(
            make_line(service=" http ", src_bytes=" 181 ", label=" normal. ") + "\n"
            + make_line() + "\n"
        )
        ds = load_dataset(p)
        assert ds.schema.domains["service"] == ["http"]
        assert list(ds.labels) == ["normal", "normal"]
        assert record(ds, 0) == record(ds, 1)

    def test_one_error_per_bad_line_in_line_order(self, tmp_path):
        p = tmp_path / "mixed.kdd"
        two_bad = make_line(src_bytes="oops").replace(",1.00,", ",nan,")
        p.write_text("\n".join([
            make_line(),
            make_line(label="quantum_worm."),
            two_bad,
            "x,y",
            make_line(src_bytes="inf"),
        ]) + "\n")
        ds = load_dataset(p)
        assert len(ds) == 1
        assert ds.parse_errors == [
            (2, "unknown label 'quantum_worm'"),
            (3, "feature 4: not a number: 'oops'"),
            (4, "expected 42 fields, got 2"),
            (5, "feature 4: not finite"),
        ]

    def test_unwritable_symbol_makes_a_bad_line(self, tmp_path):
        # a model file holds no empty symbol and none with whitespace in it;
        # the bad line's other new symbols (icmp, REJ) enter no domain
        p = tmp_path / "sym.kdd"
        other = make_line().replace(",tcp,", ",icmp,").replace(",SF,", ",REJ,")
        p.write_text("\n".join([
            make_line(),
            other.replace(",http,", ",,"),
            other.replace(",http,", ",ht\x1ctp,"),
            other.replace(",http,", ", smtp ,"),
        ]) + "\n")
        ds = load_dataset(p)
        assert ds.parse_errors == [
            (2, "feature 2: symbol '' is empty or has whitespace in it"),
            (3, "feature 2: symbol 'ht\\x1ctp' is empty or has whitespace in it"),
        ]
        domains = ds.schema.domains
        assert (domains["protocol_type"], domains["service"], domains["flag"]) == (
            ["tcp", "icmp"], ["http", "smtp"], ["SF", "REJ"])

    def test_non_ascii_input_is_a_data_error(self, tmp_path):
        p = tmp_path / "latin.kdd"
        p.write_bytes((make_line() + "\n" + make_line(service="h\xe9") + "\n").encode("latin-1"))
        with pytest.raises(DataError, match="not ASCII"):
            load_dataset(p)

    def test_chunking_does_not_change_the_result(self, tmp_path):
        from chids.kdd import _read_records

        p = tmp_path / "mix.kdd"
        services = ["smtp", "http", "x" * 50, "smtp", "ftp", "http", "other"]
        labels = ["normal.", "smurf.", "nope.", "phf.", "perl.", "normal.", "back."]
        p.write_text("".join(make_line(service=s, label=l) + "\n" for s, l in zip(services, labels)))

        def read(chunk_lines):
            with open(p) as fh:
                return _read_records(fh, FeatureSchema.default(), error_budget=1,
                                     chunk_lines=chunk_lines)

        whole, chunked = read(100), read(2)
        assert whole.parse_errors == chunked.parse_errors == [(3, "unknown label 'nope'")]
        assert whole.schema.domains == chunked.schema.domains
        assert whole.schema.domains["service"] == ["smtp", "http", "ftp", "other"]
        assert np.array_equal(whole.numeric, chunked.numeric)
        assert np.array_equal(whole.nominal, chunked.nominal)
        assert list(whole.labels) == list(chunked.labels)
        assert np.array_equal(whole.class_codes, chunked.class_codes)

    def test_each_repeat_of_a_bad_line_counts(self, tmp_path):
        p = tmp_path / "repeats.kdd"
        bad = make_line(src_bytes="oops")
        p.write_text("\n".join([
            make_line(), bad, make_line(label="smurf."), bad, make_line(), make_line(), bad,
        ]) + "\n")
        expect = [(no, "feature 4: not a number: 'oops'") for no in (2, 4, 7)]
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(p, error_budget=2)
        assert exc.value.errors == expect
        ds = load_dataset(p, error_budget=3)
        assert ds.parse_errors == expect
        assert list(ds.labels[ds.line_rows]) == ["normal", "smurf", "normal", "normal"]


# Lines the reader treats differently, for files with many repeats.
_POOL = (
    make_line() + "\n",
    make_line(service="smtp", label="neptune.") + "\n",
    make_line(service="ftp", src_bytes="0.5", label="satan.") + "\r\n",
    make_line(service=" private ", src_bytes=" 7 ", label=" back. ") + "\n",
    "\n",
    "  \r\n",
    make_line(service="telnet").rsplit(",", 1)[0] + "\n",  # unlabeled
    make_line(service="pop_3", label="quantum_worm.") + "\n",  # unknown label
    make_line(service="domain", src_bytes="nan") + "\n",
    make_line(service="auth", src_bytes="oops") + "\n",
    "0,tcp,http\n",
    make_line(service="") + "\n",  # a symbol no model file can hold
    make_line(service="ht\x1ctp", label="smurf.") + "\n",
)


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.sampled_from(_POOL), max_size=30))
def test_reader_matches_line_by_line_oracle(lines):
    # the two ways the program reads raw records: with labels (preprocess)
    # and with optional labels (detect)
    from chids.kdd import _read_records
    from oracles import read_records_oracle

    for options in ({}, {"labels_optional": True}):
        want = read_records_oracle(lines, FeatureSchema.default(), **options)
        for chunk_lines in (1, 3, 256):
            got = _read_records(
                io.StringIO("".join(lines)), FeatureSchema.default(),
                error_budget=len(lines), chunk_lines=chunk_lines, **options,
            )
            rows = got.take(got.line_rows)
            assert np.array_equal(rows.numeric, want.numeric)
            assert np.array_equal(rows.nominal, want.nominal)
            assert list(rows.labels) == list(want.labels)
            assert np.array_equal(rows.class_codes, want.class_codes)
            assert got.schema.domains == want.schema.domains
            assert got.parse_errors == want.parse_errors


class TestCacheFormat:
    def mixed_dataset(self):
        s = FeatureSchema.default()
        lines = [make_line(), make_line(service="private", src_bytes="0.1", label="neptune.")]
        records = [parse_record(ln, s) for ln in lines]
        records.append(parse_record(make_line(src_bytes="1e-7").rsplit(",", 1)[0], s,
                                    allow_unlabeled=True))
        return Dataset.from_records(records, s)

    @staticmethod
    def header_and_payload(cache):
        magic, header, payload = cache.read_bytes().split(b"\n", 2)
        return magic + b"\n", json.loads(header), payload

    def test_rows_are_serialized_records(self, tmp_path):
        ds = self.mixed_dataset()
        cache = tmp_path / "mixed.cache"
        save_cache(ds, cache)
        magic, header, payload = self.header_and_payload(cache)
        assert magic == b"#chids-dataset v2\n"
        assert header == {"schema": json.loads(json.dumps(ds.schema.to_json_obj())), "rows": 3,
                          "labels": ["normal", "neptune"]}
        index = np.array([0, 1, -1], dtype="<i4")
        assert payload == ds.numeric.tobytes() + ds.nominal.tobytes() + index.tobytes()
        back = load_cache(cache)
        assert list(iter_records(back)) == list(iter_records(ds))
        assert list(back.labels) == ["normal", "neptune", None]
        assert back.class_codes.tolist() == [0, 1, -1]
        assert np.array_equal(back.numeric, ds.numeric)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["features"][2].__setitem__(1, "foo"),
        lambda obj: obj["domains"]["service"].append(obj["domains"]["service"][0]),
        lambda obj: obj["features"][2].append("nominal"),
        lambda obj: obj["features"][2].__setitem__(0, obj["features"][1][0]),
    ], ids=["unknown-kind", "repeated-symbol", "not-a-pair", "repeated-name"])
    def test_bad_schema_header_is_fatal_naming_line_2(self, tmp_path, edit):
        cache = tmp_path / "mixed.cache"
        save_cache(self.mixed_dataset(), cache)
        magic, header, payload = self.header_and_payload(cache)
        edit(header["schema"])
        cache.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(DataError) as exc:
            load_cache(cache)
        assert exc.value.exit_code == 4
        assert str(exc.value).startswith(f"{cache}: line 2: ")

    def test_bad_value_is_fatal_with_its_record(self, tmp_path):
        ds = self.mixed_dataset()
        numeric = ds.numeric.copy()
        src_bytes = ds.schema.numeric_names.index("src_bytes")
        numeric[1, src_bytes] = numeric[2, 0] = np.nan
        cache = tmp_path / "bad.cache"
        save_cache(Dataset(ds.schema, numeric, ds.nominal, ds.labels, ds.class_codes), cache)
        with pytest.raises(DataError, match="record 1: feature src_bytes: nan is not a finite"):
            load_cache(cache)

    def test_unknown_symbol_and_label_rejected(self, tmp_path):
        cache = tmp_path / "bad.cache"
        ds = self.mixed_dataset()
        nominal = ds.nominal.copy()
        nominal[2, ds.schema.nominal_names.index("service")] = -1
        save_cache(Dataset(ds.schema, ds.numeric, nominal, ds.labels, ds.class_codes), cache)
        with pytest.raises(DataError, match="record 2: feature service: code -1 is outside"):
            load_cache(cache)
        labels = ds.labels.copy()
        labels[1] = "quantum_worm."
        save_cache(Dataset(ds.schema, ds.numeric, ds.nominal, labels, ds.class_codes), cache)
        with pytest.raises(UnknownLabel, match="line 2: unknown label 'quantum_worm'"):
            load_cache(cache)


# Numeric values at the edges of float64, and labels in raw form.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
_RAW_LABELS = (None, "normal", "Smurf.", " NEPTUNE. ", "satan", "back.")


@st.composite
def cache_datasets(draw):
    """A dataset of 0-300 rows, 0-5 numeric and 0-3 nominal columns, with
    edge floats, non-ASCII symbols and raw labels."""
    n = draw(st.integers(0, 300))
    n_num, n_nom = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    features = [(f"x{j}", "numeric") for j in range(n_num)] + [(f"s{j}", "nominal")
                                                               for j in range(n_nom)]
    features = draw(st.permutations(features))
    domains = {f"s{j}": draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
               for j in range(n_nom)}
    schema = FeatureSchema(features, domains)
    values = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    numeric = draw(arrays(np.float64, (n, n_num), elements=values))
    nominal = np.zeros((n, n_nom), dtype=np.int32)
    for j, name in enumerate(schema.nominal_names):
        nominal[:, j] = draw(arrays(np.int32, n, elements=st.integers(0, len(domains[name]) - 1)))
    labels = draw(st.lists(st.sampled_from(_RAW_LABELS), min_size=n, max_size=n))
    codes = [-1 if lab is None else int(classify_label(lab)) for lab in labels]
    return Dataset(schema, numeric, nominal, labels, codes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ds=cache_datasets())
def test_cache_round_trip_is_bit_exact(ds):
    with tempfile.TemporaryDirectory() as tmp:
        cache, again, packed = Path(tmp) / "a.cache", Path(tmp) / "b.cache", Path(tmp) / "a.gz"
        save_cache(ds, cache)
        save_cache(ds, again)
        assert cache.read_bytes() == again.read_bytes() == cache_bytes_oracle(ds)
        packed.write_bytes(gzip.compress(cache.read_bytes()))
        for back in (load_cache(cache), load_records(packed)):
            assert back.schema.features == ds.schema.features
            assert back.schema.domains == ds.schema.domains
            assert back.numeric.tobytes() == ds.numeric.tobytes()
            assert back.nominal.tobytes() == ds.nominal.tobytes()
            assert list(back.labels) == [None if lab is None else _label(lab) for lab in ds.labels]
            assert back.class_codes.tolist() == ds.class_codes.tolist()
            assert back.line_rows is None
