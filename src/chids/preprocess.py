"""Dataset conditioning: exact deduplication, seeded stratified sampling,
ineffective-feature pruning, and z-score normalization fitted on training
data only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import artifact
from .errors import DataError, InfeasibleSplit, SchemaMismatch, UnknownFeatureName
from .kdd import AttackClass, Dataset
from .sections import SplitSpec


class DedupeResult(NamedTuple):
    dataset: Dataset
    n_input: int
    n_output: int

    @property
    def reduction_rate(self) -> float:
        return 0.0 if self.n_input == 0 else 1.0 - self.n_output / self.n_input


def dedupe(ds: Dataset) -> DedupeResult:
    """Drop exact duplicates (all features AND the label equal), keeping the
    first occurrence of each and preserving survivor order.

    A dataset read from raw lines holds one row per distinct line text, in
    first-occurrence order, so it is deduplicated as it stands; the input
    count is then its number of lines, `len(ds.line_rows)`.

    Values are compared as numbers, so -0.0 equals 0.0. Row indices are
    sorted over the dataset's own columns, so this holds a few index arrays,
    not a copy of every row. A dataset without duplicates is returned as is."""
    n_input = len(ds) if ds.line_rows is None else len(ds.line_rows)
    n = len(ds)
    if n == 0:
        return DedupeResult(ds, n_input, 0)
    label_code: dict = {}  # label -> small int, None included
    labels = np.fromiter((label_code.setdefault(lab, len(label_code)) for lab in ds.labels.tolist()),
                         dtype=np.int64, count=n)
    columns = [*ds.numeric.T, *ds.nominal.T, labels]
    perm = np.lexsort(columns)  # stable: equal rows stay in index order
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in columns:
        col = col[perm]
        new[1:] |= col[1:] != col[:-1]
    if new.all():
        return DedupeResult(ds, n_input, n)
    keep = np.sort(perm[new])
    return DedupeResult(ds.take(keep), n_input, keep.size)


class SplitResult(NamedTuple):
    train: Dataset
    test: Dataset
    manifest: dict  # the split's census, as manifest.json holds it under `split`


def _round_half_up_two_thirds(n: int) -> int:
    # round-half-up(2n/3), in exact integer arithmetic
    return (4 * n + 3) // 6


def _largest_remainder(slots: int, weights: dict[AttackClass, int]) -> dict[AttackClass, int]:
    """Apportion `slots` proportionally to integer weights; remainders broken
    largest-first, then by class order."""
    total = sum(weights.values())
    if total == 0:
        if slots > 0:
            raise InfeasibleSplit("no records available for proportional fill")
        return {c: 0 for c in weights}
    alloc = {}
    rems = []
    assigned = 0
    for c in sorted(weights, key=int):
        num = slots * weights[c]
        alloc[c] = num // total
        assigned += alloc[c]
        rems.append((-(num % total), int(c), c))
    for _, _, c in sorted(rems)[: slots - assigned]:
        alloc[c] += 1
    return alloc


def stratified_split(ds: Dataset, spec: SplitSpec) -> SplitResult:
    """Deterministic seeded split of a deduplicated dataset.

    Minority classes contribute all their records, round-half-up(2n/3) to
    train and the rest to test; remaining slots are filled from the other
    classes by largest-remainder apportionment over their frequencies.
    Each class's records are drawn from one seeded permutation per class, in
    class order: numpy's `Generator(PCG64(seed)).permutation`, bit for bit,
    from chids's own port (`pcg64`). Output record order follows the input
    dataset order.
    """
    hist = ds.class_histogram()
    if spec.train_size + spec.test_size > len(ds):
        raise InfeasibleSplit(
            f"requested {spec.train_size}+{spec.test_size} records, dataset has {len(ds)}"
        )
    minority = tuple(spec.minority_classes)
    majority = tuple(c for c in AttackClass if c not in minority)

    train_quota: dict[AttackClass, int] = {}
    test_quota: dict[AttackClass, int] = {}
    if spec.test_size == 0:
        # Degenerate plan: everything requested goes to the one split, so
        # minority classes are enumerated into train outright.
        for c in minority:
            train_quota[c] = hist[c]
            test_quota[c] = 0
    else:
        for c in minority:
            t = _round_half_up_two_thirds(hist[c])
            train_quota[c] = t
            test_quota[c] = hist[c] - t

    min_train = sum(train_quota.values())
    min_test = sum(test_quota.values())
    if min_train > spec.train_size or min_test > spec.test_size:
        raise InfeasibleSplit(
            f"minority quotas ({min_train} train, {min_test} test) exceed requested sizes"
        )

    maj_weights = {c: hist[c] for c in majority}
    train_fill = _largest_remainder(spec.train_size - min_train, maj_weights)
    test_fill = _largest_remainder(spec.test_size - min_test, maj_weights)
    for c in majority:
        train_quota[c] = train_fill[c]
        test_quota[c] = test_fill[c]
        if train_quota[c] + test_quota[c] > hist[c]:
            raise InfeasibleSplit(
                f"class {c.tag}: need {train_quota[c]}+{test_quota[c]} records, have {hist[c]}"
            )

    from .pcg64 import Permuter  # only the split loads it: `detect` imports this module too

    rng = Permuter(spec.seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    manifest = {
        "seed": spec.seed,
        "train_size": spec.train_size,
        "test_size": spec.test_size,
        "minority_classes": [c.tag for c in minority],
        "rounding_rule": "minority train = round-half-up(2n/3); majority = largest-remainder proportional fill",
        "per_class": {},
        "notes": [],
    }
    for c in AttackClass:
        pool = np.flatnonzero(ds.class_codes == int(c))
        pool = pool[rng.permutation(pool.size)]
        t, s = train_quota[c], test_quota[c]
        train_idx.append(pool[:t])
        test_idx.append(pool[t:t + s])
        manifest["per_class"][c.tag] = {"available": int(hist[c]), "train": t, "test": s}
    if spec.test_size == 0:
        manifest["notes"].append("test_size=0: minority classes fully enumerated into train")

    train = ds.take(np.sort(np.concatenate(train_idx)))
    test = ds.take(np.sort(np.concatenate(test_idx)))
    return SplitResult(train, test, manifest)


def prune_features(ds: Dataset, names) -> Dataset:
    """Remove the named features, reindexing the schema; record count and
    labels are untouched."""
    names = list(names)
    unknown = [n for n in names if n not in ds.schema.names]
    if unknown:
        raise UnknownFeatureName(f"not in schema: {unknown}")
    keep = [n for n in ds.schema.names if n not in set(names)]
    return select_features(ds, keep)


def select_features(ds: Dataset, keep) -> Dataset:
    """Keep only the named features (original order), reindexing the schema."""
    keep = list(keep)
    unknown = [n for n in keep if n not in ds.schema.names]
    if unknown:
        raise UnknownFeatureName(f"not in schema: {unknown}")
    schema = ds.schema.subset(keep)
    num_cols = [ds.schema.slot[n][1] for n in schema.numeric_names]
    nom_cols = [ds.schema.slot[n][1] for n in schema.nominal_names]
    numeric = ds.numeric[:, num_cols] if num_cols else np.zeros((len(ds), 0))
    nominal = ds.nominal[:, nom_cols] if nom_cols else np.zeros((len(ds), 0), dtype=np.int32)
    return Dataset(schema, numeric, nominal, ds.labels, ds.class_codes, ds.taxonomy)


class NormalizationStats:
    """Per-numeric-feature mean and population standard deviation, fitted on
    training data; nominal features pass through unchanged. Every value is
    finite, and a sigma of 0 marks a zero-spread feature."""

    def __init__(self, feature_names, mu, sigma, n: int):
        self.feature_names = tuple(feature_names)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.n = int(n)
        if self.mu.shape != (len(self.feature_names),) or self.sigma.shape != self.mu.shape:
            raise ValueError("stats shape mismatch")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if (self.sigma < 0).any():
            raise ValueError("negative sigma")

    def to_json_obj(self) -> dict:
        return {
            "features": list(self.feature_names),
            "mu": [repr(float(v)) for v in self.mu],
            "sigma": [repr(float(v)) for v in self.sigma],
            "n": self.n,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NormalizationStats":
        mu, sigma = ([artifact.finite(v) for v in obj[key]] for key in ("mu", "sigma"))
        return cls(obj["features"], mu, sigma, obj["n"])


def fit_normalizer(train: Dataset) -> NormalizationStats:
    """Mean and population standard deviation of every numeric feature."""
    if len(train) == 0:
        raise ValueError("cannot fit normalization statistics on an empty dataset")
    with np.errstate(over="ignore"):  # an overflow is reported below
        mu = train.numeric.mean(axis=0)
        sigma = np.sqrt(((train.numeric - mu) ** 2).mean(axis=0))
    finite = np.isfinite(mu) & np.isfinite(sigma)
    if not finite.all():
        huge = [n for n, ok in zip(train.schema.numeric_names, finite) if not ok]
        raise DataError(f"features {huge}: values too large to normalize")
    return NormalizationStats(train.schema.numeric_names, mu, sigma, len(train))


def apply_normalizer(ds: Dataset, stats: NormalizationStats) -> Dataset:
    """Map numeric values to (v - mu) / sigma; zero-spread features map to 0."""
    if tuple(ds.schema.numeric_names) != stats.feature_names:
        raise SchemaMismatch(
            f"normalization fitted for {stats.feature_names}, dataset has {ds.schema.numeric_names}"
        )
    safe = np.where(stats.sigma == 0.0, 1.0, stats.sigma)
    numeric = (ds.numeric - stats.mu) / safe
    numeric[:, stats.sigma == 0.0] = 0.0
    return Dataset(ds.schema, numeric, ds.nominal, ds.labels, ds.class_codes, ds.taxonomy)
