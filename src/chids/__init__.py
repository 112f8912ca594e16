"""chids: hybrid intrusion detection toolkit for WSN cluster heads.

Two cooperating stages: a streaming anomaly rule engine that filters cluster
message events, and a PART-style rule-induction misuse classifier trained on
KDD-format connection records after a six-step preprocessing pipeline
(dedupe, stratified sampling, feature pruning, chi-squared/IGR selection,
z-score normalization, classifier fit).
"""

__version__ = "0.1.0"
