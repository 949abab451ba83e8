"""The bytes of every ``run_report`` output, from hand-made result payloads.

The payloads are written by hand, not by training, so the pinned digests do
not depend on the platform's BLAS or on the training code: they change only
when the report's tables, figure data or summary change.
"""

import hashlib
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from infmix.harness import run_report

VARIANCE_EDGES = [0.0, 0.08333333333333333, 0.16666666666666666, 0.25]
ENTROPY_EDGES = [0.0, 0.7675283643313486, 1.5350567286626973,
                 2.302585092994046]
MIXING_EDGES = [1e-08, 3.1622776601683795e-05, 1.0]


def trial(model, seed, accuracy, kl_weight=1.0, prior_variance=1.0):
    stochastic = model in ("ml", "vi")
    run_id = (f"{model}_synthetic_kl{kl_weight:g}_pv{prior_variance:g}"
              if stochastic else f"{model}_synthetic")
    payload = {
        "schema_version": 1, "kind": "trial", "run_id": run_id,
        "model": model, "dataset": "synthetic", "seed": seed,
        "config": {"model": model, "kl_weight": kl_weight,
                   "prior_variance": prior_variance},
        "clean_accuracy": accuracy,
        "mean_max_variance": 0.01 + 0.002 * seed,
        "mean_entropy": 0.3 + 0.05 * seed,
        "mean_max_variance_correct": 0.008 + 0.001 * seed,
        # A trial with no wrong predictions has no wrong-group means.
        "mean_max_variance_wrong": 0.04 + 0.003 * seed if seed else None,
        "mean_entropy_correct": 0.25 + 0.01 * seed,
        "mean_entropy_wrong": 1.1 + 0.1 * seed if seed else None,
        "histograms": {
            "max_variance": {"bin_edges": VARIANCE_EDGES, "counts": {
                "correct": [seed + 3, 2 * seed, 5], "wrong": [1, seed, 0]}},
            "entropy": {"bin_edges": ENTROPY_EDGES, "counts": {
                "correct": [7 - seed, seed, 1], "wrong": [0, 1, seed]}},
        },
    }
    if stochastic:
        payload["mixing_variance"] = [
            {"layer": layer, "histogram": {"bin_edges": MIXING_EDGES,
                                           "counts": [seed + layer, 9 - seed]}}
            for layer in range(2)]
    return payload


# Files load in name order; the "a_" names put cells out of table order.
PAYLOADS = {
    "ml_kl1_seed0.json": trial("ml", 0, 0.9375),
    "ml_kl1_seed1.json": trial("ml", 1, 0.875),
    "ml_kl1_seed2.json": trial("ml", 2, 0.90625),
    "ml_kl0.1_seed0.json": trial("ml", 0, 0.8125, kl_weight=0.1),
    "a_ml_pv3_seed0.json": trial("ml", 0, 0.84375, prior_variance=3.0),
    "vi_kl1_seed0.json": trial("vi", 0, 0.9),
    "vi_kl1_seed1.json": trial("vi", 1, 0.8),
    "deterministic_seed0.json": trial("deterministic", 0, 0.95),
    "deterministic_seed1.json": trial("deterministic", 1, 0.9),
    "a_dropout_seed0.json": trial("dropout", 0, 0.925),
    "sweep_kl_weight_ml_synthetic.json": {
        "schema_version": 1, "kind": "sweep", "config": {"sweep": "kl_weight"},
        "rows": [{"sweep": "kl_weight", "value": 1.0, "mean_accuracy": 0.9}]},
    "ood_ml.json": {
        "schema_version": 1, "kind": "ood", "run_id": "ml_synthetic_kl1_pv1",
        "model": "ml", "dataset": "synthetic", "config": {},
        "mean_auroc_variance": 0.71875, "std_auroc_variance": 0.03125,
        "mean_auroc_entropy": 0.8125, "std_auroc_entropy": 0.0},
    "ood_vi.json": {
        "schema_version": 1, "kind": "ood", "run_id": "vi_synthetic_kl1_pv1",
        "model": "vi", "dataset": "synthetic", "config": {},
        "mean_auroc_variance": 0.6, "std_auroc_variance": 0.1,
        "mean_auroc_entropy": 2 / 3, "std_auroc_entropy": 0.05},
    "attack_ml_s1.json": {
        "schema_version": 1, "kind": "attack_curve",
        "run_id": "ml_synthetic_kl1_pv1", "model": "ml",
        "dataset": "synthetic", "config": {"eps_grid": [0.0, 0.1, 0.3]},
        "n_attack_samples": 1, "n_attacked": 200,
        "mean_curve": [0.9, 0.5, 0.125], "std_curve": [0.0, 0.02, 1 / 3]},
    "detect_ml.json": {
        "schema_version": 1, "kind": "detection",
        "run_id": "ml_synthetic_kl1_pv1", "model": "ml",
        "dataset": "synthetic", "config": {}, "epsilon": 0.25,
        "mean_auroc_variance": 0.75, "std_auroc_variance": 0.0,
        "mean_auroc_entropy": 0.78125, "std_auroc_entropy": 0.0,
        "mean_auroc_variance_balanced": 0.7, "std_auroc_variance_balanced": 0.0,
        "mean_auroc_entropy_balanced": None, "std_auroc_entropy_balanced": 0.0},
}

# First 16 hex digits of each output file's SHA-256, in the order written.
REPORT_DIGESTS = {
    "table_accuracy_by_prior.csv": "223fb9caaccaefca",
    "table_accuracy_by_kl_weight.csv": "b27a7fb6f3924e36",
    "table_baseline_accuracy.csv": "9e46ee662a974024",
    "table_ood_auroc.csv": "634d15eae286d5e8",
    "table_adv_detection_auroc.csv": "e9f80e6db31029b9",
    "fig_robustness_ml_synthetic_kl1_pv1_s1.csv": "874df13e87831906",
    "fig_max_variance_hist_deterministic_synthetic.csv": "ddd400568e34401b",
    "fig_entropy_hist_deterministic_synthetic.csv": "4f087fd1998548bf",
    "fig_max_variance_hist_dropout_synthetic.csv": "c4a25559c096f8fd",
    "fig_entropy_hist_dropout_synthetic.csv": "f9b22978d89a14bf",
    "fig_max_variance_hist_ml_synthetic_kl0.1_pv1.csv": "c4a25559c096f8fd",
    "fig_entropy_hist_ml_synthetic_kl0.1_pv1.csv": "f9b22978d89a14bf",
    "fig_mixing_variance_layer0_ml_synthetic_kl0.1_pv1.csv":
        "8dd154fc730a0e05",
    "fig_mixing_variance_layer1_ml_synthetic_kl0.1_pv1.csv":
        "1e434c6e7e20d550",
    "fig_max_variance_hist_ml_synthetic_kl1_pv1.csv": "6d0f56de79b3ab78",
    "fig_entropy_hist_ml_synthetic_kl1_pv1.csv": "1a71b209083676e5",
    "fig_mixing_variance_layer0_ml_synthetic_kl1_pv1.csv": "d400100ba1504870",
    "fig_mixing_variance_layer1_ml_synthetic_kl1_pv1.csv": "6a42308ff4e45576",
    "fig_max_variance_hist_ml_synthetic_kl1_pv3.csv": "c4a25559c096f8fd",
    "fig_entropy_hist_ml_synthetic_kl1_pv3.csv": "f9b22978d89a14bf",
    "fig_mixing_variance_layer0_ml_synthetic_kl1_pv3.csv": "8dd154fc730a0e05",
    "fig_mixing_variance_layer1_ml_synthetic_kl1_pv3.csv": "1e434c6e7e20d550",
    "fig_max_variance_hist_vi_synthetic_kl1_pv1.csv": "ddd400568e34401b",
    "fig_entropy_hist_vi_synthetic_kl1_pv1.csv": "4f087fd1998548bf",
    "fig_mixing_variance_layer0_vi_synthetic_kl1_pv1.csv": "7dbfdbe01659ed85",
    "fig_mixing_variance_layer1_vi_synthetic_kl1_pv1.csv": "87fcf7ec75f6c065",
    "aggregate_deterministic_synthetic.csv": "231733cc9e5fee2e",
    "aggregate_ml_synthetic_kl1_pv1.csv": "33c087b730d4f028",
    "aggregate_vi_synthetic_kl1_pv1.csv": "98c75fd343bc65a1",
    "summary.txt": "21248e55140c0992",
}


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    # A relative results directory keeps the summary's first line fixed.
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    for name, payload in PAYLOADS.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    outcome = run_report("results")
    assert outcome["report_dir"] == os.path.join("results", "report")
    assert outcome["warnings"] == []
    digests = {}
    for name in outcome["written"]:
        with open(os.path.join(outcome["report_dir"], name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()[:16]
    assert list(digests.items()) == list(REPORT_DIGESTS.items())
    assert sorted(os.listdir(outcome["report_dir"])) == sorted(REPORT_DIGESTS)


def test_partial_report_names_what_is_missing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    for name in ("deterministic_seed0.json", "a_dropout_seed0.json"):
        with open(os.path.join("results", name), "w") as f:
            json.dump(PAYLOADS[name], f)
    outcome = run_report("results")
    assert outcome["written"] == [
        "table_baseline_accuracy.csv",
        "fig_max_variance_hist_deterministic_synthetic.csv",
        "fig_entropy_hist_deterministic_synthetic.csv",
        "fig_max_variance_hist_dropout_synthetic.csv",
        "fig_entropy_hist_dropout_synthetic.csv", "summary.txt"]
    with open(os.path.join("results", "report", "summary.txt")) as f:
        assert f.read() == (
            "result files consolidated from: results\n\n"
            "warning: no stochastic-model trials found\n"
            "warning: no ood results found\n"
            "warning: no detection results found\n"
            "warning: no attack curves found\n\n")


def test_run_with_one_trial_writes_no_aggregate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    for name in ("ml_kl0.1_seed0.json", "vi_kl1_seed0.json",
                 "vi_kl1_seed1.json"):
        with open(os.path.join("results", name), "w") as f:
            json.dump(PAYLOADS[name], f)
    written = run_report("results")["written"]
    assert [n for n in written if n.startswith("aggregate_")] == [
        "aggregate_vi_synthetic_kl1_pv1.csv"]


def test_payloads_the_report_cannot_read_are_skipped_and_named(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    trial_ml = PAYLOADS["ml_kl1_seed0.json"]
    bad = {"a_trial.json": {"kind": "trial"},
           "a_ood.json": {"kind": "ood", "run_id": "x"},
           "a_trial_v1.json": {"schema_version": 1, "kind": "trial"},
           "a_ood_v1.json": {"schema_version": 1, "kind": "ood", "run_id": "x"},
           "a_v2.json": {**PAYLOADS["ood_ml.json"], "schema_version": 2},
           # Nested and null fields the report reads.
           "b_trial_no_config.json": {**trial_ml, "config": {}},
           "b_ood_null.json": {**PAYLOADS["ood_ml.json"],
                               "mean_auroc_variance": None},
           "b_trial_no_entropy.json": {**trial_ml, "histograms": {
               "max_variance": trial_ml["histograms"]["max_variance"]}},
           "b_attack_no_eps_grid.json": {**PAYLOADS["attack_ml_s1.json"],
                                         "config": {}}}
    for name, payload in {**PAYLOADS, **bad}.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    outcome = run_report("results")
    assert outcome["warnings"] == [
        "skipped result file a_ood.json: schema_version None (expected 1)",
        "skipped result file a_ood_v1.json: ood result lacks "
        "mean_auroc_variance, mean_auroc_entropy",
        "skipped result file a_trial.json: schema_version None (expected 1)",
        "skipped result file a_trial_v1.json: trial result lacks run_id, "
        "model, dataset, config.kl_weight, config.prior_variance, "
        "clean_accuracy, mean_max_variance, mean_entropy, "
        "histograms.max_variance, histograms.entropy",
        "skipped result file a_v2.json: schema_version 2 (expected 1)",
        "skipped result file b_attack_no_eps_grid.json: attack_curve result "
        "lacks config.eps_grid",
        "skipped result file b_ood_null.json: ood result lacks "
        "mean_auroc_variance",
        "skipped result file b_trial_no_config.json: trial result lacks "
        "config.kl_weight, config.prior_variance",
        "skipped result file b_trial_no_entropy.json: trial result lacks "
        "histograms.entropy"]
    with open(os.path.join("results", "report", "summary.txt")) as f:
        summary = f.read()
    assert all(f"warning: {w}" in summary for w in outcome["warnings"])
    # Every other output is byte for byte the report of the good payloads.
    for name, digest in REPORT_DIGESTS.items():
        if name != "summary.txt":
            with open(os.path.join("results", "report", name), "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest()[:16] == digest


def test_accuracy_tables_hold_the_other_axis_at_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    for name, payload in PAYLOADS.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    run_report("results")
    # The ml cell at 1 counts the three kl_weight=1, prior_variance=1 trials:
    # the trial at prior_variance 3 is in no KL cell, the one at kl_weight
    # 0.1 in no prior cell.
    for table, other in (("table_accuracy_by_prior.csv", "3.0000,1,0.8438"),
                         ("table_accuracy_by_kl_weight.csv", "0.1000,1,0.8125")):
        with open(os.path.join("results", "report", table)) as f:
            rows = [r for r in f.read().splitlines() if ",ml," in r]
        assert sorted(rows) == sorted([f"synthetic,ml,{other},0.0000",
                                       "synthetic,ml,1.0000,3,0.9062,0.0312"])

def test_wrong_types_are_skipped_and_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    trial_ml = PAYLOADS["ml_kl1_seed0.json"]
    entropy = trial_ml["histograms"]["entropy"]
    bad = {"b_ood_str.json": {**PAYLOADS["ood_ml.json"],
                              "mean_auroc_variance": "0.7"},
           "b_ood_bool.json": {**PAYLOADS["ood_ml.json"],
                               "mean_auroc_entropy": True},
           "b_attack_eps_str.json": {**PAYLOADS["attack_ml_s1.json"],
                                     "config": {"eps_grid": ["0", 0.1, 0.3]}},
           "b_trial_bad_hist.json": {**trial_ml, "histograms": {
               "max_variance": trial_ml["histograms"]["max_variance"],
               "entropy": {**entropy, "counts": {"correct": [1, 2, 3]}}}},
           "b_detect_balanced_str.json": {**PAYLOADS["detect_ml.json"],
                                          "mean_auroc_entropy_balanced": "x"},
           "b_kind_list.json": {**PAYLOADS["ood_ml.json"], "kind": ["ood"]}}
    for name, payload in {**PAYLOADS, **bad}.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    outcome = run_report("results")
    assert outcome["warnings"] == [
        "skipped result file b_attack_eps_str.json: attack_curve result has a "
        "list at config.eps_grid (expected a list of numbers)",
        "skipped result file b_detect_balanced_str.json: detection result has "
        "a str at mean_auroc_entropy_balanced (expected a number or null)",
        "skipped result file b_ood_bool.json: ood result has a bool at "
        "mean_auroc_entropy (expected a number)",
        "skipped result file b_ood_str.json: ood result has a str at "
        "mean_auroc_variance (expected a number)",
        "skipped result file b_trial_bad_hist.json: trial result has a dict "
        "at histograms.entropy (expected a histogram of correct and wrong "
        "counts)"]
    for name, digest in REPORT_DIGESTS.items():
        if name != "summary.txt":
            with open(os.path.join("results", "report", name), "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest()[:16] == digest


def test_variance_gap_holds_both_axes_at_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    payloads = {"ml_kl1_seed1.json": trial("ml", 1, 0.9),
                "ml_kl1_seed1_again.json": trial("ml", 1, 0.9),
                "ml_kl0.1_seed3.json": trial("ml", 3, 0.8, kl_weight=0.1),
                "ml_pv3_seed3.json": trial("ml", 3, 0.8, prior_variance=3.0)}
    for name, payload in payloads.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    run_report("results")
    with open(os.path.join("results", "report", "summary.txt")) as f:
        lines = f.read().splitlines()
    # Each kl_weight=1, prior_variance=1 trial has the gap 0.043 - 0.009;
    # the seed-3 trials (0.049 - 0.011) hold one axis elsewhere.
    assert "variance gap wrong-correct for ml: 0.03400 " \
           "(positive means wrong is higher)" in lines


# The dotted paths the report needs of each kind, in the order its warnings
# name them; schema_version is checked for every kind it reads.
REPORT_READS = {
    "trial": ("schema_version", "run_id", "model", "dataset",
              "config.kl_weight", "config.prior_variance", "clean_accuracy",
              "mean_max_variance", "mean_entropy", "histograms.max_variance",
              "histograms.entropy"),
    "ood": ("schema_version", "run_id", "mean_auroc_variance",
            "mean_auroc_entropy"),
    "attack_curve": ("schema_version", "run_id", "config.eps_grid",
                     "n_attack_samples", "mean_curve", "std_curve"),
    "detection": ("schema_version", "run_id", "epsilon",
                  "mean_auroc_variance", "mean_auroc_entropy"),
}
# The fields the report reads where they are present and not null.
REPORT_OPTIONAL = {
    "trial": ("mean_max_variance_correct", "mean_max_variance_wrong",
              "mixing_variance"),
    "detection": ("mean_auroc_entropy_balanced",),
}
# The fields of those that hold strings; every other holds no string.
REPORT_TEXT = ("run_id", "model", "dataset")
DELETE = object()

# (file name, dotted key) for every top-level and config key of PAYLOADS.
KEYS = [(name, key) for name, payload in PAYLOADS.items()
        for key in [*payload,
                    *(f"config.{k}" for k in payload.get("config", {}))]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KEYS),
       st.sampled_from([DELETE, None, "0.7", ["0.7"], {"0.7": 0.7}]),
       st.sampled_from(["0_", "z_"]))
def test_one_missing_or_null_key_never_raises(key_of, value, prefix):
    """A copy of one payload with one key deleted, nulled, or set to a
    string, a list or a dict, added to the rest: the copy is skipped and
    named exactly when the report reads that key or a field under it, and
    then every other output is unchanged."""
    source, key = key_of
    mutant = json.loads(json.dumps(PAYLOADS[source]))
    *parents, leaf = key.split(".")
    holder = mutant[parents[0]] if parents else mutant
    if value is DELETE:
        del holder[leaf]
    else:
        holder[leaf] = value
    mutant_name = prefix + source
    with tempfile.TemporaryDirectory() as results:
        for name, payload in {**PAYLOADS, mutant_name: mutant}.items():
            with open(os.path.join(results, name), "w") as f:
                json.dump(payload, f)
        outcome = run_report(results)
        kind = PAYLOADS[source]["kind"]
        read = [p for p in REPORT_READS.get(kind, ())
                if p == key or p.startswith(key + ".")]
        typed = value not in (DELETE, None) and (
            key in read or key in REPORT_OPTIONAL.get(kind, ()))
        if typed and isinstance(value, str) and key in REPORT_TEXT:
            read, typed = [], False     # a string where one belongs
        if key == "kind" or not (read or typed):
            # A file without a kind is not a result file.
            assert outcome["warnings"] == []
            return
        if key == "schema_version":
            why = f"schema_version {None if value is DELETE else value!r} " \
                  f"(expected 1)"
        elif typed:
            why = f"{kind} result has a {type(value).__name__} at {key} " \
                  f"(expected "
        else:
            why = f"{kind} result lacks {', '.join(read)}"
        [warning] = outcome["warnings"]
        assert warning.startswith(f"skipped result file {mutant_name}: {why}")
        assert typed or warning == f"skipped result file {mutant_name}: {why}"
        assert sorted(outcome["written"]) == sorted(REPORT_DIGESTS)
        for name, digest in REPORT_DIGESTS.items():
            if name != "summary.txt":
                with open(os.path.join(outcome["report_dir"], name), "rb") as f:
                    assert hashlib.sha256(f.read()).hexdigest()[:16] == digest


def test_lists_of_the_wrong_length_are_skipped_and_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("results")
    trial_ml = json.loads(json.dumps(PAYLOADS["ml_kl1_seed1.json"]))
    trial_ml["histograms"]["entropy"]["counts"]["correct"] = [1]
    trial_vi = json.loads(json.dumps(PAYLOADS["vi_kl1_seed0.json"]))
    trial_vi["mixing_variance"][1]["histogram"]["counts"].append(4)
    bad = {"b_attack_short.json": {**PAYLOADS["attack_ml_s1.json"],
                                   "mean_curve": [0.9]},
           "b_attack_long_eps.json": {**PAYLOADS["attack_ml_s1.json"],
                                      "config": {"eps_grid": [0, 0.1, 0.2, 0.3]}},
           "b_trial_counts.json": trial_ml,
           "b_trial_mixing.json": trial_vi}
    for name, payload in {**PAYLOADS, **bad}.items():
        with open(os.path.join("results", name), "w") as f:
            json.dump(payload, f)
    outcome = run_report("results")
    assert outcome["warnings"] == [
        "skipped result file b_attack_long_eps.json: attack_curve result has "
        "3 entries at mean_curve (expected 4, one per config.eps_grid entry), "
        "3 entries at std_curve (expected 4, one per config.eps_grid entry)",
        "skipped result file b_attack_short.json: attack_curve result has "
        "1 entries at mean_curve (expected 3, one per config.eps_grid entry)",
        "skipped result file b_trial_counts.json: trial result has 1 entries "
        "at histograms.entropy.counts.correct (expected 3, one per bin)",
        "skipped result file b_trial_mixing.json: trial result has 3 entries "
        "at mixing_variance.1.histogram.counts (expected 2, one per bin)"]
    for name, digest in REPORT_DIGESTS.items():
        if name != "summary.txt":
            with open(os.path.join("results", "report", name), "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest()[:16] == digest


def list_paths(value, path=()):
    """The path (keys and indices) of every list inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return ([path] if isinstance(value, list) else []) + [
        p for key, v in items for p in list_paths(v, path + (key,))]


# The lists whose lengths the report checks against another list's: each
# count list against its bin edges, each curve against the eps grid.  The
# list of mixing-variance layers has no length it must match.
LENGTH_CHECKED = {
    "trial": ("histograms.", "mixing_variance."),
    "attack_curve": ("config.eps_grid", "mean_curve", "std_curve"),
}
LISTS = [(name, path) for name, payload in PAYLOADS.items()
         for path in list_paths(payload)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LISTS), st.booleans(), st.sampled_from(["0_", "z_"]))
def test_one_list_shortened_or_lengthened_never_raises(list_of, longer, prefix):
    """A copy of one payload with one list one entry shorter or longer,
    added to the rest: the copy is skipped and named exactly when the
    report checks that list's length against another's, and then every
    other output is unchanged."""
    source, path = list_of
    mutant = json.loads(json.dumps(PAYLOADS[source]))
    held = mutant
    for key in path:
        held = held[key]
    if longer:
        held.append(json.loads(json.dumps(held[-1])))
    else:
        held.pop()
    mutant_name = prefix + source
    with tempfile.TemporaryDirectory() as results:
        for name, payload in {**PAYLOADS, mutant_name: mutant}.items():
            with open(os.path.join(results, name), "w") as f:
                json.dump(payload, f)
        outcome = run_report(results)
        kind = PAYLOADS[source]["kind"]
        dotted = ".".join(map(str, path))
        if not dotted.startswith(LENGTH_CHECKED.get(kind, ())):
            assert outcome["warnings"] == []
            return
        [warning] = outcome["warnings"]
        assert warning.startswith(
            f"skipped result file {mutant_name}: {kind} result has ")
        assert " entries at " in warning
        assert sorted(outcome["written"]) == sorted(REPORT_DIGESTS)
        for name, digest in REPORT_DIGESTS.items():
            if name != "summary.txt":
                with open(os.path.join(outcome["report_dir"], name), "rb") as f:
                    assert hashlib.sha256(f.read()).hexdigest()[:16] == digest
