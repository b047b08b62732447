"""End-to-end CLI tests: every subcommand through main(argv) on tmp files."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nagatag.cli import main
from nagatag.corpus import TagSet, parse_tagged, read_corpus, serialize_tagged
from nagatag.crf import load_model, save_model
from nagatag.datagen import SynthConfig, generate
from tests.helpers import (
    attribute_index_oracle,
    extract_token_features,
    refuse_to_replace,
    sentence_attributes,
    zero_model,
)

SMALL_TAGS = ("N", "V", "S")

# Deliberately repetitive so a short training run separates the tags.
SMALL_CORPUS = """\
dora/N ase/V ./S
saki/N ase/V ./S
dora/N loi/V saki/N ./S
saki/N loi/V dora/N ./S
dora/N ase/V saki/N loi/V ./S
"""


@pytest.fixture
def small(tmp_path):
    tagset_file = tmp_path / "tags.txt"
    tagset_file.write_text("\n".join(SMALL_TAGS) + "\n", encoding="utf-8")
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text(SMALL_CORPUS, encoding="utf-8")
    return tmp_path, str(tagset_file), str(corpus_file)


@pytest.fixture
def trained(small):
    tmp_path, tagset_file, corpus_file = small
    model_file = str(tmp_path / "model.json")
    code = main(
        [
            "train", corpus_file,
            "--model", model_file,
            "--tagset", tagset_file,
            "--c1", "0", "--c2", "0.01", "--max-iter", "80",
        ]
    )
    assert code == 0
    return tmp_path, tagset_file, corpus_file, model_file


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["stats", "x.txt", "--frobnicate"]) == 1


def test_bad_fraction_is_usage_error(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    code = main(
        ["split", corpus_file, "a.txt", "b.txt", "--fraction", "1.5"]
    )
    assert code == 1
    assert "fraction" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_missing_file_is_data_error(capsys):
    code = main(["stats", "no-such-file.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("word-without-tag\n", encoding="utf-8")
    assert main(["stats", str(bad)]) == 2


def test_unknown_tag_is_data_error(small):
    tmp_path, tagset_file, corpus_file = small
    other = tmp_path / "other.txt"
    other.write_text("dora/WRONG ./S\n", encoding="utf-8")
    assert main(["stats", str(other), "--tagset", tagset_file]) == 2


# characters that str.splitlines takes for line ends, and str.split() for
# whitespace; universal-newline reading does not end a line at them
INLINE_BREAKS = ("\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


@pytest.mark.parametrize("char", INLINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in INLINE_BREAKS])
def test_only_line_ends_end_a_line(trained, capsys, char):
    tmp_path, tagset_file, _, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text(f"dora{char}ase .\nsaki loi\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert [len(line.split()) for line in out.split("\n")] == [3, 2, 0]
    bad = tmp_path / "bad.txt"
    bad.write_text(f"dora/N ase/V\nsaki/N{char}c/X\n", encoding="utf-8")
    assert main(["stats", str(bad), "--tagset", tagset_file]) == 2
    assert "line 2: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: {k: v for k, v in doc.items() if k != "tagset"},
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], bogus=1)),
        lambda doc: dict(doc, training={"c1": 0.1}),
        lambda doc: [doc],
        lambda doc: dict(doc, state_weights=[[1.5, 0, 1.0]]),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], prefix_max=2.5)),
        lambda doc: dict(doc, tagset="".join(doc["tagset"])),
        # one distinct character per attribute, so only the type is wrong
        lambda doc: dict(
            doc, attributes="".join(chr(0x4E00 + i) for i in range(len(doc["attributes"])))
        ),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], word=False)),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], word="false")),
        lambda doc: dict(doc, state_weights=[[0, 0, "1.0"]]),
        lambda doc: dict(doc, state_weights=[[0, 0, True]]),
        lambda doc: dict(doc, transitions=[["0.5", *row[1:]] if i == 0 else row
                                           for i, row in enumerate(doc["transitions"])]),
        lambda doc: dict(doc, begin=[True, *doc["begin"][1:]]),
        lambda doc: dict(doc, training={"c1": "x", "c2": None, "iterations": "many",
                                        "final_objective": []}),
        lambda doc: dict(doc, training=dict(doc["training"], iterations=True)),
        lambda doc: dict(doc, training=dict(doc["training"], extra=1)),
        # past numpy's 32 array dimensions
        lambda doc: dict(doc, begin=functools.reduce(lambda v, _: [v], range(33), 0.0)),
        # JSON integers beyond float range
        lambda doc: dict(doc, transitions=[[10**400, *row[1:]] if i == 0 else row
                                           for i, row in enumerate(doc["transitions"])]),
        lambda doc: dict(doc, state_weights=[[0, 0, 10**400]]),
        lambda doc: dict(doc, format_version=True),
        lambda doc: dict(doc, state_weights=doc["state_weights"] + doc["state_weights"][:1]),
        # affix lengths other than the template's, or of another JSON type
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], prefix_max=2)),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], prefix_max=10**12)),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], prefix_max=3.0)),
        lambda doc: dict(doc, feature_config=dict(doc["feature_config"], prefix_max=True)),
        lambda doc: dict(doc, feature_config={"prefix_max": doc["feature_config"]["prefix_max"]}),
    ],
    ids=["missing-tagset", "unknown-feature-key", "incomplete-training", "top-level-list",
         "fractional-state-index", "fractional-prefix-max", "string-tagset",
         "string-attributes", "false-feature-flag", "string-feature-flag",
         "string-state-weight", "bool-state-weight", "string-transition", "bool-begin",
         "mistyped-training", "bool-training-iterations", "extra-training-key",
         "deep-begin", "huge-int-transition", "huge-int-state-weight", "bool-format-version",
         "duplicate-state-record", "other-prefix-max", "huge-prefix-max", "float-prefix-max",
         "bool-prefix-max", "missing-suffix-max"],
)
def test_malformed_model_is_data_error(trained, capsys, mutate):
    tmp_path, tagset_file, corpus_file, model_file = trained
    with open(model_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(mutate(doc)), encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nagatag: error:" in err


@pytest.mark.parametrize(
    "records",
    [[[0, 0]], [[0, 0, 1.0, 2]], "abc", {"a": 1}, [[0, 0, 1.0], [0, 0, 1.0]]],
    ids=["pair", "four-fields", "string", "object", "duplicate"],
)
def test_malformed_state_weights_name_the_field(trained, capsys, records):
    tmp_path, tagset_file, corpus_file, model_file = trained
    with open(model_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad-model.json"
    bad.write_text(json.dumps(dict(doc, state_weights=records)), encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nagatag: error:") and "state_weights" in err


def test_deeply_nested_model_is_data_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("[" * 100_000, encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", str(model)]) == 2
    assert "nagatag: error: model file nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--c1", "--c2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_regularizer_is_usage_error(small, capsys, flag, value):
    tmp_path, tagset_file, corpus_file = small
    model_file = tmp_path / "model.json"
    code = main(["train", corpus_file, "--model", str(model_file), "--tagset", tagset_file,
                 flag, value])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not model_file.exists()


def test_empty_tagset_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", str(empty), "--tagset", str(empty)]) == 2
    assert "nagatag: error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["train", "{empty}", "--model", "{out}"], "training corpus is empty"),
    (["eval", "{empty}", "--model", "{model}", "--output", "{out}"],
     "cannot report on an empty confusion matrix"),
    (["split", "{empty}", "{out}", "{out2}"], "cannot split an empty corpus"),
])
def test_empty_inputs_are_data_errors_that_write_nothing(trained, capsys, command, message):
    tmp_path, _, _, model_file = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n", encoding="utf-8")
    paths = {"empty": empty, "model": model_file,
             "out": tmp_path / "out.txt", "out2": tmp_path / "out2.txt"}
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err == f"nagatag: error: {message}\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_warns_when_not_converged(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    model_file = str(tmp_path / "model.json")
    code = main(["train", corpus_file, "--model", model_file, "--tagset", tagset_file,
                 "--max-iter", "1"])
    assert code == 0
    assert "nagatag: warning: not converged" in capsys.readouterr().err


def test_train_reports_attributes_seen_and_kept(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    model_file = str(tmp_path / "model.json")
    assert main(["train", corpus_file, "--model", model_file, "--tagset", tagset_file,
                 "--c1", "0.1", "--max-iter", "30"]) == 0
    seen, kept = map(int, re.search(r"(\d+) attributes seen, (\d+) kept",
                                    capsys.readouterr().err).groups())
    corpus = read_corpus(corpus_file, TagSet(SMALL_TAGS))
    assert seen == len(attribute_index_oracle(corpus))
    assert kept == load_model(model_file)[0].n_attributes
    assert 0 < kept < seen


def test_train_then_tag_round_trip(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\nsaki loi dora .\n", encoding="utf-8")
    out = tmp_path / "tagged.txt"
    code = main(["tag", str(raw), "--model", model_file, "--output", str(out)])
    assert code == 0
    tagged = parse_tagged(out.read_text(encoding="utf-8"), TagSet(SMALL_TAGS))
    assert [s.words() for s in tagged] == [
        ("dora", "ase", "."),
        ("saki", "loi", "dora", "."),
    ]
    # The run memorized this tiny corpus, so tags are the annotated ones.
    assert [s.tags() for s in tagged] == [(0, 1, 2), (0, 1, 0, 2)]


def test_tag_input_without_sentences_gives_empty_output(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text("# only a comment\n\n   \n# another\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["tag", str(raw), "--model", model_file]) == 0
    assert capsys.readouterr().out == ""


def test_tag_skips_a_comment_after_leading_blanks(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text(" #x korvi .\ndora ase .\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["tag", str(raw), "--model", model_file]) == 0
    assert capsys.readouterr().out == "dora/N ase/V ./S\n"


def test_tag_output_to_dev_null_and_through_a_symlink(trained, monkeypatch):
    tmp_path, _, _, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\n", encoding="utf-8")
    refuse_to_replace(monkeypatch, os.devnull)
    assert main(["tag", str(raw), "--model", model_file, "--output", os.devnull]) == 0
    assert main(["tag", str(raw), "--model", model_file, "--output", str(tmp_path / "out.txt")]) == 0
    link = tmp_path / "link.txt"
    link.symlink_to(tmp_path / "out.txt")
    (tmp_path / "out.txt").write_text("stale\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", model_file, "--output", str(link)]) == 0
    assert link.is_symlink()
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "dora/N ase/V ./S\n"
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_tag_output_reparses_identically(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", model_file]) == 0
    text = capsys.readouterr().out
    reparsed = parse_tagged(text, TagSet(SMALL_TAGS))
    assert serialize_tagged(reparsed, TagSet(SMALL_TAGS)) == text


def test_training_writes_the_same_model_file_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a long ddot across its threads, which changes the order
    # of the sum; this corpus has about 23,000 weights, past the length it splits
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "20", "--seed", "0", "--output", str(corpus)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"model-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "nagatag.cli", "train", str(corpus), "--model", str(model),
             "--max-iter", "30"],
            capture_output=True, text=True, timeout=120, check=True,
            env=dict(env, OPENBLAS_NUM_THREADS=threads),
        )
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_overflowing_state_scores_are_data_error(tmp_path, capsys):
    # N has three weights of 1e308 on the token and ADJ two, so N is the best
    # tag, but both sums overflow to inf and tie. Tagging must not print a tag.
    tagset = TagSet()
    attributes = sorted(sentence_attributes(("dora",))[0])[:3]
    model = zero_model(tagset, {a: i for i, a in enumerate(attributes)})
    model.state_weights[:, tagset.index("N")] = 1e308
    model.state_weights[:2, tagset.index("ADJ")] = 1e308
    model_file = tmp_path / "model.json"
    save_model(str(model_file), model)
    raw = tmp_path / "raw.txt"
    raw.write_text("dora\n", encoding="utf-8")
    assert main(["tag", str(raw), "--model", str(model_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nagatag: error:" in err


def test_overflowing_viterbi_sums_print_only_the_error(tmp_path):
    # Every weight is finite, but the word=dora weight on N plus the N->N
    # transition overflows in the Viterbi recursion. Stderr must hold the one
    # error line and no numpy warning; a subprocess shows it as a user sees it.
    tagset = TagSet()
    n = tagset.index("N")
    model = zero_model(tagset, {"word=dora": 0})
    model.state_weights[0, n] = 1e308
    model.transition_weights[n, n] = 1e308
    model_file = tmp_path / "model.json"
    save_model(str(model_file), model)
    raw = tmp_path / "raw.txt"
    raw.write_text("dora dora\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "nagatag.cli", "tag", str(raw), "--model", str(model_file)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "nagatag: error: Viterbi scores overflow\n")


def test_eval_prints_a_zero_over_zero_metric_as_a_warning_line(trained):
    # the model tags dora and saki N, so no token is predicted V: V's precision is 0/0
    tmp_path, _, _, model_file = trained
    gold = tmp_path / "gold.txt"
    gold.write_text("dora/V saki/N ./S\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "nagatag.cli", "eval", str(gold), "--model", model_file],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert (result.returncode, result.stderr) == (
        0, "nagatag: warning: V: precision is 0/0, reporting 0\n")
    assert "accuracy" in result.stdout


def fuzz_bytes(pieces):
    return st.lists(st.sampled_from(pieces), max_size=24).map(b"".join)


FUZZ_PIECES = tuple(piece.encode() for piece in (
    "dora", "saki", "ase", ".", "/", "N", "V", "S", "ADJ", "é", " ", "\t", "\n", "\r", "#", "0",
    "\ufeff")) + (b"\xff", b"\x00")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("tag", "eval", "stats", "split", "agreement")),
       first=fuzz_bytes(FUZZ_PIECES), second=fuzz_bytes(FUZZ_PIECES),
       tagset=st.none() | fuzz_bytes((b"N", b"V", b"S", b"ADJ", b"n", b" ", b"\n", b"#")),
       json_format=st.booleans())
def test_random_files_exit_with_a_documented_code(trained, command, first, second, tagset,
                                                 json_format):
    # Whatever the files hold, a command ends with 0, 1 or 2 and no traceback.
    tmp_path, _, _, model_file = trained
    files = [tmp_path / "fuzz-first.txt", tmp_path / "fuzz-second.txt", tmp_path / "fuzz-tags.txt"]
    for path, data in zip(files, (first, second, tagset or b"")):
        path.write_bytes(data)
    argv = {
        "tag": ["tag", files[0], "--model", model_file],
        "eval": ["eval", files[0], "--model", model_file],
        "stats": ["stats", files[0]],
        "split": ["split", files[0], tmp_path / "fuzz-train.txt", tmp_path / "fuzz-test.txt"],
        "agreement": ["agreement", files[0], files[1]],
    }[command]
    if tagset is not None and command in ("stats", "split", "agreement"):
        argv += ["--tagset", files[2]]
    if json_format and command in ("eval", "stats", "agreement"):
        argv += ["--format", "json"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_eval_text_and_json(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    assert main(["eval", corpus_file, "--model", model_file]) == 0
    text = capsys.readouterr().out
    assert "accuracy" in text
    assert ",N,V,S" in text  # confusion CSV appended after the report

    assert main(
        ["eval", corpus_file, "--model", model_file, "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy"] == 1.0  # memorized training data
    assert doc["confusion"]["tags"] == list(SMALL_TAGS)
    assert doc["total"] == 19


def test_stats_table_layout(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    assert main(["stats", corpus_file, "--tagset", tagset_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["sl.", "no.", "tag", "frequency"]
    assert lines[1].split() == ["1", "N", "8"]
    assert lines[2].split() == ["2", "V", "6"]
    assert lines[3].split() == ["3", "S", "5"]
    assert lines[4].split() == ["total", "19"]


def test_stats_json(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    code = main(["stats", corpus_file, "--tagset", tagset_file, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"frequencies": {"N": 8, "V": 6, "S": 5}, "total": 19}


def test_split_partition_and_determinism(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    a1, b1 = str(tmp_path / "a1.txt"), str(tmp_path / "b1.txt")
    a2, b2 = str(tmp_path / "a2.txt"), str(tmp_path / "b2.txt")
    base = ["split", corpus_file, "--tagset", tagset_file, "--fraction", "0.6", "--seed", "7"]
    assert main(base[:2] + [a1, b1] + base[2:]) == 0
    assert main(base[:2] + [a2, b2] + base[2:]) == 0
    tagset = TagSet(SMALL_TAGS)
    train = read_corpus(a1, tagset)
    test = read_corpus(b1, tagset)
    assert len(train) == 3 and len(test) == 2  # int(0.6 * 5)
    assert read_corpus(a2, tagset) == train
    assert read_corpus(b2, tagset) == test


def test_agreement_identical_and_divergent(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    base = ["agreement", corpus_file, corpus_file, "--tagset", tagset_file,
            "--exclude-tag", "S"]
    assert main(base) == 0
    text = capsys.readouterr().out
    assert "(0.00%)" in text

    other = tmp_path / "second.txt"
    other.write_text(SMALL_CORPUS.replace("dora/N", "dora/V", 1), encoding="utf-8")
    code = main(
        ["agreement", corpus_file, str(other), "--tagset", tagset_file,
         "--exclude-tag", "S", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_tokens"] == 19
    assert doc["disagreed"] == 1
    assert doc["rate"] == pytest.approx(1 / 19)


def test_agreement_bad_excluded_tag(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    code = main(
        ["agreement", corpus_file, corpus_file, "--tagset", tagset_file,
         "--exclude-tag", "NOPE"]
    )
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_agreement_on_corpora_without_tokens(small, capsys, fmt):
    tmp_path, tagset_file, _ = small
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n", encoding="utf-8")
    code = main(["agreement", str(empty), str(empty), "--tagset", tagset_file,
                 "--exclude-tag", "S", "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nagatag: error: cannot report agreement on corpora with no tokens\n"


def test_transitions_output(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    assert main(["transitions", "--model", model_file, "--top-n", "3"]) == 0
    text = capsys.readouterr().out
    for section in ("top transitions", "bottom transitions", "begin weights", "end weights"):
        assert section in text

    assert main(
        ["transitions", "--model", model_file, "--top-n", "3", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["top"]) == 3
    assert len(doc["begin"]) == len(SMALL_TAGS)
    # Training saw N -> V in every sentence; it should outrank V -> V.
    top_pairs = [(a, b) for a, b, _ in doc["top"]]
    assert ("N", "V") in top_pairs


def test_features_dump(capsys):
    assert main(["features", "Titia", "Isor"]) == 0
    assert capsys.readouterr().out == (
        "{'word': 'Titia', 'is_first': True, 'is_last': False, 'is_capitalized': True, "
        "'is_all_caps': False, 'is_all_lower': False, 'capitals_inside': False, "
        "'has_hyphen': False, 'is_numeric': False, 'prev_word': '', 'next_word': 'Isor', "
        "'prefix-1': 'T', 'prefix-2': 'Ti', 'prefix-3': 'Tit', 'suffix-1': 'a', "
        "'suffix-2': 'ia', 'suffix-3': 'tia', 'suffix-4': 'itia'}\n"
        "{'word': 'Isor', 'is_first': False, 'is_last': True, 'is_capitalized': True, "
        "'is_all_caps': False, 'is_all_lower': False, 'capitals_inside': False, "
        "'has_hyphen': False, 'is_numeric': False, 'prev_word': 'Titia', 'next_word': '', "
        "'prefix-1': 'I', 'prefix-2': 'Is', 'prefix-3': 'Iso', 'suffix-1': 'r', "
        "'suffix-2': 'or', 'suffix-3': 'sor', 'suffix-4': 'Isor'}\n"
    )


# "", "=", "/", "#", digits, capitals, hyphens, non-ASCII letters, words longer
# than suffix_max, words that are prefixes or suffixes of others, and the flag
# values themselves as words
FEATURE_WORDS = st.text("aZǅé٣7-=/#", max_size=7) | st.sampled_from(
    ("true", "false", "tru", "rue", "Titia", "Tit", "itia", "-", "--x"))


@settings(deadline=None)
@given(st.lists(FEATURE_WORDS, min_size=1, max_size=6))
@example(["x"])
@example(["", "true", "=", "false", ""])
@example(["ab", "abc", "b", "abcdefg", "cdefg"])
def test_features_prints_the_oracles_maps(words):
    expected = "".join(repr(extract_token_features(words, t)) + "\n" for t in range(len(words)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["features", "--", *words]) == 0
    assert out.getvalue() == expected


def test_features_takes_words_that_start_with_a_dash_after_double_dash(capsys):
    words = ["-LRB-", "x"]
    assert main(["features", "--", *words]) == 0
    assert capsys.readouterr().out == "".join(
        repr(extract_token_features(words, t)) + "\n" for t in range(len(words)))
    assert main(["features", "x", "-LRB-"]) == 1
    assert "unrecognized arguments: -LRB-" in capsys.readouterr().err


def test_syllables_text_and_json(capsys):
    assert main(["syllables", "g.o.r"]) == 0
    text = capsys.readouterr().out
    assert "skeleton: CVC" in text
    assert "accepted: yes" in text

    assert main(["syllables", "g.o.r.k.o.r", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["skeleton"] == "CVCCVC"
    assert doc["accepted"] is True
    assert all(m["syllables"] == 2 for m in doc["matches"])


def test_syllables_bad_phoneme_is_data_error(capsys):
    assert main(["syllables", "g.xx.r"]) == 2


def test_gen_matches_library_output(tmp_path, capsys):
    out = tmp_path / "synth.txt"
    code = main(
        ["gen", "12", "--seed", "5", "--min-len", "3", "--max-len", "6",
         "--output", str(out)]
    )
    assert code == 0
    config = SynthConfig(seed=5, n_sentences=12, min_len=3, max_len=6)
    expected = generate(config)
    got = read_corpus(str(out), config.tagset)
    assert got == expected
    first_line = out.read_text(encoding="utf-8").splitlines()[0]
    assert first_line.startswith("# {")
    assert json.loads(first_line[2:])["seed"] == 5


def test_gen_rejects_zero_count(capsys):
    assert main(["gen", "0"]) == 1


def test_gen_rejects_inverted_length_range(capsys):
    assert main(["gen", "5", "--min-len", "6", "--max-len", "5"]) == 1
    assert "--min-len 6 exceeds --max-len 5" in capsys.readouterr().err


def test_agreement_json_document(small, capsys):
    tmp_path, tagset_file, corpus_file = small
    other = tmp_path / "second.txt"
    # one disagreement on an N token, two on S tokens (the excluded tag)
    text = SMALL_CORPUS.replace("dora/N", "dora/V", 1).replace("ase/V ./S", "ase/V ./N")
    other.write_text(text, encoding="utf-8")
    code = main(
        ["agreement", corpus_file, str(other), "--tagset", tagset_file,
         "--exclude-tag", "S", "--format", "json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "total_tokens": 19,
        "disagreed": 3,
        "disagreed_on_excluded_tag": 2,
        "rate": 3 / 19,
        "rate_excluding": 1 / 19,
        "excluded_tag": "S",
    }


def test_transitions_json_document(tmp_path, capsys):
    tagset = TagSet(SMALL_TAGS)
    model = zero_model(tagset, {"word=dora": 0})
    model.transition_weights[:] = [[0.5, 2.0, -1.0], [0.25, -3.0, 1.5], [0.0, 0.75, -0.5]]
    model.begin_weights[:] = [1.0, -2.0, 0.5]
    model.end_weights[:] = [-1.0, 0.0, 3.0]
    model_file = tmp_path / "model.json"
    save_model(str(model_file), model)
    assert main(["transitions", "--model", str(model_file), "--top-n", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "top": [["N", "V", 2.0], ["V", "S", 1.5]],
        "bottom": [["V", "V", -3.0], ["N", "S", -1.0]],
        "begin": [["N", 1.0], ["V", -2.0], ["S", 0.5]],
        "end": [["N", -1.0], ["V", 0.0], ["S", 3.0]],
    }


def test_syllables_json_document(capsys):
    assert main(["syllables", "g.o.r.k.o.r", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "phonemes": ["g", "o", "r", "k", "o", "r"],
        "skeleton": "CVCCVC",
        "accepted": True,
        "matches": [
            {"template": "di-2a", "syllables": 2},
            {"template": "di-2b", "syllables": 2},
        ],
    }


def test_eval_json_keys(trained, capsys):
    tmp_path, tagset_file, corpus_file, model_file = trained
    assert main(["eval", corpus_file, "--model", model_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"per_tag", "accuracy", "macro", "weighted", "total", "confusion"}
    assert set(doc["confusion"]) == {"tags", "counts"}
    assert set(doc["per_tag"]) == set(SMALL_TAGS)
    assert set(doc["per_tag"]["N"]) == {"precision", "recall", "f1", "support"}
    assert set(doc["macro"]) == set(doc["weighted"]) == {"precision", "recall", "f1"}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """A model trained for three iterations on `gen 20 --seed 0`, and a gold
    file of `gen 3 --seed 1` that lacks CMP, DET, PN and FW: the model gets
    four of its 21 tokens wrong and predicts none of INTJ, so eval warns of
    nine 0/0 metrics."""
    tmp_path = tmp_path_factory.mktemp("golden")
    train, gold, model = (str(tmp_path / name) for name in ("train.txt", "gold.txt", "model.json"))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen", "20", "--seed", "0", "--output", train]) == 0
        assert main(["gen", "3", "--seed", "1", "--min-len", "4", "--max-len", "8",
                     "--output", gold]) == 0
        assert main(["train", train, "--model", model, "--max-iter", "3"]) == 0
    return gold, model


GOLDEN_EVAL_WARNINGS = "".join(
    f"nagatag: warning: {tag}: {metric} is 0/0, reporting 0\n"
    for tag, metric in (
        ("CMP", "precision"), ("CMP", "recall"), ("DET", "precision"), ("DET", "recall"),
        ("INTJ", "precision"), ("PN", "precision"), ("PN", "recall"),
        ("FW", "precision"), ("FW", "recall"),
    )
)

GOLDEN_EVAL_TEXT = """\
             precision    recall  f1-score   support

ADJ               0.50      1.00      0.67         1
ADV               0.50      1.00      0.67         1
CONJ              1.00      1.00      1.00         1
CMP               0.00      0.00      0.00         0
DET               0.00      0.00      0.00         0
PP                1.00      1.00      1.00         1
INTJ              0.00      0.00      0.00         2
N                 1.00      0.60      0.75         5
PN                0.00      0.00      0.00         0
QN                0.50      1.00      0.67         2
V                 1.00      1.00      1.00         1
FW                0.00      0.00      0.00         0
SYM               1.00      1.00      1.00         3
UNK               1.00      1.00      1.00         1
NUM               1.00      1.00      1.00         3

accuracy                              0.81        21
macro avg         0.57      0.64      0.58        21
weighted avg      0.81      0.81      0.78        21

,ADJ,ADV,CONJ,CMP,DET,PP,INTJ,N,PN,QN,V,FW,SYM,UNK,NUM
ADJ,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0
ADV,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0
CONJ,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0
CMP,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
DET,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
PP,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0
INTJ,1,0,0,0,0,0,0,0,0,1,0,0,0,0,0
N,0,1,0,0,0,0,0,3,0,1,0,0,0,0,0
PN,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
QN,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0
V,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0
FW,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
SYM,0,0,0,0,0,0,0,0,0,0,0,0,3,0,0
UNK,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0
NUM,0,0,0,0,0,0,0,0,0,0,0,0,0,0,3
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_trained_model_bytes(golden):
    # the golden model file itself: any change to training's arithmetic shows here
    _, model = golden
    assert (hashlib.sha256(Path(model).read_bytes()).hexdigest()
            == "35c5e9750bd989278e3fca8dc39b4439165df840ab2a8676d7da6fd2ac06ee64")


@pytest.mark.parametrize("fmt, stdout", [
    ("text", GOLDEN_EVAL_TEXT),
    ("json", "181567cdcd0b367711963f4d72cb91a7a38b3b636a2e88bbf5097e029070950c"),
], ids=("text", "json"))
def test_eval_output_bytes(golden, capsys, fmt, stdout):
    gold, model = golden
    assert main(["eval", gold, "--model", model, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert (out if fmt == "text" else _sha256(out)) == stdout
    assert err == GOLDEN_EVAL_WARNINGS


# every one of the 225 transitions, in both rankings: seven of them are 0.0 ties
@pytest.mark.parametrize("fmt, digest", [
    ("text", "5543860531a06e32d2537eb9e3d2f70a5b4ee8d0722e06d0f37fa51591c80e7f"),
    ("json", "41092c77dddf7b3b1c28041caef628cbf7aa4e43173a3b1de9c5017e89d8b215"),
], ids=("text", "json"))
def test_transitions_output_bytes(golden, capsys, fmt, digest):
    _, model = golden
    assert main(["transitions", "--model", model, "--top-n", "225", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert (_sha256(out), err) == (digest, "")
