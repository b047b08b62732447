"""Command-line entry point for the tagging pipeline.

One binary, ten subcommands: train, tag, eval, stats, split, agreement,
transitions, features, syllables, gen. Data goes to stdout (or --output);
logs and diagnostics go to stderr. Exit status: 0 success, 1 usage error,
2 data error (unreadable file, malformed corpus, model mismatch, or weights
whose sums overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

from nagatag.corpus import (
    CorpusError,
    TagSet,
    agreement,
    read_corpus,
    read_raw_sentences,
    serialize_tagged,
    split_corpus,
    tag_frequencies,
    write_corpus,
    write_text,
)
from nagatag.crf import load_model, save_model, tag_corpus, train_model
from nagatag.datagen import SynthConfig, config_header, generate
from nagatag.evaluation import confusion, format_report_text, report, top_transitions
from nagatag.features import FLAG, attribute_families
from nagatag.optim import OptimConfig, OptimError
from nagatag.phonotactics import analyze_word, from_ascii, to_skeleton


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"fraction must be in (0, 1]: {text}")
    return value


def _nonneg(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative: {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _load_tagset(args) -> TagSet:
    return TagSet.from_file(args.tagset) if args.tagset else TagSet()


def _emit(text: str, args):
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _report(args, doc, text: str):
    """Emit doc as indented JSON under --format json, and text otherwise."""
    if args.format == "json":
        text = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
    _emit(text, args)


def _cmd_train(args) -> int:
    tagset = _load_tagset(args)
    corpus = read_corpus(args.input, tagset)
    optim_config = OptimConfig(c1=args.c1, c2=args.c2, max_iterations=args.max_iter)

    def log(line: str):
        print(line, file=sys.stderr)

    model, trace = train_model(corpus, tagset, optim_config, log=log)
    save_model(args.model, model)
    print(
        f"trained on {len(corpus)} sentences ({corpus.token_count} tokens): "
        f"{model.n_attributes} attributes, {model.n_tags} tags, "
        f"{trace.iterations} iterations, final objective {trace.final_objective:.6f}",
        file=sys.stderr,
    )
    if not trace.converged:
        print(
            f"nagatag: warning: not converged after --max-iter {args.max_iter} iterations: "
            f"gradient max-norm {trace.records[-1].gradient_max_norm:.6g} > tolerance "
            f"{optim_config.gradient_tolerance:g}",
            file=sys.stderr,
        )
    return 0


def _cmd_tag(args) -> int:
    model, _ = load_model(args.model)
    tagged = tag_corpus(model, read_raw_sentences(args.input))
    _emit(serialize_tagged(tagged, model.tagset), args)
    return 0


def _cmd_eval(args) -> int:
    model, _ = load_model(args.model)
    gold = read_corpus(args.input, model.tagset)
    predicted = tag_corpus(model, [sentence.words() for sentence in gold])
    cm = confusion(gold, predicted, model.tagset)
    with warnings.catch_warnings(record=True) as caught:  # report's 0/0 warnings
        warnings.simplefilter("always")
        rep = report(cm)
    for warning in caught:
        print(f"nagatag: warning: {warning.message}", file=sys.stderr)
    doc = asdict(rep) | {
        "confusion": {"tags": list(model.tagset.names), "counts": cm.counts.tolist()}
    }
    _report(args, doc, format_report_text(rep) + "\n" + cm.to_csv())
    return 0


def _cmd_stats(args) -> int:
    tagset = _load_tagset(args)
    corpus = read_corpus(args.input, tagset)
    freqs = tag_frequencies(corpus, tagset)
    width = max(5, *(len(n) for n in tagset.names)) + 2
    lines = [f"{'sl. no.':>7}  {'tag':<{width}}frequency"]
    for i, name in enumerate(tagset.names, start=1):
        lines.append(f"{i:>7}  {name:<{width}}{freqs[name]}")
    lines.append(f"{'':>7}  {'total':<{width}}{corpus.token_count}")
    _report(args, {"frequencies": freqs, "total": corpus.token_count}, "\n".join(lines) + "\n")
    return 0


def _cmd_split(args) -> int:
    tagset = _load_tagset(args)
    corpus = read_corpus(args.input, tagset)
    train, test = split_corpus(corpus, args.fraction, args.seed)
    write_corpus(args.train_output, train, tagset)
    write_corpus(args.test_output, test, tagset)
    print(
        f"split {len(corpus)} sentences into {len(train)} train / {len(test)} test",
        file=sys.stderr,
    )
    return 0


def _cmd_agreement(args) -> int:
    tagset = _load_tagset(args)
    reference = read_corpus(args.reference, tagset)
    other = read_corpus(args.other, tagset)
    if args.exclude_tag not in tagset:
        raise ValueError(f"excluded tag {args.exclude_tag!r} not in tagset")
    rep = agreement(reference, other, tagset.index(args.exclude_tag))
    doc = asdict(rep) | {
        "rate": rep.rate, "rate_excluding": rep.rate_excluding, "excluded_tag": args.exclude_tag,
    }
    _report(
        args, doc,
        f"tokens {rep.total_tokens}\n"
        f"disagreed {rep.disagreed} ({rep.rate:.2%})\n"
        f"disagreed excluding {args.exclude_tag} "
        f"{rep.disagreed - rep.disagreed_on_excluded_tag} ({rep.rate_excluding:.2%})\n",
    )
    return 0


def _cmd_transitions(args) -> int:
    model, _ = load_model(args.model)
    ranking = top_transitions(model, args.top_n)
    lines = ["top transitions"]
    lines += [f"  {a} -> {b}  {w:.6f}" for a, b, w in ranking.top]
    lines.append("bottom transitions")
    lines += [f"  {a} -> {b}  {w:.6f}" for a, b, w in ranking.bottom]
    lines.append("begin weights")
    lines += [f"  {t}  {w:.6f}" for t, w in ranking.begin]
    lines.append("end weights")
    lines += [f"  {t}  {w:.6f}" for t, w in ranking.end]
    _report(args, asdict(ranking), "\n".join(lines) + "\n")
    return 0


# the template's order, in which the features command prints each token's map
_TEMPLATE_ORDER = ("word", "is_first", "is_last", "is_capitalized", "is_all_caps",
                   "is_all_lower", "capitals_inside", "has_hyphen", "is_numeric",
                   "prev_word", "next_word", "prefix", "suffix")


def _template_place(item: tuple[str, object]) -> tuple[int, int]:
    name, _, k = item[0].partition("-")  # prefix-k and suffix-k by k
    return _TEMPLATE_ORDER.index(name), int(k or 0)


def _cmd_features(args) -> int:
    """Each token's feature map, read off attribute_families: a flag's
    values as booleans, told apart by the values, not by their text, since
    a word may be "true"."""
    maps: list[dict[str, bool | str]] = [{} for _ in args.words]
    for key, tokens, codes, values in attribute_families([args.words]):
        for t, code in zip(tokens, codes):
            maps[t][key[:-1]] = values[code] == "true" if values is FLAG else values[code]
    lines = [repr(dict(sorted(fm.items(), key=_template_place))) for fm in maps]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_syllables(args) -> int:
    phonemes = from_ascii(args.phonemes)
    skeleton = to_skeleton(phonemes)
    analysis = analyze_word(phonemes)
    doc = {
        "phonemes": list(phonemes),
        "skeleton": skeleton,
        "accepted": analysis.accepted,
        "matches": [{"template": t, "syllables": c} for t, c in analysis.matches],
    }
    match_text = (
        ", ".join(f"{t} ({c} syllables)" for t, c in analysis.matches)
        if analysis.matches
        else "none"
    )
    _report(
        args, doc,
        f"phonemes: {' '.join(phonemes)}\n"
        f"skeleton: {skeleton}\n"
        f"accepted: {'yes' if analysis.accepted else 'no'}\n"
        f"matches: {match_text}\n",
    )
    return 0


def _cmd_gen(args) -> int:
    if args.min_len > args.max_len:
        print(f"nagatag gen: error: --min-len {args.min_len} exceeds --max-len {args.max_len}",
              file=sys.stderr)
        return 1
    config = SynthConfig(
        seed=args.seed,
        n_sentences=args.count,
        min_len=args.min_len,
        max_len=args.max_len,
    )
    corpus = generate(config)
    header = f"# {config_header(config)}\n"
    _emit(header + serialize_tagged(corpus, config.tagset), args)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="nagatag",
        description="Linear-chain CRF part-of-speech tagging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    # options several commands share, declared once
    tagset = argparse.ArgumentParser(add_help=False)
    tagset.add_argument("--tagset", help="tagset file, one tag per line")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write data here instead of stdout")
    reported = argparse.ArgumentParser(add_help=False, parents=[output])
    reported.add_argument("--format", choices=("text", "json"), default="text")

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, description=help_text, parents=parents)
        p.set_defaults(func=func)
        return p

    p = add("train", _cmd_train, "train a model on an annotated corpus file", tagset)
    p.add_argument("input", help="annotated corpus file (word/TAG)")
    p.add_argument("--model", required=True, help="output model file (JSON)")
    p.add_argument("--c1", type=_nonneg, default=0.1, help="L1 weight (default 0.1)")
    p.add_argument("--c2", type=_nonneg, default=0.1, help="L2 weight (default 0.1)")
    p.add_argument(
        "--max-iter", type=_positive, default=100,
        help="optimizer iteration cap (default 100)",
    )

    p = add("tag", _cmd_tag, "tag raw sentences (one per line) with a trained model", output)
    p.add_argument("input", help="raw text file, whitespace-tokenized")
    p.add_argument("--model", required=True)

    p = add("eval", _cmd_eval, "evaluate a model against a gold annotated file", reported)
    p.add_argument("input", help="gold annotated corpus file")
    p.add_argument("--model", required=True)

    p = add("stats", _cmd_stats, "tag frequency table for an annotated file", tagset, reported)
    p.add_argument("input")

    p = add("split", _cmd_split, "sentence-level train/test split", tagset)
    p.add_argument("input")
    p.add_argument("train_output")
    p.add_argument("test_output")
    p.add_argument("--fraction", type=_fraction, default=0.7, help="train share (default 0.7)")
    p.add_argument("--seed", type=int, default=0)

    p = add("agreement", _cmd_agreement, "token-level disagreement between two annotations",
            tagset, reported)
    p.add_argument("reference", help="reference annotation")
    p.add_argument("other", help="second annotation of the same text")
    p.add_argument(
        "--exclude-tag", default="FW",
        help="tag whose reference-side disagreements the excluded rate drops (default FW)",
    )

    p = add("transitions", _cmd_transitions, "ranked transition weights of a model", reported)
    p.add_argument("--model", required=True)
    p.add_argument("--top-n", type=_positive, default=5)

    p = add("features", _cmd_features, "feature map dump for one sentence", output)
    p.add_argument("words", nargs="+",
                   help="sentence words; words that start with '-' go after '--'")

    p = add("syllables", _cmd_syllables, "syllable-structure analysis of a phoneme string",
            reported)
    p.add_argument("phonemes", help="dot-separated phonemes, ASCII aliases allowed (g.o.r)")

    p = add("gen", _cmd_gen, "generate a synthetic annotated corpus", output)
    p.add_argument("count", type=_positive, help="number of sentences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-len", type=_positive, default=5)
    p.add_argument("--max-len", type=_positive, default=20)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CorpusError, OptimError, ArithmeticError, OSError, ValueError) as exc:
        print(f"nagatag: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
