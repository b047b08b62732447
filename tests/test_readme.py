"""The README's "Library" example runs as written against the package, and
its command table keeps up with the parser."""

import argparse
import re
from pathlib import Path

import pytest

from nagatag.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

TRAIN_TEXT = """\
moi/PN ghor/N te/PP ase/V ./SYM
tai/PN bazar/N te/PP jai/V ./SYM
moi/PN khana/N khai/V ./SYM
tai/PN ghor/N jai/V ./SYM
"""


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "train.txt").write_text(TRAIN_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "[('moi', 'PN'), ('ghor', 'N'), ('te', 'PP'), ('ase', 'V'), ('.', 'SYM')]\n"
    )


def _commands() -> list[str]:
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    return list(subparsers.choices)


def _table_rows() -> dict[str, str]:
    """Each command in the README table, mapped to the rest of its usage."""
    return dict(re.findall(r"^\| `(\S+)([^`]*)` \|", README.read_text(encoding="utf-8"), re.M))


@pytest.mark.parametrize("command", _commands())
def test_readme_command_table_row_names_every_long_option(command, capsys):
    row = _table_rows().get(command)
    assert row is not None, f"README command table has no row for {command}"
    assert main([command, "--help"]) == 0
    options = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
    missing = sorted(o for o in options if not re.search(rf"{o}\b(?!-)", row))
    assert not missing, f"{command} row lacks {missing}"
