"""The README's "Library" example runs as written against the package."""

import re
from pathlib import Path

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
