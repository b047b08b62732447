"""Start-up: numpy and scipy load on first use.

Commands that need neither must not import them, and commands that need
them must run the same when numpy is first touched inside the command. Both
are checked in fresh interpreters: this test process has numpy loaded
already, so nagatag's lazy reference to it is the loaded module here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nagatag._lazy import lazy
from nagatag.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def test_lazy_gives_back_a_loaded_module_itself():
    assert lazy("json") is json


def test_lazy_raises_module_not_found_for_a_name_with_no_module():
    with pytest.raises(ModuleNotFoundError):
        lazy("nagatag_has_no_such_module")
    assert "nagatag_has_no_such_module" not in sys.modules


# Runs the commands that need neither numpy nor scipy, and prints the numpy
# and scipy modules that are loaded afterwards. numpy itself is registered
# unloaded, so only its submodules show that it ran.
NUMERIC_FREE = """
import sys
from nagatag import train_model
from nagatag.cli import main

d = sys.argv[1]
codes = [
    main(["gen", "30", "--output", d + "/corpus.txt"]),
    main(["split", d + "/corpus.txt", d + "/train.txt", d + "/test.txt"]),
    main(["stats", d + "/train.txt", "--output", d + "/stats.txt"]),
    main(["agreement", d + "/train.txt", d + "/train.txt", "--output", d + "/agreement.txt"]),
    main(["syllables", "g.o.r", "--output", d + "/syllables.txt"]),
]
print(codes, sorted(m for m in sys.modules if m.startswith(("numpy.", "scipy"))))
"""


def test_commands_without_numeric_work_load_neither_numpy_nor_scipy(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", NUMERIC_FREE, str(tmp_path)],
        capture_output=True, text=True, timeout=60, check=True, env=ENV,
    )
    assert result.stdout == "[0, 0, 0, 0, 0] []\n"


def test_numeric_commands_in_fresh_processes_match_the_in_process_run(tmp_path):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "30", "--seed", "3", "--output", str(corpus)]) == 0
    raw = tmp_path / "raw.txt"
    raw.write_text("ghor te ase .\nmoi khana khai .\n", encoding="utf-8")
    for side in ("fresh", "here"):
        (tmp_path / side).mkdir()

    def commands(side: str):
        d = tmp_path / side
        model = str(d / "model.json")
        yield ["train", str(corpus), "--model", model, "--max-iter", "15"], d / "model.json"
        for name, argv in (
            ("tag", ["tag", str(raw), "--model", model]),
            ("eval", ["eval", str(corpus), "--model", model]),
            ("transitions", ["transitions", "--model", model, "--format", "json"]),
            ("features", ["features", "Moi", "ghor-te", "12"]),
        ):
            yield [*argv, "--output", str(d / name)], d / name

    for (fresh, fresh_out), (here, here_out) in zip(commands("fresh"), commands("here")):
        subprocess.run([sys.executable, "-m", "nagatag.cli", *fresh],
                       capture_output=True, timeout=120, check=True, env=ENV)
        assert main(here) == 0
        assert fresh_out.read_bytes() == here_out.read_bytes(), fresh[0]
