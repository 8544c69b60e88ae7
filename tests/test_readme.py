"""README's examples, run as a reader runs them: each ```python block in
a fresh interpreter, and each ``adaptqn`` command of the "Command-line
harness" block through ``cli.main``. Each must exit 0 and write nothing
to stderr, and a README with nothing to run fails."""

import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import adaptqn
from adaptqn.cli import main

# The package directory's parent, for a subprocess to import the same adaptqn.
SRC = str(Path(adaptqn.__file__).resolve().parents[1])

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def cli_commands():
    """The argument lists of the ``adaptqn`` commands in the first bash
    block under "## Command-line harness", continuation lines joined."""
    section = README.split("\n## Command-line harness\n", 1)[-1]
    block = re.search(r"^```bash\n(.*?)^```", section, re.M | re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines() if block else []
    return [shlex.split(line)[1:] for line in lines if line.startswith("adaptqn ")]


def test_readme_python_blocks_run(tmp_path):
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", (block, proc.stderr)


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    commands = cli_commands()
    assert commands, "README.md's Command-line harness block has no adaptqn command"
    monkeypatch.chdir(tmp_path)  # so each --out lands under tmp_path
    for args in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args)
        err = capsys.readouterr().err
        assert rc == 0 and err == "" and not caught, (args, rc, err, caught)
