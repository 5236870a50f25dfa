"""Every command in README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

from paramint.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argument lists of the `paramint ...` lines of the first ```sh
    block after the "## Command line" heading, with `> file` redirections
    and `#` comments stripped."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(re.sub(r">\s*\S+", "", line), comments=True)[1:]
            for line in block.splitlines() if line.startswith("paramint ")]


def test_readme_command_lines_exit0(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    # the later lines read the documents the first one writes
    assert commands[0] == ["examples", "--out", "fixtures"]
    assert len(commands) > 1
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), argv
