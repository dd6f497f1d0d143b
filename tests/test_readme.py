"""README examples: the `>>>` library examples and the command transcripts."""

import doctest
import re
import shlex
from pathlib import Path

from cyclolab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_examples():
    # a fence line ends the expected output of the example above it
    text = re.sub(r"^```.*$", "", README, flags=re.M)
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", "README.md", 0)
    assert len(test.examples) > 5
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))


def test_readme_command_transcripts(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```text\n\$ cyclolab ([^\n]*)\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) >= 4
    monkeypatch.chdir(tmp_path)
    main(["gen", "grid", "--rows", "3", "--cols", "3"])
    capsys.readouterr()
    for command, expected in blocks:
        main(shlex.split(command))
        assert capsys.readouterr().out == expected, command
