"""README.md stays runnable: its command examples exit 0 and its subcommand
sections are the parser's subcommands."""
import argparse
import contextlib
import io
import pathlib
import shlex

import hankelpert.cli as cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_exit_0():
    lines = README.read_text().splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("    hankelpert ")]
    assert examples
    failed = []
    for argv in examples:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            failed.append(f"hankelpert {shlex.join(argv)}: exit {code}")
    assert not failed, "\n".join(failed)


def test_readme_sections_are_the_subcommands():
    lines = README.read_text().splitlines()
    start = lines.index("## Subcommands")
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("## "))
    headings = [line[4:] for line in lines[start:end] if line.startswith("### ")]
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert headings == list(subparsers.choices)
