"""README.md states the user's contract: its subcommand table is the CLI's own
table, and every example that states a result gives that result."""

import doctest
import re
import shlex
from pathlib import Path

from delta2n import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _subcommand_rows():
    """(name, n range, options, formats) of each row of the subcommand table."""
    text = README.read_text()
    table = re.search(r"^\| subcommand .*\n\|[-|]+\n((?:\|.*\n)+)", text, re.MULTILINE)
    rows = []
    for line in table[1].splitlines():
        name, n_range, options, formats = (c.strip() for c in line.strip("|").split("|"))
        span = re.fullmatch(r"(\d+)\.\.(\d+)", n_range)
        rows.append((
            name.strip("`"),
            (int(span[1]), int(span[2])) if span else None,
            tuple(re.findall(r"`(--[a-z-]+)", options)),
            tuple(formats.split(", ")),
        ))
    return rows


def test_subcommand_table_is_the_clis():
    want = [(name, c.n_range, c.options, c.formats) for name, c in cli._COMMANDS.items()]
    assert _subcommand_rows() == want


def test_library_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0


def test_command_examples_print_what_they_state(capsys):
    examples = re.findall(r"^delta2n (.+?)\s+# prints: (.+)$", README.read_text(), re.MULTILINE)
    assert len(examples) == 2
    for args, stated in examples:
        assert cli.main(shlex.split(args)) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        assert ", ".join(printed) == stated
