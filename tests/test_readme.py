"""README's examples print what README says they print.

The two ``python`` blocks are run as they stand.  Each CLI block of the
form ``$ echo '<payload>' | grasstau <sub> <flags>``, on one line or with
the pipe continued on the next, is run through ``grasstau.cli.main`` with
the payload on stdin, and its stdout is compared with the line the block
states below the command.
"""

import io
import re
from pathlib import Path

import pytest

from grasstau.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

CLI_EXAMPLE = re.compile(r"```sh\n\$ echo '([^']*)' (?:\\\n  )?\| grasstau ([a-z-]+)(.*)\n(.*)\n```")


def _section(heading: str) -> str:
    """The README text from ``heading`` to the next section heading."""
    match = re.search(rf"^{re.escape(heading)}\n(.*?)(?=^##)", README, re.S | re.M)
    assert match, heading
    return match.group(1)


def _block(section: str, lang: str) -> str:
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert match, lang
    return match.group(1)


def test_library_example_prints_its_stated_result(capsys):
    code = _block(_section("## Library in five lines"), "python")
    stated = code.rstrip().splitlines()[-1].split("# ")[-1]  # the print line's comment
    exec(code, {"__name__": "readme_example"})
    assert capsys.readouterr().out == stated + "\n"


def test_kp_residual_example_prints_its_stated_result(capsys):
    section = _section("## A polynomial that is not a tau")
    exec(_block(section, "python"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == _block(section, "text")


def _cli_examples() -> dict:
    return {m.group(2): m.groups() for m in CLI_EXAMPLE.finditer(README)}


def test_readme_states_three_cli_examples():
    assert sorted(_cli_examples()) == ["pair", "schur", "tau"]


@pytest.mark.parametrize("sub", ["tau", "schur", "pair"])
def test_cli_example_prints_its_stated_line(sub, capsys, monkeypatch):
    payload, _, flags, stated = _cli_examples()[sub]
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main([sub, *flags.split()]) == 0
    assert capsys.readouterr().out == stated + "\n"
