"""README.md against the code: every command, output, table and header it shows.

Each `$ twotier-ee ...` line of a `console` block runs through `cli.main` in a
temporary directory holding a copy of `configs/`, and must exit 0 and print
exactly the lines under it.  The `csv` blocks are the headers that
`emit_results` and `emit_sweep` write.  The config table is
`NetworkConfig`'s fields and defaults, in order.  The algorithm and
subcommand tables are `ALGORITHMS` and `build_parser()`'s subcommands, and
every `--flag` outside the `sh` blocks (which hold pip and pytest commands)
is an option of some subcommand.  The demo list is `demos/*.py`, and the
library example prints its pinned value.
"""

import argparse
import dataclasses
import math
import re
import shlex
import shutil

import pytest

from test_demos import ROOT, run_demo
from twotier_ee import cli, harness
from twotier_ee.config import NetworkConfig

README = (ROOT / "README.md").read_text()


def blocks(language: str) -> list:
    """The body of each fenced block tagged `language`, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def table(title: str) -> list:
    """The body rows of the table in section `## title`, as cells without backticks."""
    text = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in text.splitlines() if line.startswith("|")][2:]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def console_runs() -> list:
    """(command, stdout) of each `$ ` line of the console blocks; a trailing
    backslash continues a command on the next line."""
    runs = []
    for block in blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            lines = chunk.splitlines()
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            runs.append((command, "".join(line + "\n" for line in lines)))
    return runs


def subcommands() -> dict:
    """Subcommand name -> its parser, in `build_parser()` order."""
    action, = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


RUNS = console_runs()


@pytest.mark.parametrize("command, stdout", RUNS,
                         ids=[f"{n}-{command.split()[1]}" for n, (command, _) in enumerate(RUNS)])
def test_console_command_prints_what_the_readme_shows(command, stdout, tmp_path, monkeypatch,
                                                      capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "twotier-ee"
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (stdout, "")


def test_csv_blocks_are_the_written_headers(tmp_path):
    harness.emit_sweep([], tmp_path / "sweep.csv")
    results = ",".join(name for name, *_ in harness._COLUMNS) + ",cell_ee_0,...,cell_ee_K\n"
    assert blocks("csv") == [results, harness._TRACE_HEADER + "\n",
                             (tmp_path / "sweep.csv").read_text()]


def test_config_table_is_the_network_config_fields():
    rows = table("Configs")
    fields = dataclasses.fields(NetworkConfig)
    assert [key for key, *_ in rows] == [f.name for f in fields]
    for (_, default, _), f in zip(rows, fields):
        if default == "required":
            assert f.default is dataclasses.MISSING, f.name
        elif levels := re.fullmatch(r"(\d+) levels, (\S+) mW\.\.(\S+) mW log-spaced", default):
            n, low, high = int(levels[1]), float(levels[2]) / 1e3, float(levels[3]) / 1e3
            assert f.default == pytest.approx(
                [low * (high / low) ** (k / (n - 1)) for k in range(n)], rel=1e-12)
        elif root := re.fullmatch(r"sqrt\((.+)\)", default):
            assert math.sqrt(float(root[1])) == f.default, f.name
        else:
            assert float(default) == f.default, f.name


def test_algorithm_and_subcommand_tables_match_the_code():
    assert [row[0] for row in table("Algorithms")] == list(harness.ALGORITHMS)
    assert [row[0] for row in table("Command line")] == list(subcommands())


def test_every_flag_is_an_option_of_a_subcommand():
    options = {option for parser in subcommands().values() for action in parser._actions
               for option in action.option_strings}
    prose = re.sub(r"^```sh\n.*?^```$", "", README, flags=re.M | re.S)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose))
    assert flags and flags <= options, flags - options


def test_demo_list_is_the_demo_scripts():
    listed = re.findall(r"^- `(\w+\.py)`", README.split("\n## Demos\n", 1)[1], re.M)
    assert listed == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_demo("-c", example)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"10685.397111056227\n"
