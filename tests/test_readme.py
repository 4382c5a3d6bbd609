import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block():
    return re.search(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M).group(1)


def test_quick_start_runs_and_prints_what_it_documents():
    # the library quick start, run as written: its calls match the package's
    # signatures, and what it prints matches its comments
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(first_python_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[1] == "2.0"                    # sum DoF
    # noiseless symbol error: round-off, within a factor of 10 of the
    # documented value, which leaves room for another BLAS's round-off
    documented = float(re.search(r"print\(err\) +# about (\S+)", first_python_block()).group(1))
    assert documented / 10 < float(lines[2]) < documented * 10


def test_options_table_matches_the_parser():
    # README's command/options table: one row per command or group of
    # commands that take the same options, in cli.COMMANDS' option order
    from blindim import cli

    table = re.search(r"^\| command \| options \|\n\| --- \| --- \|\n((?:\|.*\n)+)",
                      README.read_text(), re.M).group(1)
    documented = {}
    for line in table.splitlines():
        names, options = line.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in documented, name
            documented[name] = re.findall(r"`([^`]+)`", options)
    assert documented == {name: flags for name, (_, flags) in cli.COMMANDS.items()}
