import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
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


def _resolves(obj, attrs):
    """Whether obj.attrs[0].attrs[1]... exists, the last name as an attribute
    or a dataclass field."""
    for j, attr in enumerate(attrs):
        if not hasattr(obj, attr):
            return (j == len(attrs) - 1 and dataclasses.is_dataclass(obj)
                    and attr in {f.name for f in dataclasses.fields(obj)})
        obj = getattr(obj, attr)
    return True


# heads of README's dotted names that are not blindim's: modules and files
# of other projects
FOREIGN_HEADS = {"np", "dataclasses", "concurrent", "pyproject"}


def test_dotted_names_resolve():
    # every backticked dotted name resolves: `blindim.mod.name` or `mod.name`
    # of a current module (with any further attributes), `blindim.name` of the
    # package, `oracles.name` of tests/oracles.py, `cfg.field` of a
    # SystemConfig, `plan.field` or `dplan.field` of a TransmissionPlan, and
    # `Name.attr` of a class the package exports.  Only FOREIGN_HEADS and
    # number literals go unchecked, so README cannot name a module that is gone
    import blindim
    import oracles
    from blindim.model import SystemConfig, TransmissionPlan

    submodules = {m.name for m in pkgutil.iter_modules(blindim.__path__)}
    local = {"oracles": oracles, "cfg": SystemConfig, "plan": TransmissionPlan,
             "dplan": TransmissionPlan}
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = sorted(set(re.findall(r"`(\w+(?:\.\w+)+)", text)))
    # README names each module as `blindim.<module>`, and no module that is
    # gone: a head that is neither a module nor a package attribute
    heads = {name.split(".")[1] for name in names if name.startswith("blindim.")}
    assert {h for h in heads if h in submodules or not hasattr(blindim, h)} == submodules
    checked, missing = [], []
    for name in names:
        parts = name.split(".")
        if parts[0] in FOREIGN_HEADS or re.fullmatch(r"[\d.]+", name):
            continue
        prefixed = parts[0] == "blindim"
        if prefixed:
            parts = parts[1:]
        if parts[0] in submodules:
            obj, attrs = importlib.import_module("blindim." + parts[0]), parts[1:]
        elif prefixed:
            obj, attrs = blindim, parts
        elif parts[0] in local:
            obj, attrs = local[parts[0]], parts[1:]
        elif parts[0][0].isupper():
            obj = getattr(blindim, parts[0], None)
            if not inspect.isclass(obj):
                missing.append(name)
                continue
            attrs = parts[1:]
        else:
            missing.append(name)
            continue
        checked.append(name)
        if not _resolves(obj, attrs):
            missing.append(name)
    assert len(checked) >= 40
    assert missing == []
