"""README's CLI and Library sections stay true.

The CLI example runs as written, from a directory holding the sample data.
The Library example runs on the sample log and taxonomy, every backticked
name that section uses is a ``commdir`` module, a name one of them defines,
or an attribute of one, and every name its "Removed names" list gives is
gone from the package and from every module. ``import commdir`` loads no
module, as that section says.
"""

import dataclasses
import importlib
import os
import pathlib
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys

import commdir
from commdir import cli

MODULES = {m.name: importlib.import_module(f"commdir.{m.name}")
           for m in pkgutil.iter_modules(commdir.__path__)}
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_commands():
    """The commands of the CLI section's example, each split into words."""
    block = re.search(r"```\n(.*?)```", section("CLI"), re.S).group(1)
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", "").splitlines())
    return [words for words in lines if words]


def removed_names():
    """The names each bullet of "Removed names" gives before its colon."""
    removed = section("Library").split("\n### Removed names\n", 1)[1]
    bullets = re.split(r"\n- ", removed)[1:]
    return [name for b in bullets for name in _NAME.findall(re.split(r":\s", b, maxsplit=1)[0])]


def defining_module(name):
    """The ``commdir`` module that defines a bare name, or None: the one
    holding it whose ``__module__`` it is, if it has a ``__module__``."""
    for module in MODULES.values():
        obj = getattr(module, name, None)
        if obj is not None and getattr(obj, "__module__", module.__name__) == module.__name__:
            return module
    return None


def lookup(dotted):
    """The object a dotted name names, from a ``commdir`` module or from a
    bare name looked up in the module that defines it."""
    head, *rest = dotted.split(".")
    obj = MODULES.get(head) or getattr(defining_module(head), head)
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def exists(dotted):
    """Whether ``commdir`` holds the name: a module, a name a module
    defines, or an attribute or dataclass field of one."""
    owner, _, attr = dotted.rpartition(".")
    if not owner:
        return attr in MODULES or defining_module(attr) is not None
    obj = lookup(owner)
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    return hasattr(obj, attr) or attr in {f.name for f in fields}


def test_cli_examples_run(tmp_path, monkeypatch, data_dir):
    shutil.copytree(data_dir, tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert sum(words[0] == "commdir" for words in commands) == 7
    for words in commands:
        if words[0] == "cp":
            shutil.copy(*words[1:])
        else:
            assert words[0] == "commdir"
            assert cli.main(words[1:]) == 0, shlex.join(words)


def test_library_example_runs(tmp_path, monkeypatch, data_dir):
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    shutil.copy(data_dir / "sample_access.log", tmp_path / "access.log")
    shutil.copy(data_dir / "taxonomy.tsv", tmp_path / "taxonomy.tsv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["directory"].selected


def test_library_names_exist():
    names = set(_NAME.findall(section("Library"))) - set(removed_names())
    assert {"clf", "cli", "TaxonomyError", "Taxonomy.site_index", "PageRef.site"} <= names
    assert [name for name in sorted(names) if not exists(name)] == []


def test_removed_names_are_gone():
    removed = removed_names()
    assert len(removed) == 20
    for name in removed:
        assert not exists(name), name
        attr = name.rpartition(".")[2]
        assert [m.__name__ for m in (commdir, *MODULES.values()) if hasattr(m, attr)] == [], name


def test_import_commdir_loads_no_module():
    src = str(pathlib.Path(commdir.__file__).resolve().parents[1])
    code = "import commdir, sys; print(*sorted(m for m in sys.modules if m.startswith('commdir.')))"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.split() == []
