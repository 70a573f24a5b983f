"""README's Library section stays true.

Its example runs on the sample log and taxonomy, every backticked name it
uses is a ``commdir`` export or module (or an attribute of one), and every
name its "Removed names" list gives is gone.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import re
import shutil

import commdir

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def removed_names():
    """The names each bullet of "Removed names" gives before its colon."""
    removed = library_section().split("\n### Removed names\n", 1)[1]
    bullets = re.split(r"\n- ", removed)[1:]
    return [name for b in bullets for name in _NAME.findall(re.split(r":\s", b, 1)[0])]


def lookup(dotted):
    """The object a dotted name names, from a ``commdir`` export or module."""
    head, *rest = dotted.split(".")
    obj = getattr(commdir, head, None) or importlib.import_module(f"commdir.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def exists(dotted):
    """Whether ``commdir`` exports or holds the name: a module, an export,
    or an attribute or dataclass field of one."""
    owner, _, attr = dotted.rpartition(".")
    if not owner:
        return hasattr(commdir, attr) or importlib.util.find_spec(f"commdir.{attr}") is not None
    obj = lookup(owner)
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    return hasattr(obj, attr) or attr in {f.name for f in fields}


def test_library_example_runs(tmp_path, monkeypatch, data_dir):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    shutil.copy(data_dir / "sample_access.log", tmp_path / "access.log")
    shutil.copy(data_dir / "taxonomy.tsv", tmp_path / "taxonomy.tsv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["directory"].selected


def test_library_names_exist():
    names = set(_NAME.findall(library_section())) - set(removed_names())
    assert {"clf", "cli", "TaxonomyError", "Taxonomy.categories", "PageRef.site"} <= names
    assert [name for name in sorted(names) if not exists(name)] == []


def test_removed_names_are_gone():
    removed = removed_names()
    assert len(removed) == 12
    for name in removed:
        assert not exists(name), name
        assert not hasattr(commdir, name.rpartition(".")[2]), name
