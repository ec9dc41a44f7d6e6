"""Tests for scripts/src_lines.py, the per-module line counter of src/hessmc."""
from pathlib import Path

import hessmc
from support import python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
COLUMNS = ("total", "code", "docs", "blank")

# a two-line module docstring (docs), a blank line, a comment (docs), code with
# a trailing comment (code), two blank lines, a function (code) with a one-line
# docstring (docs), and a three-line string that is no docstring (code)
MODULE = '''"""A module docstring
on two lines."""

# a comment line
x = 1  # a trailing comment


def f():
    """A one-line docstring."""
    s = """not a
docstring, so
code"""
    return s
'''


def counts(*args):
    """The script's rows, by module name, each a dict of its four columns."""
    lines = python(str(SCRIPT), *args).stdout.splitlines()
    assert lines[0].split() == ["module", *COLUMNS]
    rows = {}
    for line in lines[1:]:
        name, *values = line.split()
        rows[name] = dict(zip(COLUMNS, (int(v.replace(",", "")) for v in values)))
    return rows


def test_synthetic_module_split(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    rows = counts(str(tmp_path))
    expected = {"total": 13, "code": 6, "docs": 4, "blank": 3}
    assert rows == {"mod.py": expected, "total": expected}


def test_src_columns_add_up():
    src = Path(hessmc.__file__).resolve().parent
    rows = counts(str(src))
    total = rows.pop("total")
    assert set(rows) == {p.name for p in src.glob("*.py")}
    for name, row in rows.items():
        assert row["total"] == len((src / name).read_text().splitlines())
        assert row["code"] + row["docs"] + row["blank"] == row["total"]
    assert total == {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
