"""The README's library quickstart runs as written and gives its known results."""

import re
from pathlib import Path

from affixgen.disambig import QueryTerm

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(quickstart_code(), str(README), "exec"), namespace)
    assert namespace["query"].terms == [
        QueryTerm("gato", 0.25, "dictionary"),
        QueryTerm("gatos", 0.25, "formation"),
        QueryTerm("perro", 0.5, "dictionary"),
    ]
    assert namespace["run"].rankings == {
        "q1": [("d1", -1.2621176202791133), ("d2", -1.2636138847175071)]}
