"""README's `python` blocks run against the package as it stands, so the
library example cannot name an API that no longer exists."""

import re
from pathlib import Path

import torfrech
from torfrech import frechet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {})
    assert capsys.readouterr().out


def test_the_single_query_estimators_are_gone_and_the_table_names_them():
    """fit_queries on one row replaced the single-query layer; each public name
    that went has a row in README's table of removed or changed names."""
    public = ["local_constant_estimate", "local_linear_estimate", "LocalFit", "FitDiagnostics"]
    for name in public + ["_fit_one"]:
        assert not hasattr(torfrech, name) and not hasattr(frechet, name), name
    table = README.read_text().split("| removed or changed | instead |\n", 1)[1].split("\n\n")[0]
    removed = [row.split(" | ")[0] for row in table.splitlines()]
    for name in public:
        assert any(re.search(rf"`{name}\b", cell) for cell in removed), name
