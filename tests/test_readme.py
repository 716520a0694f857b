"""README's `python` blocks run against the package as it stands, so the
library example cannot name an API that no longer exists."""

import re
from pathlib import Path

import torfrech
from torfrech import errors, frechet, io, kernels, metric, torus
from torfrech.bandwidth import GridSpec
from torfrech.torus import TorusPoint

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {})
    assert capsys.readouterr().out


# Each public name that left the package, by the module or class that held it.
REMOVED = {
    "local_constant_estimate": frechet, "local_linear_estimate": frechet,
    "LocalFit": frechet, "FitDiagnostics": frechet,
    "chart": torus, "inverse_chart": torus, "TangentCoords": torus, "cos_gaps": torus,
    "TorusPoint.embed": TorusPoint, "TorusPoint.dim": TorusPoint,
    "scalar_kernel": kernels, "toroidal_weight": kernels, "kernel_moment": kernels,
    "composite_gauss_nodes": kernels, "frechet_mean_oracle": metric,
    "UnsupportedOracleError": errors, "ResponseSpace.distance": metric.ResponseSpace,
    "encode_time_to_torus": io, "GridSpec.uniform": GridSpec,
}


def test_removed_names_are_gone_and_the_table_names_them():
    """fit_queries on one row replaced the single-query layer, and the scalar
    references moved to tests/reference.py; each public name that went is gone
    from `torfrech` and its module and has a row in README's table of removed
    or changed names."""
    table = README.read_text().split("| removed or changed | instead |\n", 1)[1].split("\n\n")[0]
    removed = [row.split(" | ")[0] for row in table.splitlines()]
    for name, owner in REMOVED.items():
        attr = name.rsplit(".", 1)[-1]
        assert not hasattr(owner, attr) and not hasattr(torfrech, attr), name
        assert any(re.search(rf"`(\w+\.)?{re.escape(name)}\b", cell) for cell in removed), name
    for owner, private in ((frechet, "_fit_one"), (kernels, "_axis_moment"),
                           (metric, "_sphere_grid"), (torus, "_check_dims")):
        assert not hasattr(owner, private), private
