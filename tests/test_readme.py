"""README stays true: its library tour runs and prints what its comments
say, every name its API paragraph lists imports from the module named, and
its `[options]` list names every option the problem loader takes."""

import importlib
import re
from pathlib import Path

from jetvar import render_expr
from jetvar.problem import DEFAULT_OPTIONS

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def tour_block() -> str:
    section = README.split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_and_gives_its_commented_results():
    block = tour_block()
    *body, last = block.strip().splitlines()
    namespace = {}
    exec("\n".join(body), namespace)
    ctx = namespace["ctx"]
    assert "# SourceForm, components (3*u^2 - u_{1,1},)" in block
    assert [render_expr(e, ctx) for e in namespace["eps"].eps] == ["3*u^2 - u_{1,1}"]
    assert '# verdict "variational"' in block
    assert namespace["report"].verdict == "variational"
    assert last.startswith("decide_zero(") and "# True:" in last
    assert eval(last.split("#", 1)[0], namespace) is True


def test_every_name_of_the_api_paragraph_imports_from_its_module():
    paragraph = README.split("Every other name imports from its own module", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    listed = dict(re.findall(r"`(jetvar\.\w+)` \(([^)]*)\)", paragraph))
    assert set(listed) == {"jetvar.expr", "jetvar.coords", "jetvar.forms"}
    for module_name, names in listed.items():
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_the_options_list_names_every_option():
    listed = README.split("* `[options]` accepts", 1)[1].split(";", 1)[0]
    assert re.findall(r"`([\w-]+)`", listed) == list(DEFAULT_OPTIONS)
