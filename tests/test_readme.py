import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_passes():
    # the one ```python block under "Library quick start", run as written;
    # its last line is the documented laplace_mc(...).passed
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    tree = ast.parse(code)
    last = tree.body.pop()
    assert isinstance(last, ast.Expr) and "laplace_mc" in ast.unparse(last)
    namespace = {}
    exec(compile(tree, "README.md", "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) is True
