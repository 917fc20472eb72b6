"""The suite's one hypothesis profile, registered in conftest.py."""

import ast
from pathlib import Path

from hypothesis import settings

TESTS = Path(__file__).parent


def test_only_the_conftest_profile_sets_derandomize_or_deadline():
    """No call under tests/ but the profile passes derandomize= or deadline=, and the loaded profile derandomizes."""
    sources = {path.name: path.read_text() for path in sorted(TESTS.glob("*.py"))}
    calls = [
        (name, ast.unparse(node.func))
        for name, text in sources.items() if "derandomize" in text or "deadline" in text  # parse only these
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and {"derandomize", "deadline"} & {keyword.arg for keyword in node.keywords}
    ]
    assert calls == [("conftest.py", "settings.register_profile")]
    assert settings.default.derandomize is True
    assert settings.default.deadline is None

