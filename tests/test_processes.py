"""Only tests/processes.py starts child processes."""

import ast
from pathlib import Path

SPAWNING_MODULES = {"subprocess", "multiprocessing", "pty"}
SPAWNING_OS = ("os.fork", "os.system", "os.popen", "os.exec", "os.spawn", "os.posix_spawn")


def spawning(tree):
    """Each (line, dotted name) of the module `tree` that imports or names a way to start a process."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] in SPAWNING_MODULES or name.startswith(SPAWNING_OS)]
    return sorted(found)


def test_only_processes_py_starts_a_child_process():
    sample = ast.parse("import subprocess\nfrom multiprocessing import Pool\nos.fork()\nfrom os import execv\n")
    assert spawning(sample) == [(1, "subprocess"), (2, "multiprocessing.Pool"), (3, "os.fork"), (4, "os.execv")]
    found = {path.name: spawning(ast.parse(path.read_text())) for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name != "processes.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
