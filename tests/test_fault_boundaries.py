"""The fault rule: no handler of the package catches everything, and each
fault boundary holds one handler.

A fault becomes a message in two places only. The load turns a bad release
into a failed release, and a bad project directory into a skipped one, each
with a warning. The process boundary, ``cli.main``, turns any other
``OSError`` or ``ValueError`` into an ``error:`` line and exit 1; the
commands it runs only raise. A bare ``except`` or one naming ``Exception``
or ``BaseException`` would turn a programming error anywhere else into a
silently dropped result.
"""

import ast
from pathlib import Path

import icmetrics

PACKAGE = sorted(Path(icmetrics.__file__).parent.glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(source: str) -> list[int]:
    """The line of each ``except`` handler in ``source`` that is bare or names
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(name, ast.Name) and name.id in CATCH_ALL for name in names):
                lines.append(node.lineno)
    return lines


def ending_handlers(source: str) -> dict[str, list[str]]:
    """Per top-level function of ``source``, the exception types of each of
    its ``except`` handlers that ends a fault: one whose last statement is
    not a ``raise``. A handler that raises only translates one exception
    into another."""
    found = {}
    for function in ast.parse(source).body:
        if isinstance(function, ast.FunctionDef):
            types = [ast.unparse(node.type) for node in ast.walk(function)
                     if isinstance(node, ast.ExceptHandler) and not isinstance(node.body[-1], ast.Raise)]
            if types:
                found[function.name] = types
    return found


def test_no_handler_catches_everything():
    found = {path.name: lines for path in PACKAGE if (lines := catch_all_handlers(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_main_is_the_one_fault_boundary_of_the_cli():
    source = (Path(icmetrics.__file__).parent / "cli.py").read_text(encoding="utf-8")
    commands = [node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert [command.name for command in commands] == ["cmd_analyze", "cmd_metrics", "cmd_synth"]
    assert [command.name for command in commands if any(isinstance(node, ast.Try) for node in ast.walk(command))] == []
    # run's handler points stdout at the null device after main has already
    # reported a failed flush, so that the flush at exit cannot fail again.
    assert ending_handlers(source) == {"main": ["(OSError, ValueError)"], "run": ["OSError"]}


def test_a_failed_release_is_judged_by_one_handler():
    source = (Path(icmetrics.__file__).parent / "ingest.py").read_text(encoding="utf-8")
    assert ending_handlers(source)["_load_project"] == ["(OSError, ValueError)"]


def test_the_catch_all_predicate():
    source = """
try:
    pass
except ValueError:
    pass
except (OSError, KeyError):
    pass
except Exception:
    pass
except (ValueError, BaseException) as exc:
    pass
except:
    pass
"""
    assert catch_all_handlers(source) == [8, 10, 12]


def test_the_ending_handler_predicate():
    source = """
def translates(text):
    try:
        return int(text)
    except ValueError:
        raise TypeError(text) from None

def ends(text):
    try:
        return int(text)
    except (ValueError, OSError):
        return None
"""
    assert ending_handlers(source) == {"ends": ["(ValueError, OSError)"]}
