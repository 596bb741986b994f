"""The fault rule: no handler of the package catches everything.

A fault becomes a message in two places only: the load (a failed release or
a skipped directory, with a warning) and the writer (nothing written, exit
1). Each catches the exception classes it names. A bare ``except`` or one
naming ``Exception`` or ``BaseException`` would turn a programming error
anywhere else into a silently dropped result.
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


def test_no_handler_catches_everything():
    found = {path.name: lines for path in PACKAGE if (lines := catch_all_handlers(path.read_text(encoding="utf-8")))}
    assert found == {}


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
