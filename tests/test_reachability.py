"""Every function and method in ``src/sifbm`` is reachable from the CLI.

The check is static and by name: starting from the module-level code of
every module and from ``cli.main``, a definition is reachable when its name is
loaded, as a name or as an attribute, by code already reached.  Imports do not
count: a name only imported is not used.  A dunder method (``__post_init__``,
``__repr__``, ...) is reached with its class, since Python calls it.  Matching
by bare name can only over-approximate, so a definition this test lists is
one that no CLI command can call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sifbm"

# In-memory helpers the tests call about 100 times; kept in the library so
# that each test builds its data with the program's own entry points.
ALLOWED = {
    "gaussian.sample_ensemble": "an ensemble in memory, without the CLI's artifact files",
    "gaussian.SampleEnsemble.column": "one index's samples, read by tests of every layer",
    "flows.project": "one flow's paths X_B A from an ensemble in memory, the reference for its statistics",
    "flows.flows_through": "the diagonal flow through a box, the tests' standard flow",
    "rects.rect": "the shorthand box constructor every test uses",
    "config.ExperimentConfig.ensemble_indices": "benchmark/run.py check_demo reads u.corner (item 1)",
    "rects.Rect.__post_init__": "builds the Rects that only ensemble_indices returns (item 1)",
}


def _loaded(nodes) -> set[str]:
    """The names and attribute names that ``nodes`` load."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def _definitions():
    """(qualified name, bare name, body, class name or None) for every
    top-level function and method, and the module-level code as nodes."""
    defs, module_code = [], []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{mod}.{stmt.name}", stmt.name, stmt.body, None))
                module_code += stmt.decorator_list + [stmt.args]
            elif isinstance(stmt, ast.ClassDef):
                module_code += stmt.decorator_list + stmt.bases + stmt.keywords
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append((f"{mod}.{stmt.name}.{item.name}", item.name, item.body,
                                     stmt.name))
                        module_code += item.decorator_list + [item.args]
                    else:
                        module_code.append(item)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_code.append(stmt)
    return defs, module_code


def unreachable() -> list[str]:
    defs, module_code = _definitions()
    names = _loaded(module_code) | {"main"}
    reached: set[str] = set()
    while True:
        new = [
            (q, body) for q, name, body, cls in defs
            if q not in reached and (
                name in names
                or (cls is not None and name.startswith("__") and name.endswith("__")
                    and cls in names)
            )
        ]
        if not new:
            return sorted(q for q, *_ in defs if q not in reached)
        for q, body in new:
            reached.add(q)
            names |= _loaded(body)


def test_every_definition_is_reachable_from_the_cli():
    dead = unreachable()
    listed = "\n".join(q + (" (allowed)" if q in ALLOWED else "") for q in dead)
    assert set(dead) <= set(ALLOWED), f"{len(dead)} definitions no CLI command reaches:\n{listed}"


def test_allow_list_names_only_unreachable_definitions():
    # an allowed helper the CLI reaches again leaves the list
    assert sorted(ALLOWED) == [q for q in unreachable() if q in ALLOWED]
