"""The library takes only what its callers vary.

Parses src/cylreact/*.py and benchmark/*.py with ast (nothing is
imported or run) and checks two rules:

* every parameter of a function in src/ is read in its body;
* every parameter with a default is set by at least one call in src/ or
  benchmark/, by keyword or by position.  A call through **kwargs counts
  as setting every keyword, and a call through *args every position from
  its own.

Tests are not callers here: an option that only tests set is one that no
run varies.  Calls are matched to definitions by the called name alone
(f(...) and obj.f(...) both match every def named f; a class name
matches its __init__), with no import or type resolution.  So a call to
another function of the same name counts as setting the parameter, and
the guard can miss an option that no caller sets.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "cylreact").glob("*.py"))
BENCHMARK = sorted((ROOT / "benchmark").glob("*.py"))

# Defaults that no run sets, each kept for its reason.
ALLOWED_UNSET = {
    ("classify", "tol"): "ROADMAP item 7 keeps an explicit stability margin",
    ("min_rayleigh", "k"): "it returns the k lowest pairs the spectra "
                           "tests read",
}


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def _defs(trees):
    """(path, name, def node, is_method) for every def; an __init__ is
    named after its class."""
    out = []
    for path, tree in trees.items():
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, ast.FunctionDef):
                        owner[child] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            cls = owner.get(node)
            name = cls if cls and node.name == "__init__" else node.name
            out.append((path, name, node, cls is not None and not static))
    return out


def _runner_names(trees):
    """The functions cli._RUNNERS dispatches to: they share the signature
    (cfg), read or not."""
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and path.name == "cli.py" \
                    and any(isinstance(t, ast.Name) and t.id == "_RUNNERS"
                            for t in node.targets):
                return {v.id for v in node.value.values}
    raise AssertionError("cli._RUNNERS not found")


def _parameters(fn):
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs
    params += [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in params]


def _defaulted(fn):
    """(name, position or None) of each parameter with a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _calls(trees):
    """name -> [(positions set, keywords set, **kwargs passed, *args
    from)] for every call in trees."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = [i for i, arg in enumerate(node.args)
                       if isinstance(arg, ast.Starred)]
            out.setdefault(name, []).append((
                len(node.args),
                {k.arg for k in node.keywords if k.arg is not None},
                any(k.arg is None for k in node.keywords),
                starred[0] if starred else None))
    return out


def test_every_parameter_is_read():
    trees = _trees(SRC)
    runners = _runner_names(trees)
    unread = []
    for path, name, fn, _ in _defs(trees):
        loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in _parameters(fn):
            if param == "_" or (param == "cfg" and name in runners):
                continue
            if param not in loaded:
                unread.append(f"{path.name}:{fn.lineno} {name}({param})")
    assert unread == []


def test_every_default_is_set_by_a_caller():
    calls = _calls(_trees(SRC + BENCHMARK))
    unset, seen = [], set()
    for path, name, fn, is_method in _defs(_trees(SRC)):
        for param, position in _defaulted(fn):
            seen.add((name, param))
            if (name, param) in ALLOWED_UNSET:
                continue
            index = None if position is None else position - is_method
            if not any(kwargs or param in keywords
                       or (index is not None
                           and (index < n_args
                                or (star is not None and index >= star)))
                       for n_args, keywords, kwargs, star
                       in calls.get(name, [])):
                unset.append(f"{path.name}:{fn.lineno} {name}({param})")
    assert unset == []
    # the allowlist names only defaults that exist
    assert set(ALLOWED_UNSET) <= seen
