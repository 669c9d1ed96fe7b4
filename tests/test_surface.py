"""The library takes only what its callers vary.

Parses src/cylreact/*.py and benchmark/*.py with ast (nothing is
imported or run) and checks two rules:

* every parameter of a function in src/ is read in its body;
* every parameter with a default, and every dataclass field with a
  default, is set by at least one call in src/ or benchmark/, by keyword
  or by position.  A call through **kwargs counts as setting every
  keyword, and a call through *args every position from its own.  A
  field also counts as set by a store of its name on anything but self
  (rec.f = v), which is how a record is stamped after it is built.

Tests are not callers here: an option that only tests set is one that no
run varies.  Calls are matched to definitions by the called name (f(...)
and obj.f(...) both match every def named f; a class name matches its
__init__ or its dataclass fields, and so does cls(...) in one of its own
classmethods), with no import or type resolution.  A call counts for a
def only if it can bind to it: its positional arguments must fit the
def's positional parameters (any number fits a def with *args), and each
keyword must name a parameter (any keyword fits a def with **kwargs).  So
a call to another function of the same name and a compatible signature
still counts as setting the parameter, and the guard can miss an option
that no caller sets.
"""

import ast
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "cylreact").glob("*.py"))
BENCHMARK = sorted((ROOT / "benchmark").glob("*.py"))

# Defaults that no run sets, each kept for its reason.
ALLOWED_UNSET = {
    ("classify", "tol"): "ROADMAP item 7 keeps an explicit stability margin",
    ("min_rayleigh", "k"): "it returns the k lowest pairs the spectra "
                           "tests read",
}


class Signature(NamedTuple):
    """A callable as its callers see it (no self or cls)."""

    positional: tuple  # names a call can fill by position, in order
    keywords: frozenset  # names a call can pass by keyword
    varargs: bool
    varkw: bool


class Call(NamedTuple):
    n_args: int  # positional arguments, a starred one included
    star: int | None  # position of the first *args
    keywords: frozenset
    kwargs: bool  # passes **kwargs


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def _owners(tree):
    """def or class statement -> the class whose body holds it."""
    return {child: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for child in node.body}


def _decorated(node, name):
    """node carries the decorator ``name``, bare or called."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) \
                == name:
            return True
    return False


def _defs(trees):
    """(path, name, def node, owning class name or None) for every def;
    an __init__ is named after its class."""
    out = []
    for path, tree in trees.items():
        owner = _owners(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner[node].name if node in owner else None
            name = cls if node.name == "__init__" and cls else node.name
            out.append((path, name, node, cls))
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


def _function_options(trees):
    """(name, signature, [(param, position or None, label)]) for each def
    with a defaulted parameter."""
    out = []
    for path, name, fn, cls in _defs(trees):
        a = fn.args
        bound = cls is not None and not _decorated(fn, "staticmethod")
        positional = [p.arg for p in a.posonlyargs + a.args][bound:]
        first = len(positional) - len(a.defaults)
        defaulted = [(p, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                      if d is not None]
        qual = name if cls in (None, name) else f"{cls}.{name}"
        signature = Signature(
            tuple(positional),
            frozenset(positional + [p.arg for p in a.kwonlyargs]),
            a.vararg is not None, a.kwarg is not None)
        out.append((name, signature,
                    [(p, i, f"{path.name}:{fn.lineno} {qual}({p})")
                     for p, i in defaulted]))
    return out


def _field(stmt):
    """(name, has a default) of a dataclass field statement, or None when
    the statement is no field of __init__."""
    if not (isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) \
            == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return stmt.target.id, bool({"default", "default_factory"} & set(kw))
    return stmt.target.id, value is not None


def _field_options(trees, stored):
    """(class name, __init__ signature, [(field, position, label)]) for
    each dataclass, over its defaulted fields whose name no attribute
    store in ``stored`` sets."""
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and _decorated(node, "dataclass")):
                continue
            fields = [f for f in map(_field, node.body) if f is not None]
            names = tuple(f for f, _ in fields)
            out.append((node.name,
                        Signature(names, frozenset(names), False, False),
                        [(f, i, f"{path.name}:{node.lineno} {node.name}.{f}")
                         for i, (f, default) in enumerate(fields)
                         if default and f not in stored]))
    return out


def _call(node):
    starred = [i for i, arg in enumerate(node.args)
               if isinstance(arg, ast.Starred)]
    return Call(len(node.args), starred[0] if starred else None,
                frozenset(k.arg for k in node.keywords if k.arg is not None),
                any(k.arg is None for k in node.keywords))


def _calls(trees):
    """name -> [Call] for every call in trees; cls(...) in a classmethod
    is filed under its class."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is not None:
                out.setdefault(name, []).append(_call(node))
        owner = _owners(tree)
        for fn in owner:
            if not (isinstance(fn, ast.FunctionDef) and fn.args.args
                    and _decorated(fn, "classmethod")):
                continue
            cls = fn.args.args[0].arg
            out.setdefault(owner[fn].name, []).extend(
                _call(node) for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == cls)
    return out


def _stored_attributes(trees):
    """Names of the attributes stored on anything but self: a class
    setting its own attribute is no caller."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")}


def _binds(call, signature):
    """The call can bind to the signature: its positional arguments fit,
    and each keyword names a parameter that no positional argument
    fills."""
    n_args = call.n_args if call.star is None else call.star
    filled = set(signature.positional[:n_args])
    return (signature.varargs or n_args <= len(signature.positional)) and \
        (signature.varkw or call.keywords <= signature.keywords) and \
        not call.keywords & filled


def _sets(call, param, index):
    return call.kwargs or param in call.keywords or (
        index is not None
        and (index < call.n_args
             or (call.star is not None and index >= call.star)))


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
    callers = _trees(SRC + BENCHMARK)
    calls = _calls(callers)
    trees = _trees(SRC)
    unset, seen = [], set()
    for name, signature, options in _function_options(trees) \
            + _field_options(trees, _stored_attributes(callers)):
        binding = [c for c in calls.get(name, []) if _binds(c, signature)]
        for param, index, label in options:
            seen.add((name, param))
            if (name, param) not in ALLOWED_UNSET \
                    and not any(_sets(c, param, index) for c in binding):
                unset.append(label)
    assert unset == []
    # the allowlist names only defaults that exist
    assert set(ALLOWED_UNSET) <= seen
