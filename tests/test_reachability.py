"""Reachability: every top-level function and class in src/actlm, and
every method of such a class but the dunder ones, is referenced
somewhere other than its own definition, in src or in the benchmark, or
is a named test oracle; every defaulted parameter of a src function is
passed by some src or benchmark call, and every field of a src dataclass
is read by some src or benchmark code, or is named with its reason."""

import ast
import pathlib
import re

import actlm

SRC = pathlib.Path(actlm.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Reached only from tests/, where each is an oracle.
ALLOWED = {
    "data.hmm_matrices": "the HMM parameters the sampler's statistics and "
                         "the Bayes-optimal cross-entropy are checked against",
    "metrics.read_metrics": "reads metrics.jsonl back in the CLI and "
                            "reproducibility tests",
}


# Defaulted parameters that no src or benchmark call passes, each kept for
# the reason given.
ALLOWED_DEFAULTS = {
    "init_model.dtype": "float32 trains; the gradient and rounding-bound "
                        "tests build float64 states with it",
    "main.argv": "the CLI tests drive the command line through it",
}


def references(tree: ast.AST) -> set[str]:
    """Identifiers a tree reads: names, attributes, and the identifiers in
    string constants (so "actlm.search:rollout" names rollout). Docstrings
    and imports read nothing."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def bench_references() -> set[str]:
    """Identifiers the benchmark files, except the benchmark's own tests,
    read."""
    return set().union(*(references(ast.parse(p.read_text()))
                         for p in BENCH.glob("*.py") if p.name != "test_bench.py"))


def unreached() -> set[str]:
    """module.name of every top-level def or class that no other statement
    of its module, no other src module and no benchmark file except the
    benchmark's own tests references."""
    bench = bench_references()
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    found = set()
    for stem, tree in modules.items():
        outside = bench.union(*(references(t) for s, t in modules.items() if s != stem))
        refs = [references(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in outside.union(*refs[:i], *refs[i + 1:]):
                found.add(f"{stem}.{node.name}")
    return found


def test_every_top_level_definition_is_reached():
    assert unreached() == set(ALLOWED)


# Methods that nothing in src or the benchmark calls, each kept for the
# reason given.
ALLOWED_METHODS: dict[str, str] = {}


def unreached_methods() -> set[str]:
    """Class.method of every method of a top-level src class, dunder
    methods aside, whose name nothing in src but its own definition and no
    benchmark file except the benchmark's own tests references. Names are
    matched alone, so reading another attribute of the same name counts
    too."""
    bench = bench_references()
    units = []  # (Class.method or None, the references of one statement)
    for p in SRC.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                method = isinstance(node, ast.ClassDef) \
                    and isinstance(member, ast.FunctionDef) \
                    and not re.fullmatch(r"__\w+__", member.name)
                units.append((f"{node.name}.{member.name}" if method else None,
                              references(member)))
    return {name for i, (name, _) in enumerate(units) if name is not None
            and name.split(".")[1] not in bench.union(
                *(refs for j, (_, refs) in enumerate(units) if j != i))}


def test_every_method_is_reached():
    assert unreached_methods() == set(ALLOWED_METHODS)


def defaulted_parameters(tree: ast.Module) -> dict[str, tuple]:
    """{"func.param" or "Class.method.param": (the name a call uses, the
    parameter name, its index among a call's positional arguments, None
    for a keyword-only one)} over the module's top-level functions and the
    methods of its top-level classes. A method's call drops self; an
    __init__ is called by its class's name."""
    out = {}

    def visit(fn, qual, called, method):
        args = fn.args
        pos = args.posonlyargs + args.args
        first = len(pos) - len(args.defaults)
        for i, arg in enumerate(pos[first:], first):
            out[f"{qual}.{arg.arg}"] = (called, arg.arg, i - method)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{qual}.{arg.arg}"] = (called, arg.arg, None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            visit(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):  # src has no static methods
                    visit(fn, f"{node.name}.{fn.name}",
                          node.name if fn.name == "__init__" else fn.name, 1)
    return out


def calls(tree: ast.AST):
    """(called name, positional count, keyword names) of every call in a
    tree; a *args or **kwargs argument counts as passing every parameter,
    by position or by keyword, respectively."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        n_pos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
            else len(node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, n_pos, keywords


def unpassed_defaults() -> set[str]:
    """Every defaulted parameter of a src function that no call in src or
    in a benchmark file except the benchmark's own tests passes, by
    keyword or by position. Calls are matched by the called name alone, so
    a call to another function of the same name counts too."""
    src = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    bench = [ast.parse(p.read_text()) for p in BENCH.glob("*.py")
             if p.name != "test_bench.py"]
    params = {key: spec for tree in src
              for key, spec in defaulted_parameters(tree).items()}
    seen = [c for tree in src + bench for c in calls(tree)]
    return {key for key, (called, name, index) in params.items()
            if not any(c == called and (name in kw or None in kw or
                                        (index is not None and n > index))
                       for c, n, kw in seen)}


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults() == set(ALLOWED_DEFAULTS)


# Dataclass fields that no src or benchmark code reads, each kept for the
# reason given.
ALLOWED_FIELDS = {
    "ActionAssignment.straight": "the straight-through tensor whose forward "
                                 "values the tests check are the exact "
                                 "one-hot of the selected codes",
}


def unread_fields() -> set[str]:
    """Class.field of every field of a src dataclass whose name no src or
    benchmark file except the benchmark's own tests reads as an attribute.
    Reads are matched by attribute name alone, so reading a field of the
    same name of another class counts too."""
    src = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    bench = [ast.parse(p.read_text()) for p in BENCH.glob("*.py")
             if p.name != "test_bench.py"]
    read = {node.attr for tree in src + bench for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for tree in src:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                    == "dataclass"
                    for d in cls.decorator_list):
                found |= {f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.target.id not in read}
    return found


def test_every_dataclass_field_is_read():
    assert unread_fields() == set(ALLOWED_FIELDS)


def autodiff_aliases(tree: ast.Module) -> set[str]:
    """The names a module binds to the autodiff module itself."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "actlm"):
            out |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        elif isinstance(node, ast.Import):
            out |= {a.asname for a in node.names
                    if a.name == "actlm.autodiff" and a.asname}
    return out


def test_src_calls_stop_grad_only_through_the_module():
    """The tests' finite-difference oracle holds stop_grad's outputs fixed
    by swapping the attribute `ad.stop_grad`. A src reference by a name
    imported from autodiff, or by the bare name inside it, would escape the
    swap, and a check would then measure the true zero derivative instead
    of the straight-through one."""
    through_module, escaping = 0, []
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text())
        aliases = autodiff_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "stop_grad" \
                    and isinstance(node.value, ast.Name) and node.value.id in aliases:
                through_module += 1
            elif isinstance(node, ast.Attribute) and node.attr == "stop_grad" \
                    or isinstance(node, ast.Name) and node.id == "stop_grad" \
                    or isinstance(node, ast.alias) and node.name in ("stop_grad", "*"):
                escaping.append(f"{p.name}:{node.lineno}")
    assert escaping == [] and through_module > 0, escaping


def actlm_imports(tree: ast.Module) -> set[str]:
    """The stems of the actlm modules a module imports, relatively or by
    the package's name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"actlm.{base}" if base else "actlm"
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        out |= {n.split(".")[1] for n in names if n.startswith("actlm.")}
    return out


def test_only_the_cli_imports_the_run_config_or_the_cli():
    """The layers below the command line take their settings as arguments
    and raise plain ValueErrors, so no src module but `cli` imports
    `runconfig` or `cli`."""
    importers = {p.stem for p in SRC.glob("*.py") if p.stem != "cli"
                 and actlm_imports(ast.parse(p.read_text())) & {"runconfig", "cli"}}
    assert importers == set()
    assert "runconfig" in actlm_imports(ast.parse((SRC / "cli.py").read_text()))


def test_src_names_float32_only_as_the_default_dtype():
    """A state computes in the dtype of its buffers, so src names float32
    (`np.float32` or the string "float32") in two places only:
    `init_model`'s default dtype and `autodiff.FLOAT_DTYPES`, the dtypes a
    Tensor holds. No array is then made in a fixed training dtype."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "init_model":
                allowed.update(id(n) for d in node.args.defaults for n in ast.walk(d))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "FLOAT_DTYPES" for t in node.targets):
                allowed.update(id(n) for n in ast.walk(node.value))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed
                  and (isinstance(node, ast.Attribute) and node.attr == "float32"
                       or isinstance(node, ast.Constant) and node.value == "float32")]
    assert found == []
