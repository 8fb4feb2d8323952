"""Reachability: every top-level function and class in src/actlm is
referenced somewhere other than its own definition, in src or in the
benchmark, or is a named test oracle."""

import ast
import pathlib
import re

import actlm

SRC = pathlib.Path(actlm.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Reached only from tests/, where each is an oracle or a test switch.
ALLOWED = {
    "autodiff.set_precision": "selects the float64 verify mode the gradient "
                              "and rounding-bound tests run in",
    "autodiff.finite_diff_check": "the finite-difference oracle of the "
                                  "gradient-fidelity gates",
    "data.hmm_matrices": "the HMM parameters the sampler's statistics and "
                         "the Bayes-optimal cross-entropy are checked against",
    "metrics.read_metrics": "reads metrics.jsonl back in the CLI and "
                            "reproducibility tests",
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


def unreached() -> set[str]:
    """module.name of every top-level def or class that no other statement
    of its module, no other src module and no benchmark file except the
    benchmark's own tests references."""
    bench = set().union(*(references(ast.parse(p.read_text()))
                          for p in BENCH.glob("*.py") if p.name != "test_bench.py"))
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
