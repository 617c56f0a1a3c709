"""Rules the package writes once keep their one owner: JSON is decoded in
diagram._load_json, stdout is written in cli._emit, the diagonal factor
2^(1/q - 1) is computed in diagram._diagonal_factor, the diagonal distance
of a point whose persistence overflows, c * death - c * birth, in
diagram._diagonal_ground and its numpy twin matching._diagonal_grounds, the
exhaustive optimum is picked in matching._exhaust, the l^p root is taken in
matching._aggregate, the diagonal copies are placed in matching._copy_rule,
and the cost scale, the largest finite ground, is found in
matching.build_augmented_problem.  No enumeration of all n! slot
permutations is left."""

import ast
from pathlib import Path

import pdg

SOURCE = Path(pdg.__file__).parent


def _is_attribute(node, module: str, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == module)


def _is_diagonal_factor(node) -> bool:
    """A power of 2 whose exponent reads q."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2.0
            and any(isinstance(n, ast.Name) and n.id == "q" for n in ast.walk(node.right)))


def _is_lp_root(node) -> bool:
    """A power whose exponent is 1.0 / p or 1.0 / <x>.p."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    exponent = node.right
    if not (isinstance(exponent, ast.BinOp) and isinstance(exponent.op, ast.Div)
            and isinstance(exponent.left, ast.Constant) and exponent.left.value == 1.0):
        return False
    divisor = exponent.right
    return ((isinstance(divisor, ast.Name) and divisor.id == "p")
            or (isinstance(divisor, ast.Attribute) and divisor.attr == "p"))


def _places(matches) -> set[str]:
    """module.function, for the innermost function around every node of the
    package's source that matches (module.<module> at the top level)."""
    places = set()

    def visit(node, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if matches(node):
            places.add(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return places


def test_json_is_decoded_in_one_place():
    assert _places(lambda node: _is_attribute(node, "json", "loads")) == {"diagram._load_json"}


def test_stdout_is_written_in_one_place():
    assert _places(lambda node: _is_attribute(node, "sys", "stdout")) == {"cli._emit"}


def test_diagonal_factor_is_written_once():
    assert _places(_is_diagonal_factor) == {"diagram._diagonal_factor"}


def _is_scaled_difference(node) -> bool:
    """A subtraction of two products of c: c * a - c * b."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    and isinstance(side.left, ast.Name) and side.left.id == "c"
                    for side in (node.left, node.right)))


def test_the_overflowing_diagonal_distance_has_one_scalar_rule():
    # the Python build and diagonal_distance share the scalar rule
    assert _places(_is_scaled_difference) == {"diagram._diagonal_ground", "matching._diagonal_grounds"}


def test_the_exhaustive_optimum_is_picked_in_one_place():
    assert _places(lambda node: _is_attribute(node, "np", "argmin")) == {"matching._exhaust"}


def test_the_lp_root_is_taken_in_one_place():
    assert _places(_is_lp_root) == {"matching._aggregate"}


def _is_factorial_enumeration(node) -> bool:
    """itertools.permutations or math.factorial, by attribute or imported by name."""
    if isinstance(node, ast.alias):
        return node.name in ("permutations", "factorial")
    return _is_attribute(node, "itertools", "permutations") or _is_attribute(node, "math", "factorial")


def test_no_slot_permutation_enumeration_is_left():
    # the exhaustive oracles scan one row per geometric action
    assert _places(_is_factorial_enumeration) == set()


def _is_copy_columns(node) -> bool:
    """A range(ny, ...) call: the diagonal-copy columns of an assignment."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
            and len(node.args) >= 2 and isinstance(node.args[0], ast.Name) and node.args[0].id == "ny")


def test_the_diagonal_copies_are_placed_in_one_place():
    # the witness, every enumerated optimum and the exhaustive one share it
    assert _places(_is_copy_columns) == {"matching._copy_rule"}


def _is_finite_max(node) -> bool:
    """The largest finite ground: a .max(...) call with a where= keyword, or
    a max(...) call over a comprehension that filters its entries."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr == "max":
        return any(keyword.arg == "where" for keyword in node.keywords)
    return (isinstance(node.func, ast.Name) and node.func.id == "max"
            and any(isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and any(gen.ifs for gen in arg.generators)
                    for arg in node.args))


def test_the_cost_scale_is_found_in_one_place():
    # every solver, the p = inf witness included, reads it as AugmentedProblem.scale;
    # a builtin max over filtered grounds would be a second owner too
    assert _places(_is_finite_max) == {"matching.build_augmented_problem"}
