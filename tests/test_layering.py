"""Layering guards.

The CLI uses only public package names.  It may not reach a
`_`-prefixed name of any knitrect module, neither as an attribute
(`pl._run_bundle`) nor through an import (`from .series import
_open_text`).

Which networks train together in lockstep is decided in knitrect.mlp
alone: no other package module names `lockstep_groups`.  So is which
nets get a straight-line body: no other module names
`_KERNEL_MAX_PARAMS`.  One gradient serves one model and many:
knitrect.mlp defines `_backprop` once, and both the public `gradient`
and the lockstep trainer `_train_group` call it.  One numpy forward pass
serves them all: only `_forward` and `_backprop` multiply matrices in
knitrect.mlp, also through a name bound to a product function (the
passes call `buf.product`, np.dot for a stack of one and np.matmul
otherwise), `_forward` is reached from `_backprop` and from the
stacked scorer `_outputs`, and both `forward_batch` and the trainer's
epoch losses (`_train_group`) go through `_outputs`.  The backward
products multiply by transposed views of the parameter stack itself:
neither `_backprop`, `gradient` nor `_train_group` (its step loop
included) transposes an array (the transposed views of the activations
live in `_Buffers`, those of the weights come from `_layer_views`), and
both `gradient` and `_train_group` take their transposed weight views
of the very stack whose plain views their forward passes read, not of a
gathered or copied one.

One filter recurrence builds every feature bank: outside the simulator,
the update y = x + beta*(y - x) is written only in the step that
smoothing._step_template generates, and gridsearch builds its banks only
through `feature_bank_with_windows`.  A bank only filters: smoothing
names no knitrect.mlp name but `_compile_factory`, which compiles its step.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knitrect"
CHECKED = [PACKAGE / "cli.py"]
GUARDED = tuple(sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _guarded_module(module: str | None, level: int) -> str | None:
    """The guarded module that a from-import names (`.cli`, `knitrect.cli`), or None."""
    name = module or ""
    if level == 0 and name.startswith("knitrect."):
        name = name[len("knitrect.") :]
    elif level != 1:
        return None
    return name if name in GUARDED else None


def module_names(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for every name of a guarded module that the source touches.

    A name is touched through a from-import (`from .series import
    _open_text`) or as an attribute of a name bound to its module
    (`pl._run_bundle`, `kr.pipeline._run_bundle`).
    """
    tree = ast.parse(source)
    modules = {}  # local name -> guarded module it is bound to
    packages = set()  # local names bound to the knitrect package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "knitrect":
                    continue
                if alias.asname is None or len(parts) == 1:
                    packages.add(alias.asname or "knitrect")
                elif len(parts) == 2 and parts[1] in GUARDED:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "knitrect")):
                for alias in node.names:
                    if alias.name in GUARDED:
                        modules[alias.asname or alias.name] = alias.name
            elif module := _guarded_module(node.module, node.level):
                found += [(node.lineno, module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            found.append((node.lineno, modules[base.id], node.attr))
        elif (
            isinstance(base, ast.Attribute)
            and base.attr in GUARDED
            and isinstance(base.value, ast.Name)
            and base.value.id in packages
        ):
            found.append((node.lineno, base.attr, node.attr))
    return found


def reach_ins(source: str) -> list[str]:
    """Every private name of a guarded module that the source touches."""
    return [f"line {line}: {module}.{name}" for line, module, name in module_names(source) if _private(name)]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_private_reach_ins(path):
    assert reach_ins(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from . import pipeline as pl\npl._run_bundle(b, r)",
        "from knitrect import pipeline\npipeline._score(p, q)",
        "import knitrect.pipeline as pl\npl._target_column",
        "import knitrect as kr\nkr.pipeline._run_bundle",
        "from knitrect.cli import _parse_indices",
        "from .cli import _parse_indices",
        "def f():\n    from .pipeline import _score\n",
        "from .series import _open_text",
        "from knitrect.simulate import _role",
        "from . import errors\nerrors._finite(x)",
    ],
)
def test_guard_flags_each_kind_of_reach_in(source):
    assert len(reach_ins(source)) == 1


def test_guard_allows_public_and_dunder_names():
    src = "import knitrect as kr\nfrom . import pipeline as pl\nkr.evaluate\npl.evaluate\nkr.__version__\n"
    assert reach_ins(src) == []


NOT_MLP = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "mlp.py"]


def name_references(source: str, name: str) -> list[int]:
    """Lines that name `name`: in an import, as a name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if name in names:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", NOT_MLP, ids=lambda p: p.name)
def test_only_mlp_forms_lockstep_groups(path):
    assert name_references(path.read_text(), "lockstep_groups") == []


@pytest.mark.parametrize(
    "source",
    [
        "from .mlp import lockstep_groups",
        "from . import mlp\nmlp.lockstep_groups(sizes)",
        "import knitrect as kr\nkr.mlp.lockstep_groups",
        "from .mlp import lockstep_groups as split\nsplit(sizes)",
    ],
)
def test_lockstep_guard_flags_each_kind_of_reference(source):
    assert len(name_references(source, "lockstep_groups")) == 1


def test_lockstep_guard_sees_mlp_itself():
    assert name_references((PACKAGE / "mlp.py").read_text(), "lockstep_groups")


@pytest.mark.parametrize("path", NOT_MLP, ids=lambda p: p.name)
def test_only_mlp_reads_the_kernel_bound(path):
    assert name_references(path.read_text(), "_KERNEL_MAX_PARAMS") == []


def test_kernel_bound_guard_sees_mlp_itself():
    assert name_references((PACKAGE / "mlp.py").read_text(), "_KERNEL_MAX_PARAMS")


# the stream session in pipeline.py in miniature, which runs whichever
# evaluator mlp._float_net picks; each mutant reads the bound once
STREAM_SESSION = """
from .mlp import MlpModel, _float_net, forward_batch
class StreamSession:
    def __post_init__(self):
        self._net = _float_net(self.bundle.model)
"""


def test_kernel_bound_guard_passes_the_miniature():
    assert name_references(STREAM_SESSION, "_KERNEL_MAX_PARAMS") == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("from .mlp import MlpModel,", "from .mlp import _KERNEL_MAX_PARAMS, MlpModel,"),
        (
            "        self._net = _float_net(",
            "        if self.bundle.model.param_count() > mlp._KERNEL_MAX_PARAMS:\n            return\n        self._net = _float_net(",
        ),
    ],
)
def test_kernel_bound_guard_flags_a_second_reader(old, new):
    assert STREAM_SESSION.count(old) == 1
    assert len(name_references(STREAM_SESSION.replace(old, new), "_KERNEL_MAX_PARAMS")) == 1


def mlp_names(source: str) -> set[str]:
    """The names of knitrect.mlp that the source touches."""
    return {name for _, module, name in module_names(source) if module == "mlp"}


def test_smoothing_takes_only_the_factory_compiler_from_mlp():
    # the bank only filters; the stream session runs the net on its output
    assert mlp_names((PACKAGE / "smoothing.py").read_text()) <= {"_compile_factory"}


@pytest.mark.parametrize(
    "source",
    [
        "from .mlp import _compile_factory, _float_net",
        "from .mlp import _compile_factory\nfrom . import mlp\nmlp._kernel_template(sizes)",
        "from .mlp import _compile_factory\nimport knitrect as kr\nkr.mlp.MlpModel",
        "from knitrect.mlp import _compile_factory, forward",
    ],
)
def test_smoothing_mlp_guard_flags_a_network_name(source):
    assert not mlp_names(source) <= {"_compile_factory"}


def definitions_and_callers(source: str, name: str) -> tuple[int, set[str]]:
    """How many functions called `name` the module defines, and which top-level functions call it."""
    tree = ast.parse(source)
    defined = sum(isinstance(node, ast.FunctionDef) and node.name == name for node in ast.walk(tree))
    callers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    }
    return defined, callers


def test_one_backprop_serves_gradient_and_lockstep_training():
    defined, callers = definitions_and_callers((PACKAGE / "mlp.py").read_text(), "_backprop")
    assert defined == 1
    assert {"gradient", "_train_group"} <= callers


@pytest.mark.parametrize(
    "source",
    [
        "def _backprop(): pass\ndef _backprop(): pass\ndef gradient(): _backprop()\ndef _train_group(): _backprop()",
        "def _backprop(): pass\ndef gradient(): _gradient_one()\ndef _train_group(): _backprop()",
    ],
)
def test_backprop_guard_flags_a_second_gradient(source):
    defined, callers = definitions_and_callers(source, "_backprop")
    assert defined != 1 or not {"gradient", "_train_group"} <= callers


MATMUL_CALLS = {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}


def _names_a_product(node) -> bool:
    """Whether an expression is a product function (`np.dot`), or a conditional choice between such."""
    if isinstance(node, ast.IfExp):
        return _names_a_product(node.body) or _names_a_product(node.orelse)
    return isinstance(node, ast.Attribute) and node.attr in MATMUL_CALLS or isinstance(node, ast.Name) and node.id in MATMUL_CALLS


def product_names(tree: ast.AST) -> set[str]:
    """MATMUL_CALLS and every name that the module binds to one of them.

    A binding is an assignment to a name or an attribute
    (`self.product = np.dot if k == 1 else np.matmul`) or an import
    alias (`from numpy import matmul as mm`).
    """
    names = set(MATMUL_CALLS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _names_a_product(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.asname and a.name in MATMUL_CALLS}
    return names


def matrix_products(source: str) -> set[str]:
    """The top-level definitions ('<module>' for other statements) that multiply matrices.

    A product is `@` or `@=`, or a call of a function named as in
    MATMUL_CALLS (`np.matmul(a, w)`, `np.dot`, `a.dot(w)`, `matmul(a, w)`
    and the like) or by a name bound to one (product_names), such as
    `buf.product(w, x, out=z)`.  The binding itself multiplies nothing.
    """
    tree = ast.parse(source)
    products = product_names(tree)
    found = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call)
                and (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in products
                    or isinstance(node.func, ast.Name)
                    and node.func.id in products
                )
            ):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def forward_pass_faults(source: str) -> list[str]:
    """How the module departs from one numpy forward pass; [] if it does not."""
    faults = []
    defined, callers = definitions_and_callers(source, "_forward")
    if defined != 1:
        faults.append(f"_forward defined {defined} times")
    if callers != {"_backprop", "_outputs"}:
        faults.append(f"_forward called from {sorted(callers)}")
    outside = matrix_products(source) - {"_forward", "_backprop"}
    if outside:
        faults.append(f"matrix products in {sorted(outside)}")
    _, callers = definitions_and_callers(source, "_outputs")
    missing = {"forward_batch", "_train_group"} - callers
    if missing:
        faults.append(f"{sorted(missing)} do not call _outputs")
    return faults


def test_mlp_has_one_numpy_forward_pass():
    assert forward_pass_faults((PACKAGE / "mlp.py").read_text()) == []


# the call structure of mlp.py in miniature; each mutant breaks it once
ONE_FORWARD = """
class _Buffers:
    def __init__(self, k, n, widths):
        self.product = np.dot if k == 1 else np.matmul
def _forward(ws, x, buf):
    for li, (w, z) in enumerate(zip(ws, buf.zs)):
        buf.product(w, x, out=z)
        x = buf.acts[li + 1]
def _outputs(ws, X, buffers):
    _forward(ws, X.T, buffers[0])
def forward_batch(model, X):
    return _outputs(_fold(model), X, {})[0]
def _backprop(ws, buf, gws):
    _forward(ws, buf.acts[0], buf)
    buf.product(buf.dzs[0], buf.acts_t[0], out=gws[0])
def _train_group(models):
    def losses():
        return _outputs(ws, X_rows, buffers)
    _backprop(ws, buf, gws)
"""


def test_forward_guard_passes_the_miniature():
    assert forward_pass_faults(ONE_FORWARD) == []


def test_forward_guard_sees_the_products_of_mlp_itself():
    assert matrix_products((PACKAGE / "mlp.py").read_text()) == {"_forward", "_backprop"}


@pytest.mark.parametrize(
    "old, new",
    [
        # forward_batch runs its own 2-D loop again
        ("return _outputs(_fold(model), X, {})[0]", "return X @ model.weights[0] + model.biases[0]"),
        ("return _outputs(_fold(model), X, {})[0]", "return np.dot(X, model.weights[0])"),
        ("return _outputs(_fold(model), X, {})[0]", "return X.dot(model.weights[0])"),
        # the epoch loss goes back to a per-slot forward
        ("return _outputs(ws, X_rows, buffers)", "return [mse_loss(net, X, y) for net in nets]"),
        ("return _outputs(ws, X_rows, buffers)", "a = X_rows\n        a @= ws[0]\n        return a"),
        # a product through the bound name, or through a name of its own
        ("    _forward(ws, X.T, buffers[0])", "    buffers[0].product(ws[0], X.T, out=buffers[0].zs[0])"),
        ("def _train_group(models):", "def _train_group(models):\n    mm = np.dot if len(models) == 1 else np.matmul\n    mm(X, ws[0])"),
        ("def _train_group(models):", "from numpy import matmul as mm\ndef _train_group(models):\n    mm(X, ws[0])"),
        # _backprop keeps a forward loop of its own
        ("def _backprop(ws, buf, gws):\n    _forward(ws, buf.acts[0], buf)", "def _backprop(ws, buf, gws):\n    pass"),
        # a second _forward, or a product at module level
        ("def _outputs(", "def _forward(ws, buf):\n    pass\ndef _outputs("),
        ("def _train_group(", "forward = lambda X, w: np.matmul(X, w)\ndef _train_group("),
    ],
)
def test_forward_guard_flags_a_second_forward_pass(old, new):
    assert ONE_FORWARD.count(old) == 1
    assert forward_pass_faults(ONE_FORWARD.replace(old, new))


TRANSPOSING = {"T", "mT", "transpose", "swapaxes", "moveaxis"}
NO_TRANSPOSE = ("_backprop", "gradient", "_train_group")


def _layer_view_stacks(fn) -> tuple[set[str], set[str]]:
    """The stacks (as dumped expressions) of fn's plain `_layer_views` calls, and of its transposed=True ones."""
    plain, transposed = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_layer_views" and node.args:
            flag = any(kw.arg == "transposed" and isinstance(kw.value, ast.Constant) and kw.value.value is True for kw in node.keywords)
            (transposed if flag else plain).add(ast.dump(node.args[0]))
    return plain, transposed


def transposed_weight_faults(source: str) -> list[str]:
    """How the module departs from backward products on transposed views of the parameter stack itself; [] if it does not.

    A transpose is an attribute named as in TRANSPOSING (`w.T`,
    `w.transpose(0, 2, 1)`, `np.swapaxes(w, 1, 2)` and the like).  A
    transposed view of a stack that no plain `_layer_views` call of the
    same function reads (`params.take(...)`, a scratch `params_t`) is a
    copy, not the stack.
    """
    functions = {fn.name: fn for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    faults = []
    for name in NO_TRANSPOSE:
        lines = [node.lineno for node in ast.walk(functions[name]) if isinstance(node, ast.Attribute) and node.attr in TRANSPOSING]
        if lines:
            faults.append(f"{name} transposes at lines {lines}")
    for name in ("gradient", "_train_group"):
        plain, transposed = _layer_view_stacks(functions[name])
        if not transposed:
            faults.append(f"{name} takes no transposed weight views")
        elif not transposed <= plain:
            faults.append(f"{name} transposes a stack its forward views do not read")
    return faults


def test_backward_products_read_the_parameter_stack_in_place():
    assert transposed_weight_faults((PACKAGE / "mlp.py").read_text()) == []


# the transposed weights of mlp.py in miniature; each mutant breaks them once
ONE_TRANSPOSE = """
def _backprop(ws, wts, buf, gws):
    buf.product(buf.dzs[li], buf.acts_t[li], out=gws[li])
    buf.product(wts[li], buf.deltas[li], out=buf.delta_outs[li - 1])
def gradient(model, X, y):
    ws, wts, gws = _layer_views(params, sizes), _layer_views(params, sizes, transposed=True), _layer_views(grads, sizes)
    _backprop(ws, wts, buf, gws)
def _train_group(models):
    ops.ws, ops.gws = _layer_views(ops.params, widths), _layer_views(ops.grads[0], widths)
    ops.wts = _layer_views(ops.params, widths, transposed=True)
    for lo in range(0, n, batch):
        _backprop(ops.ws, ops.wts, buf, ops.gws)
"""


def test_transpose_guard_passes_the_miniature():
    assert transposed_weight_faults(ONE_TRANSPOSE) == []


@pytest.mark.parametrize(
    "old, new",
    [
        # the backward product transposes a weight view itself
        ("wts[li], buf.deltas", "ws[li].transpose(0, 2, 1), buf.deltas"),
        ("wts[li], buf.deltas", "ws[li].mT, buf.deltas"),
        ("wts[li], buf.deltas", "np.swapaxes(ws[li], 1, 2), buf.deltas"),
        # gradient or the trainer transposes a gathered copy of the stack
        ("_layer_views(params, sizes, transposed=True)", "_layer_views(params.take(order, axis=1), sizes, transposed=True)"),
        ("_layer_views(ops.params, widths, transposed=True)", "_layer_views(ops.params_t, widths, transposed=True)"),
        # the step loop or gradient transposes instead of viewing
        (
            "        _backprop(ops.ws",
            "        wts = [np.ascontiguousarray(w.transpose(0, 2, 1)) for w in ops.ws]\n        _backprop(ops.ws",
        ),
        ("_layer_views(params, sizes, transposed=True)", "[w.T.copy() for w in ws]"),
        # the trainer's backward products read its forward views
        ("ops.wts = _layer_views(ops.params, widths, transposed=True)", "ops.wts = ops.ws"),
    ],
)
def test_transpose_guard_flags_a_transpose_or_a_copy_of_the_stack(old, new):
    assert ONE_TRANSPOSE.count(old) == 1
    assert transposed_weight_faults(ONE_TRANSPOSE.replace(old, new))


def _is_update(node) -> bool:
    """Whether node is a + k*(b - a) or a + (b - a)*k, the form of the filter update."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    step, a = node.right, ast.dump(node.left)
    return (
        isinstance(step, ast.BinOp)
        and isinstance(step.op, ast.Mult)
        and any(isinstance(d, ast.BinOp) and isinstance(d.op, ast.Sub) and ast.dump(d.right) == a for d in (step.left, step.right))
    )


def _generated_code(node) -> ast.AST | None:
    """A string or f-string (each placeholder read as a name) that parses as Python, parsed; else None."""
    if isinstance(node, ast.JoinedStr):
        text = "".join(part.value if isinstance(part, ast.Constant) else "v" for part in node.values)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        return None
    try:
        return ast.parse(text)
    except (SyntaxError, ValueError):
        return None


def update_sites(source: str) -> set[str]:
    """The top-level definitions that write the filter update, as code or as the text of generated code."""
    found = set()
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            code = _generated_code(node)
            if _is_update(node) or code is not None and any(map(_is_update, ast.walk(code))):
                found.add(getattr(stmt, "name", "<module>"))
    return found


def called_names(source: str) -> set[str]:
    """The names the module calls, as a name or an attribute; an imported alias counts as the imported name."""
    tree = ast.parse(source)
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            found.add(aliases.get(name, name))
    return found


# the smoothing functions that run filters; gridsearch may reach them only
# through feature_bank_with_windows
FILTER_RUNNERS = {"_filter_pass", "_step_template", "make_bank", "bank_push", "_bank_step"}


def filter_bank_faults(sources: dict[str, str]) -> list[str]:
    """How the modules (name -> source) depart from one recurrence and one bank builder; [] if they do not."""
    faults = []
    sites = sorted(f"{module}.{fn}" for module, source in sources.items() for fn in update_sites(source))
    if sites != ["smoothing._step_template"]:
        faults.append(f"the filter update is written in {sites}")
    grid = called_names(sources["gridsearch"])
    if "feature_bank_with_windows" not in grid or grid & FILTER_RUNNERS:
        faults.append(f"gridsearch builds banks with {sorted(grid & FILTER_RUNNERS)}, not feature_bank_with_windows")
    return faults


def test_one_filter_recurrence_builds_every_bank():
    # the simulator is the oracle the filters are checked against; its noise
    # interpolation and contact lag are updates of the same form
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.stem != "simulate"}
    assert filter_bank_faults(sources) == []


# the bank builders of smoothing.py, gridsearch.py and pipeline.py in
# miniature; each mutant breaks them once
ONE_FILTER_PASS = {
    "smoothing": """
def _filter_pass(xs, alphas, windows):
    step = _step_template(len(alphas))(*seeds, *betas)
    return step, np.fromiter(chain(seeds, chain.from_iterable(map(step, xs))), float)
def feature_bank_with_windows(series, alphas, windows):
    return FeatureMatrix(_filter_pass(series.values, alphas, windows)[1])
def _step_template(n):
    body = [f"{y} = x + beta{j} * ({y} - x)" for j, y in enumerate(ys)]
""",
    "gridsearch": """
from .smoothing import feature_bank_with_windows
def run_grid(datasets, columns):
    for ds in datasets:
        shared = feature_bank_with_windows(ds.g_series(), *zip(*columns)).values
""",
    "pipeline": """
from . import smoothing
def fit_pipeline(prepared, alphas, windows):
    feats = smoothing.feature_bank_with_windows(prepared.g_series(), alphas, windows)
""",
}


def test_filter_bank_guard_passes_the_miniature():
    assert filter_bank_faults(ONE_FILTER_PASS) == []


@pytest.mark.parametrize(
    "module, old, new",
    [
        # a second recurrence beside the generated step
        ("smoothing", "def _filter_pass(", "def _recurrence(y, beta, xs):\n    for x in xs:\n        y = x + beta * (y - x)\ndef _filter_pass("),
        ("pipeline", "    feats =", "    ys = [x + (y - x) * beta for y in ys]\n    feats ="),
        ("smoothing", "def _filter_pass(", 'LINE = "y = x + beta * (y - x)"\ndef _filter_pass('),
        # the grid runs filters itself
        ("gridsearch", "shared = feature_bank_with_windows(ds.g_series(), *zip(*columns)).values", "shared = _filter_pass(v, a, m)[1]"),
        ("gridsearch", "shared = feature", "bank = make_bank(a, m)\n        shared = feature"),
        ("gridsearch", "import feature_bank_with_windows", "import feature_bank_with_windows, _filter_pass as run\nrun(xs, a, m)"),
    ],
)
def test_filter_bank_guard_flags_a_second_recurrence_or_bank_builder(module, old, new):
    assert ONE_FILTER_PASS[module].count(old) == 1
    assert filter_bank_faults({**ONE_FILTER_PASS, module: ONE_FILTER_PASS[module].replace(old, new)})
