"""Where each rule of the package lives: one table of homes over one parse of
every module of `hspansharp`.

A row names a rule, a matcher over AST nodes, the modules it searches (path
prefixes relative to the package) and the rule's homes. A home is a
(module, top-level name) pair: the function or class that holds the match,
or the name a module-level assignment binds. A row holds when the homes of
its matches are exactly its homes, so a renamed operator or message fails
its row instead of passing it. A row with no homes forbids the match in its
modules; it carries one line of source that breaks it, which its matcher
must flag.

Three rules are not about where code lives and are plain tests below:
`__all__` lists exactly the public names, every public name is used, and
every default of a `gnyq` reads `GNYQ`."""

import ast
import functools
import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hspansharp"


def parse(source):
    """The top-level statements of `source`, each with every node under it."""
    return [(stmt, list(ast.walk(stmt))) for stmt in ast.parse(source).body]


@functools.cache
def modules():
    """{path relative to the package: parsed module} of every module."""
    return {
        path.relative_to(PACKAGE).as_posix(): parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def top_name(stmt):
    """The name a top-level statement defines or binds, or None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None


def matches(match, where, module):
    """The homes, (module, top-level name), of the nodes of a parsed
    `module` that `match` flags."""
    return {(where, top_name(stmt)) for stmt, nodes in module for node in nodes if match(node)}


# Matchers.
def named(*names):
    return lambda n: getattr(n, "id", None) in names or getattr(n, "attr", None) in names


def called(*names):
    return lambda n: isinstance(n, ast.Call) and named(*names)(n.func)


def attribute(name, of=None):
    return lambda n: getattr(n, "attr", None) == name and (
        of is None or getattr(n.value, "attr", None) == of
    )


def message(text):
    return lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value


def literal(*values):
    return lambda n: isinstance(n, ast.Constant) and n.value in values


def int_cast(arg):
    return lambda n: (
        isinstance(n, ast.Call) and getattr(n.func, "id", "") == "int" and n.args
        and arg(n.args[0])
    )


def names_fft_or_complex(node):
    name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
    if isinstance(name, str) and ("fft" in name.split(".") or "complex" in name):
        return True
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(n == "scipy" or n.startswith("scipy.") for n in names)


def writes_binary(node):
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "attr", None) == "tofile":
        return True
    if getattr(node.func, "id", None) != "open":
        return False
    modes = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
    modes += [k.value.value for k in node.keywords if k.arg == "mode"]
    return any("b" in m and ("w" in m or "a" in m) for m in modes)


def module_block_size(node):
    # A module-level statement is the only one at column 0.
    if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.col_offset:
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(
        isinstance(t, ast.Name) and ("BLOCK" in t.id.upper() or "CHUNK" in t.id.upper())
        for t in targets
    )


def tells_bool_apart(node):
    return (
        isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"
        and any(getattr(n, "id", "") == "bool" for n in ast.walk(node.args[-1]))
    )


class Rule(NamedTuple):
    id: str
    match: object
    scope: str | tuple = ""
    homes: tuple = ()
    breaks: str | None = None


SENSORSIM = "sensorsim.py"
BAYES = "fusion/bayes.py"

RULES = [
    # Checks on an observed pair, the ratio and the noise, each written once.
    Rule("pair-message", message("PAN dims"), homes=((SENSORSIM, "check_pair"),)),
    Rule("model-pair-message", message("spectral response is"),
         homes=((SENSORSIM, "check_model_pair"),)),
    Rule("ratio-message", message("ratio must be a positive integer"),
         homes=((SENSORSIM, "check_ratio"),)),
    Rule("noise-std-message",
         message("noise standard deviations must be finite and nonnegative"),
         homes=((SENSORSIM, "_check_noise_stds"),)),
    Rule("no-ratio-cast", int_cast(lambda a: ast.unparse(a).endswith("ratio")),
         breaks="r = int(ratio)"),
    # The integer rule: no bare-name casts, and only `is_integer` tells a
    # bool from an int.
    Rule("no-name-cast", int_cast(lambda a: isinstance(a, (ast.Name, ast.Attribute))),
         scope=("imgcore.py", SENSORSIM, "fusion/"), breaks="n = int(size)"),
    Rule("bool-test", tells_bool_apart, homes=(("imgcore.py", "is_integer"),)),
    # The sensor model, its gain and the PAN window.
    Rule("model-builder", called("SensorModel", "default_pan_response"),
         homes=((SENSORSIM, "assumed_model"),)),
    Rule("noise-stds-never-empty", attribute("size", of="hs_noise_std"),
         breaks="if model.hs_noise_std.size: pass"),
    # scene.py draws bump amplitudes from [0.3, 1), which is no gain.
    Rule("gain-literal", literal(0.3),
         homes=((SENSORSIM, "GNYQ"), ("harness/scene.py", "_endmember_spectra"))),
    Rule("registry-reads-no-gain", attribute("gnyq"), scope="harness/registry.py",
         breaks="taps = kernel_from_mtf(ctx.model.ratio, ctx.gnyq)"),
    Rule("pan-window", literal(0.48, 0.69), homes=((SENSORSIM, "PAN_WINDOW"),)),
    # Spatial operators: methods call the array forms with the default
    # kernel, and one helper applies a pair of per-axis matrices.
    Rule("fusion-uses-array-operators",
         lambda n: isinstance(n, ast.alias) and n.name.rsplit(".", 1)[-1]
         in ("upsample", "blur_downsample") or named("upsample", "blur_downsample")(n),
         scope="fusion/", breaks="from ..resample import upsample"),
    Rule("fusion-names-no-kernel", literal("bicubic"), scope="fusion/",
         breaks='bands = interpolate(stack, ratio, "bicubic")'),
    Rule("separable-product", called("separable_product"),
         homes=((SENSORSIM, "separable"), ("resample.py", "upsample_bands"),
                ("fusion/hybrid.py", "guided_filter_plane"), (BAYES, "_spatial_basis"))),
    Rule("no-scipy", imports_scipy, breaks="from scipy import ndimage"),
    # HySure: periodic differences in one pair of helpers, and no FFT or
    # complex number anywhere.
    Rule("periodic-differences", named("roll"),
         homes=((BAYES, "_differences"), (BAYES, "_differences_adjoint"))),
    Rule("no-fft-or-complex", names_fft_or_complex, breaks="spectrum = np.fft.rfft2(x)"),
    # Blocks, adoption and writing.
    Rule("fusion-block-size", module_block_size, scope="fusion/", breaks="_BAND_BLOCK = 8"),
    Rule("fusion-adopts-no-array", named("_adopt"), scope="fusion/",
         breaks="img = SpectralImage._adopt(h, w, data)"),
    Rule("binary-writer", writes_binary, homes=(("harness/envi.py", "save_raster"),)),
    # Each method's step and seed, and the CS energy knee.
    Rule("method-context", called("MethodContext"),
         homes=(("harness/bench.py", "run_method"),)),
    Rule("method-seed", named("SeedSequence"), homes=(("harness/bench.py", "_method_seed"),)),
    Rule("energy-knee", named("cumsum"), homes=(("fusion/cs.py", "energy_knee"),)),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_rule_lives_in_its_homes(rule):
    found = set().union(
        *(matches(rule.match, where, module)
          for where, module in modules().items() if where.startswith(rule.scope))
    )
    if not rule.homes:
        assert rule.breaks and matches(rule.match, "breaks", parse(rule.breaks))
    assert found == set(rule.homes)


def test_each_public_name_has_one_module():
    # A module's `__all__` lists exactly its public top-level functions,
    # classes and constants, and a package binds no public name, so each
    # name is imported from the one module that defines it.
    for where, module in modules().items():
        bound, imported, exported = set(), set(), None
        for node, _ in module:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
                    bound.add(target.id)
        public = {n for n in bound if not n.startswith("_")}
        if where.endswith("__init__.py"):
            assert exported is None, where
            assert not {n for n in bound | imported if not n.startswith("_")}, where
        elif not where.endswith("__main__.py"):
            assert exported is not None, where
            assert len(exported) == len(set(exported)), where
            assert set(exported) == public, where


def test_each_public_name_is_used():
    # A name in a module's `__all__` is loaded somewhere in `src` outside
    # its own top-level definition (an import counts), or named by the
    # acceptance criteria or the benchmark: no public name serves only its
    # unit tests.
    exported, loaded = {}, set()
    for where, module in modules().items():
        for top, nodes in module:
            if "__all__" in [getattr(t, "id", None) for t in getattr(top, "targets", ())]:
                exported.update(dict.fromkeys(ast.literal_eval(top.value), where))
                continue
            here = set()
            for node in nodes:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute):
                    here.add(node.attr)
                elif isinstance(node, ast.alias):
                    here.add(node.asname or node.name)
            loaded |= here - {getattr(top, "name", None)}
    outside = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").rglob("*.py")]
    named_outside = {word for path in outside for word in re.findall(r"\w+", path.read_text())}
    unused = {name: where for name, where in exported.items()
              if name not in loaded and name not in named_outside}
    assert unused == {}


def gain_defaults(node):
    """The defaults `node` gives a `gnyq` parameter, field or option."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args.posonlyargs + node.args.args
        pairs = zip(args[len(args) - len(node.args.defaults):], node.args.defaults)
        pairs = [*pairs, *zip(node.args.kwonlyargs, node.args.kw_defaults)]
        return [d for a, d in pairs if a.arg == "gnyq" and d]
    if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "gnyq":
        return [node.value] if node.value is not None else []
    if isinstance(node, ast.Call) and any(
        isinstance(a, ast.Constant) and a.value == "--gnyq" for a in node.args
    ):
        return [k.value for k in node.keywords if k.arg == "default"]
    return []


def test_every_gain_default_reads_gnyq():
    # The defaults of kernel_from_mtf, RunConfig and the degrade and fuse
    # options; the `gain-literal` row keeps 0.3 in the assignment of GNYQ.
    defaults = [
        (where, value)
        for where, module in modules().items()
        for _, nodes in module
        for node in nodes
        for value in gain_defaults(node)
    ]
    assert len(defaults) == 4
    for where, value in defaults:
        assert isinstance(value, ast.Name) and value.id == "GNYQ", where
