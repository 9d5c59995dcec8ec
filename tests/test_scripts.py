"""The experiment scripts, the README's example and the library's surface."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,output", [
    ("run_newton_limit_sweep.py", "limit_residuals.csv"),
    ("run_sr_splitting.py", "sr_splitting.csv"),
    ("trace_schwarzschild_cone.py", "cone.csv"),
])
def test_script_runs(tmp_path, name, output):
    proc = run_script(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).exists()
    if name == "trace_schwarzschild_cone.py":
        # first conjugate value of the near-critical b = 2.73 ray
        found = re.search(r"conjugate values along the b=2.73 ray: ([0-9.]+)", proc.stdout)
        assert found, proc.stdout
        assert abs(float(found.group(1)) - 21.746188) <= 1e-6


def _bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(metrics, correct=True, attempted=10, failed=0):
    """One bench_compare run record around a {name: value} dict of metrics."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_bench_compare_summary_on_fixed_numbers():
    end_to_end = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2},
                  {"name": "p50", "unit": "s", "better": "lower", "bound": 0.25}]
    base_rate = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    head_rate = [120.0, 125.0, 118.0, 121.0, 119.0, 124.0, 122.0, 95.0, 123.0, 120.0]
    base_p50 = [1.0, 1.1, 0.9, 1.0, 1.0, 1.2, 1.0, 1.0, 0.8, 1.0]
    head_p50 = [1.1, 1.3, 1.2, 1.0, 1.3, 1.4, 1.2, 1.2, 1.3, 1.2]
    pairs = [(_run({"rate": br, "p50": bp}), _run({"rate": hr, "p50": hp}))
             for br, hr, bp, hp in zip(base_rate, head_rate, base_p50, head_p50)]
    summarize = _bench_compare().summarize
    out = summarize(pairs, end_to_end)

    rate = out["rate"]
    assert rate["base"] == {"median": 100.0, "q1": 99.25, "q3": 100.75}
    assert rate["head"] == {"median": 120.5, "q1": 119.25, "q3": 122.75}
    assert rate["change"] == pytest.approx(0.205)
    assert rate["wins"] == 9 and rate["pairs"] == 10  # pair 7 is lost
    assert rate["gain"] and rate["within_bound"] and not rate["unresolved"]

    p50 = out["p50"]  # lower is better: the head is 20 % slower, inside 25 %
    assert p50["base"]["median"] == 1.0 and p50["head"]["median"] == 1.2
    assert p50["wins"] == 0  # pair 3 is a tie, which counts for neither side
    assert not p50["gain"] and p50["within_bound"]

    # the same numbers claim no gain when one run failed its checks, or when
    # the head failed a larger share of its operations than the base; an
    # equal share does not stand in the way
    for side in (0, 1):
        bad = [list(p) for p in pairs]
        bad[4][side] = _run(bad[4][side]["metrics"], correct=False)
        assert not summarize(bad, end_to_end)["rate"]["gain"]
    failing = [(b, _run(h["metrics"], failed=1 if i == 2 else 0))
               for i, (b, h) in enumerate(pairs)]
    assert not summarize(failing, end_to_end)["rate"]["gain"]
    both = [(_run(b["metrics"], failed=1 if i == 5 else 0), h) for i, (b, h) in enumerate(failing)]
    assert summarize(both, end_to_end)["rate"]["gain"]

    # one more lost pair and the gain cannot be claimed; beyond the bound is a regression
    pairs[0][1]["metrics"]["rate"] = 99.0
    assert not summarize(pairs, end_to_end)["rate"]["gain"]
    worse = [(_run({"rate": 100.0, "p50": 1.0}), _run({"rate": 79.0, "p50": 1.3}))] * 4
    out = summarize(worse, end_to_end)
    assert not out["rate"]["within_bound"] and not out["p50"]["within_bound"]

    # fewer than ten pairs claim no gain, even when the head wins every one
    few = [(_run({"rate": 100.0, "p50": 1.0}), _run({"rate": 130.0, "p50": 0.7}))] * 9
    out = summarize(few, end_to_end)
    assert out["rate"]["wins"] == 9 and not out["rate"]["gain"] and not out["p50"]["gain"]
    assert summarize(few + few[:1], end_to_end)["rate"]["gain"]

    # a spread wider than the bound leaves a metric unresolved (base IQR 35 %
    # of its median, bound 20 %), unless every head run beats every base run
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    noisy = [(_run({"rate": r, "p50": 1.0}), _run({"rate": r + 1.0, "p50": 1.0})) for r in wide]
    out = summarize(noisy, end_to_end)
    assert out["rate"]["unresolved"] and out["rate"]["within_bound"]
    assert not out["p50"]["unresolved"]
    apart = [(_run({"rate": r, "p50": 1.0}), _run({"rate": r + 81.0, "p50": 1.0})) for r in wide]
    assert not summarize(apart, end_to_end)["rate"]["unresolved"]

    # the traced runs' accuracy figures, side by side: only the named ones,
    # None where a side did not report one, equal only when both hold the
    # same value
    module = _bench_compare()
    base = {"splitting.roundtrip_err_max": 5.97e-10, "splitting.residual_max": 3.70e-10,
            "geodesics.batch_map_s": 0.073}
    head = {"splitting.roundtrip_err_max": 5.97e-10, "splitting.residual_max": 3.71e-10,
            "geodesics.batch_map_s": 0.049, "newtonian.tau_dot_slope": 0.0}
    names = ["splitting.roundtrip_err_max", "splitting.residual_max", "newtonian.tau_dot_slope"]
    assert module.accuracy(base, head, names) == {
        "splitting.roundtrip_err_max": {"base": 5.97e-10, "head": 5.97e-10, "equal": True},
        "splitting.residual_max": {"base": 3.70e-10, "head": 3.71e-10, "equal": False},
        "newtonian.tau_dot_slope": {"base": None, "head": 0.0, "equal": False},
    }
    # the names are the keys of the benchmark's ACCURACY, read without importing it
    assert module._accuracy_names(ROOT) == [
        "geodesics.ref_dev_max", "geodesics.lightlike_residual_max",
        "splitting.roundtrip_err_max", "splitting.residual_max",
        "newtonian.tau_dot_slope", "newtonian.newton_law_residual"]


def test_readme_library_example_round_trips():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert np.allclose(names["seen"].coords, [5, 3, 4, 0], rtol=0, atol=1e-10)
    first = names["back"].preimages[0]
    assert first.tau == pytest.approx(10.0, abs=1e-9)
    assert np.allclose(first.x, [3, 4, 0], rtol=0, atol=1e-9)


# Public definitions kept without a caller, with the reason: newton-limit's
# report is to call limit_case_pseudo_forces once it judges accelerated and
# curved observers (ROADMAP item 1)
_UNCALLED = ["newtonian.limit_case_pseudo_forces"]


def _used_names(tree, skip=None):
    """Every name, attribute and string constant in tree, outside the node skip.

    A string counts because bench/tracing.py patches functions by name.
    """
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _defined_names(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets
            for t in (target.elts if isinstance(target, ast.Tuple) else [target])
            if isinstance(t, ast.Name)]


def test_every_public_definition_has_a_caller():
    # a public definition of src/lightcone stays only while src, scripts,
    # bench or the acceptance suite refers to it outside its own body; the
    # re-exports of __init__.py do not count
    modules = {p: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "lightcone").glob("*.py")) if p.name != "__init__.py"}
    users = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    outside = set().union(*(_used_names(ast.parse(p.read_text())) for p in users))
    uncalled = [f"{path.stem}.{name}"
                for path, tree in modules.items() for node in tree.body
                for name in _defined_names(node)
                if not name.startswith("_") and name not in outside
                and not any(name in _used_names(other, node if other is tree else None)
                            for other in modules.values())]
    assert uncalled == _UNCALLED
