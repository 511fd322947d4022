"""The package names that the benchmark harness under bench/ reads still
resolve.  bench/test_bench.py runs the harness but is not part of this
suite, so a change in src/ that moves such a name fails here first."""
import ast
from pathlib import Path

from poissonlab import cli, estimates, pde, rearrange, report, surface

BENCH = Path(__file__).parents[1] / "bench"
MODULES = {"cli": cli, "estimates": estimates, "pde": pde, "rearrange": rearrange,
           "report": report, "surface": surface}


def test_bench_names_resolve(monkeypatch):
    # the traced layers, looked up by name when bench/layers.py builds them
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    targets = layers.targets()
    assert len(targets) == 28 and targets["pde.bicgstab"] is pde.bicgstab
    assert all(map(callable, targets.values()))
    # every `<module>.<name>` that a bench script spells
    spelled = {(node.value.id, node.attr) for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in MODULES}
    assert len(spelled) >= 9
    assert sorted(f"{m}.{a}" for m, a in spelled if not hasattr(MODULES[m], a)) == []
