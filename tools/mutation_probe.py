"""Mutation probe for the Tier-1 suite.

Each mutant is a one-line weakening of a verdict, given as a (file, old, new)
triple: `old` must occur exactly once in `file`, and is replaced by `new` in
a temporary copy of `src/`, `tests/` and `pyproject.toml`.  The whole Tier-1
suite (`tests/`) runs once on the unmutated copy, which must pass, and once
per mutant.  A mutant is killed when at least one test fails.

    python tools/mutation_probe.py

The script lives outside `tests/`, so pytest does not collect it.  Each run
takes one Tier-1 pass, about 15-20 s on a 2-core host.
"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EST, SURF = "src/poissonlab/estimates.py", "src/poissonlab/surface.py"

MUTANTS = [
    # the interior verdict's tolerance: passes up to a constant of 100 instead of 10
    (EST, 'VerdictReport("interior_ratio", lhs, rhs, 9.0,',
     'VerdictReport("interior_ratio", lhs, rhs, 99.0,'),
    # the Harnack ratio's constant weakened tenfold, as a tolerance 9 -> 99 would
    (EST, "return umax / rhs if rhs", "return umax / (10 * rhs) if rhs"),
    # the interior lhs taken on B_1 instead of B_{1/2}
    (EST, "lhs = sol.u.sup_norm(case.R_inner)", "lhs = sol.u.sup_norm(case.R_outer)"),
    # ||f||_{L1} in place of the Zygmund norm ||f||* in the interior rhs
    (EST, "+ field_zygmund_norm(sol.f, case.R_outer)", "+ sol.f.l1_norm(case.R_outer)"),
    (EST, "5.0 * field_zygmund_norm(dfn, 1.0)", "50.0 * field_zygmund_norm(dfn, 1.0)"),
    (EST, "Cm = C0 * 1.2", "Cm = C0 * 12.0"),
    # the John-Nirenberg exponent halved
    (EST, "np.abs(samples.values) / (C0 * gn)", "np.abs(samples.values) / (2 * C0 * gn)"),
    (SURF, "radii**2 / (4 * A)", "radii**2 / (40 * A)"),
    (EST, "return max(est.A_iso, est.A_curv)", "return 10 * max(est.A_iso, est.A_curv)"),
    ("src/poissonlab/pde.py", "gw = 0.0 if g is None else g.values[:-1] * w",
     "gw = 0.0 if g is None else g.values[:-1] * w / 2"),
    # the Zygmund antiderivative t ln(|X|/t) + t with + t/2
    ("src/poissonlab/rearrange.py", "t * (np.log(domain_measure / t) + 1.0)",
     "t * (np.log(domain_measure / t) + 0.5)"),
    # Harnack's min u taken on B_1 instead of B_{1/2}
    (EST, "max(umin, 0.0)", "max(umin_all, 0.0)"),
    # the maximum-principle comparison's factor 2 -> 20
    (EST, "2.0 * sol_v.u.sup_norm(1.0)", "20.0 * sol_v.u.sup_norm(1.0)"),
]


def run_tier1(tree: Path) -> int:
    """The number of failed Tier-1 tests in `tree` (0 when all pass)."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests"], cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode == 0:
        return 0
    counts = re.findall(r"(\d+) (?:failed|error)", proc.stdout.splitlines()[-1])
    if not counts:  # an interrupted or unstartable run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return sum(map(int, counts))


def main() -> int:
    sources = {}
    for file, old, _ in MUTANTS:
        text = sources.setdefault(file, (ROOT / file).read_text())
        if text.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if run_tier1(tree):
            raise SystemExit("Tier-1 fails on the unmutated copy")
        killed = 0
        print("| # | file | mutant | failed tests | verdict |\n|---|---|---|---|---|")
        for i, (file, old, new) in enumerate(MUTANTS, 1):
            (tree / file).write_text(sources[file].replace(old, new))
            failed = run_tier1(tree)
            (tree / file).write_text(sources[file])
            killed += failed > 0
            print(f"| {i} | {Path(file).name} | `{old}` -> `{new}` | {failed} | "
                  f"{'killed' if failed else 'SURVIVED'} |", flush=True)
    print(f"\n{killed} of {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
