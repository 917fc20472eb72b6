"""Apply hand-written mutations to slabgreen one at a time and report which the tests kill.

    python3 tools/mutants.py

Each mutation in MUTANTS is a (file under src/slabgreen, old text, new text,
reason) entry; the old text must occur exactly once in its file. For each
one the script copies the checkout, without .git and caches, to a temporary
directory, applies the mutation there and runs the fast physics files (FAST)
with `python -m pytest -x` from that copy, so that the tests and any child
process they start import the mutated package. It prints "killed" with the
first failing test, or "survived". A survivor is then run against the whole
suite, and the script exits 1 if any mutation survives that too; otherwise
it exits 0. A mutation whose old text is missing stops the script with exit
2. It uses only the standard library; the 14 mutations take about 80 s on
2 vCPUs.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAST = ["tests/test_reference.py", "tests/test_identity.py", "tests/test_acceptance.py", "tests/test_slab_green.py",
        "tests/test_emission.py", "tests/test_dielectric.py"]

MUTANTS = [
    ("slab_green.py", "return -(rho_a * np.conj(rho_b) + lam_a * np.conj(lam_b)) / (4.0 * k)",
     "return (rho_a * np.conj(rho_b) + lam_a * np.conj(lam_b)) / (4.0 * k)", "F sign flipped"),
    ("slab_green.py", "return -(rho_a * np.conj(rho_b) + lam_a * np.conj(lam_b)) / (4.0 * k)",
     "return -(rho_a * np.conj(rho_b)) / (4.0 * k)", "F without its lambda term"),
    ("slab_green.py", "(u, np.conj(u) + co.D * u, co.A * u)", "(u, u + co.D * u, co.A * u)",
     "rho = u + D u instead of conj(u) + D u"),
    ("slab_green.py", "1.0 - abs_a_sq - abs_d_sq\n", "1.0 - abs_a_sq - abs_d_sq + 1e-13\n", "P + 1e-13"),
    ("slab_green.py", "1.0 - abs_a_sq - abs_d_sq\n", "(1.0 - abs_a_sq - abs_d_sq) * (1 + 1e-9)\n", "P (1 + 1e-9)"),
    ("identity.py", "0.129484966168869693270611432679082,", "0.129484967168869693270611432679082,",
     "one Gauss weight + 1e-9"),
    ("identity.py", "return self.lhs - self.im_g\n", "return self.lhs - self.im_g - self.f\n",
     "uncorrected residual includes F"),
    ("dielectric.py", "return plain(np.where((n.imag < 0.0) | ((n.imag == 0.0) & (n.real < 0.0)), -n, n))",
     "return plain(n)", "index branch not flipped"),
    ("identity.py", "_MAX_PANELS = 4096", "_MAX_PANELS = 4095", "_MAX_PANELS 4095"),
    ("dielectric.py", "- 1j * damping * w", "+ 1j * damping * w", "Drude damping sign"),
    ("slab_green.py", "np.exp(1j * k * (n - 1) * l)", "np.exp(1j * k * (n + 1) * l)", "B exponent (n - 1) -> (n + 1)"),
    ("slab_green.py", "np.exp(ikn * (l - x) + shift), -k * n)", "np.exp(ikn * (l - x) + shift) * (1 + 1e-9), -k * n)",
     "interior wave in _waves (1 + 1e-9)"),
    ("writer.py", 'handle.write("%.17g," * len(cells)', 'handle.write("%.16g," * len(cells)',
     "failed-row cells at %.16g"),
    ("slab_green.py", "np.exp(1j * k * (3 * n - 1) * l)", "np.exp(1j * k * (3 * n + 1) * l)",
     "C exponent (3n - 1) -> (3n + 1)"),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", ".bench_build")


def first_failure(argv, mutant):
    """The first failing test of `argv` (pytest arguments) on a mutated copy of the checkout, or None."""
    name, old, new, reason = mutant
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = tree / "src" / "slabgreen" / name
        text = path.read_text()
        if text.count(old) != 1:
            print(f"{reason}: the old text occurs {text.count(old)} times in {name}, not once", file=sys.stderr)
            sys.exit(2)
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *argv],
                                cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {result.returncode}"


def main():
    survivors = []
    for mutant in MUTANTS:
        failed = first_failure(FAST, mutant)
        reason = mutant[3]
        if failed is None:
            failed = first_failure(["tests"], mutant)
            reason += " (survived the fast files)"
        print(f"{'survived' if failed is None else 'killed':9}{reason}" + (f": {failed}" if failed else ""), flush=True)
        if failed is None:
            survivors.append(mutant[3])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed" + (f"; survived: {', '.join(survivors)}"
                                                                      if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
