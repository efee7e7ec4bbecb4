"""Check that the tier-1 tests kill a fixed list of hand-made mutants.

Each mutant is one textual edit (file, old, new) to the package source;
``old`` must occur exactly once in its file.  For each mutant the script
copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` to a
temporary directory, applies the edit there, runs the tier-1 tests and
records whether they fail (the mutant is killed, and the first failing test
is printed) or pass (it survived).  The unmutated copy runs first as a
control and must pass.  The repository itself is never written.

Run from anywhere:  python tools/mutants.py
Exits 0 when every mutant is killed, 1 otherwise.  The tests stop at the
first failure, so a full run takes about two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/traceinv/"

#: A run that takes longer than this hangs, which is a failure too.
TIMEOUT_S = 600

# (name, file, old, new)
MUTANTS = [
    # the verdict path: each of these turns a separated pair into a false
    # INDISTINGUISHABLE
    (
        "real_only",
        "equivalence.py",
        "if abs(va - vb) > tol",
        "if abs((va - vb).real) > tol",
    ),
    (
        "last_degree",
        "equivalence.py",
        "for ell in range(1, max_degree + 1)",
        "for ell in range(1, max_degree + (max_degree <= 3))",
    ),
    (
        "tol_loose",
        "equivalence.py",
        "> tol * (1 + max(abs(va), abs(vb)))",
        "> 1000 * tol * (1 + max(abs(va), abs(vb)))",
    ),
    (
        "normal_a_only",
        "equivalence.py",
        "normal = all(is_normal(M) for M in a.matrices) and all(is_normal(M) for M in b.matrices)",
        "normal = all(is_normal(M) for M in a.matrices)",
    ),
    (
        "girth_cap_small",
        "equivalence.py",
        "d * (d + 1) // 2 if d <= 3",
        "d * (d + 1) // 2 - 1 if d <= 3",
    ),
    (
        "normal_always",
        "core.py",
        "return bool(np.max(np.abs(M @ H - H @ M)) <= tol)",
        "return True",
    ),
    (
        "label_off_by_one",
        "evaluate.py",
        "if max(mon.labels) >= m:",
        "if max(mon.labels) > m:",
    ),
    (
        "slocc_signs_plus",
        "slocc.py",
        "s = np.concatenate([s, -s])",
        "s = np.concatenate([s, s])",
    ),
    (
        "stabilizer_whole_group",
        "perms.py",
        "            if c == r:\n                stabilizer.append((tau, tau_inv))",
        "            stabilizer.append((tau, tau_inv))",
    ),
    (
        "contract_not_finite",
        "evaluate.py",
        "        if not all(map(isfinite, values)):\n",
        "        if False:\n",
    ),
    # the batched walk: every side must reach the program, each on its own
    # batch row
    (
        "batch_one_side",
        "equivalence.py",
        "np.stack([t.matrices[k] for t in tuples])",
        "np.stack([tuples[0].matrices[k] for t in tuples])",
    ),
    (
        "batch_axis_dropped",
        "evaluate.py",
        "(0, *[lay.index(x) + 1 for x in want])",
        "tuple(map(lay.index, want))",
    ),
    (
        "count_least_excluded",
        "errors.py",
        "if value < least:",
        "if value <= least:",
    ),
    # the per-walk cache and the step programs: a program served for the
    # wrong key, every box read from one register, a step merged with
    # another that reads its operands otherwise, a product read in a layout
    # it was not stored in, a product read as if it were stored in its
    # index layout, or an intermediate kept alive past its last read
    (
        "walk_key_drops_m",
        "equivalence.py",
        "def _program(m, ell, sizes):\n",
        "def _program(m, ell, sizes, _first={}):\n    m = _first.setdefault((ell, sizes), m)\n",
    ),
    (
        "box_key_shared",
        "evaluate.py",
        "local, code = list(mon.labels), []",
        "local, code = [0] * len(mon.labels), []",
    ),
    (
        "program_key_drops_args",
        "evaluate.py",
        "registers.setdefault((kernel, read_a, a, read_b, b), new)",
        "registers.setdefault((kernel, a, b), new)",
    ),
    (
        "product_layout_ignored",
        "evaluate.py",
        "], a_keep + b_keep, (rows, cols)",
        "], out, (rows, cols)",
    ),
    (
        "reader_skips_stored_reshape",
        "evaluate.py",
        "_view(None if have == dims else (-1, *dims), axes,",
        "_view(None, axes,",
    ),
    (
        "program_never_frees",
        "evaluate.py",
        "dead = set(inputs) - read",
        "dead = set()",
    ),
    (
        "program_admits_every_degree",
        "equivalence.py",
        "    if canonical_count(max(1, sum(c != 1 for c in caps)), m, ell) > _CACHED_CLASSES:\n"
        "        return None\n",
        "",
    ),
    (
        "gate_counts_every_row",
        "equivalence.py",
        "canonical_count(max(1, sum(c != 1 for c in caps)), m, ell)",
        "canonical_count(len(sizes), m, ell)",
    ),
    # the state files: a file of the wrong kind let through, each [re, im]
    # pair written the wrong way round, or a non-finite entry decoded
    (
        "load_kind_unchecked",
        "statefile.py",
        "if kind is not None and got != kind:",
        "if False:",
    ),
    (
        "pairs_im_re",
        "statefile.py",
        "a.view(float).reshape(*a.shape, 2).tolist()",
        "a.view(float).reshape(*a.shape, 2)[..., ::-1].tolist()",
    ),
    (
        "decode_finite_unchecked",
        "statefile.py",
        "if not finite:",
        "if False:",
    ),
    # the size envelopes: each lets a request past its limit through, or
    # maps it to the wrong exit code
    (
        "enum_degree_loose",
        "perms.py",
        'check_size("max_degree", max_degree, MAX_BOXES)',
        'check_size("max_degree", max_degree, MAX_BOXES + 1)',
    ),
    (
        "budget_clip_low",
        "perms.py",
        "ENUM_BUDGET.bit_length()",
        "ENUM_BUDGET.bit_length() - 1",
    ),
    (
        "budget_frees_capped_rows",
        "perms.py",
        "sum(c != 1 for c in girth_cap)",
        "sum(c is None for c in girth_cap)",
    ),
    (
        "chain_levels_single_rows",
        "perms.py",
        "while k < len(rows) and len(rows[k]) == 1:",
        "while False:",
    ),
    (
        "walk_skips_dim_check",
        "equivalence.py",
        '    check_size("contraction engine total dimension", dims.total, CONTRACT_MAX_DIM)\n',
        "",
    ),
    (
        "bound_limit_exit2",
        "cli.py",
        "raise UnsupportedSizeError(",
        "raise ValueError(",
    ),
    # the package surface: a public name dropped from the table, or numpy
    # loaded by a bare import
    (
        "export_drops_name",
        "__init__.py",
        '        "kron",\n',
        "",
    ),
    (
        "init_loads_numpy",
        "__init__.py",
        "from importlib import import_module\n",
        "from importlib import import_module\n\nimport numpy  # noqa: F401\n",
    ),
    # a scaled invertible factor rejected as singular
    (
        "singular_by_det",
        "core.py",
        "if not 1 / np.linalg.cond(g) > det_tol:",
        "if abs(np.linalg.det(g)) <= det_tol:",
    ),
]


def _check_unique():
    """Each mutant's text occurs once, and the mutated file still compiles,
    so that no mutant is killed by a syntax error alone."""
    for name, file, old, new in MUTANTS:
        text = (ROOT / PKG / file).read_text()
        found = text.count(old)
        if found != 1:
            sys.exit(f"mutant {name}: its text occurs {found} times in {PKG}{file}, not once")
        try:
            compile(text.replace(old, new), file, "exec")
        except SyntaxError as exc:
            sys.exit(f"mutant {name}: the mutated {PKG}{file} does not compile: {exc}")


def _run_tests(mutant=None):
    """Run tier-1 on a fresh copy with ``mutant`` applied: (passed, the
    first failure pytest reports, or "timeout")."""
    with tempfile.TemporaryDirectory(prefix="traceinv-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            _, file, old, new = mutant
            path = tmp / PKG / file
            path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, "timeout"
        failures = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return done.returncode == 0, (failures or [""])[0]


def main():
    _check_unique()
    start = time.perf_counter()
    passed, failure = _run_tests()
    if not passed:
        print(f"control: the unmutated tests fail, so no mutant can be judged: {failure}")
        return 1
    print(f"control: passed in {time.perf_counter() - start:.1f} s")
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        survived, failure = _run_tests(mutant)
        verdict = "SURVIVED" if survived else "killed"
        print(f"{mutant[0]:<28} {verdict:<8} {time.perf_counter() - start:6.1f} s  {failure}",
              flush=True)
        if survived:
            survivors.append(mutant[0])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
