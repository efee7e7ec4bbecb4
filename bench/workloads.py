"""The benchmark's three workloads: inputs made from a seed, jobs, and checks.

Every job is one ``traceinv`` command line, run in-process through
``traceinv.cli.main``.  ``build`` writes the inputs a workload needs and
returns its job list; ``check`` tests one job's exit code and output against
facts known independently of the code path that produced them.  A check
returns ``None`` when the job is right and a one-line reason otherwise.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from math import factorial
from time import perf_counter

import numpy as np


@dataclass
class Job:
    id: str
    argv: list
    expect_rc: int
    info: dict = field(default_factory=dict)


def parse_value(text):
    """Invert ``traceinv.cli.format_value``: "x" or "x+yi"."""
    text = text.strip()
    return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))


def _parse_monomial(tv, labels, perms):
    labels = tuple(int(x) - 1 for x in labels.split(","))
    return tv.TraceMonomial(labels=labels, perms=tv.parse_perm_tuple(perms, len(labels)))


class LuCompare:
    """``traceinv compare`` on pairs of operator tuples with a known verdict.

    Each shape (dims, m, max degree) appears twice: once as a pair related by
    a local unitary (the whole invariant walk, verdict INDISTINGUISHABLE,
    exit 0) and once as a pair related by a global Haar unitary (same
    spectrum, separated early, exit 1).
    """

    name = "lu-compare"
    seeded = True
    SHAPES = (((2, 2), 1, 5), ((2, 3), 1, 5), ((3, 3), 1, 5), ((2, 2, 2), 1, 4), ((2, 2), 2, 4))
    SMOKE_SHAPES = (((2, 2), 1, 3),)
    warmup = "sep-2x2-m2-d4"

    def build(self, tv, seed, workdir, smoke=False):
        rng = np.random.default_rng(seed)
        jobs = []
        for sizes, m, degree in self.SMOKE_SHAPES if smoke else self.SHAPES:
            dims = tv.Dims(sizes)
            tag = f"{'x'.join(map(str, sizes))}-m{m}-d{degree}"
            for kind in ("conj", "sep"):
                a = tv.OperatorTuple(dims, tuple(tv.random_density(dims, seed=rng) for _ in range(m)))
                if kind == "conj":
                    u = tv.kron(tv.random_local_unitary(dims, seed=rng))
                else:
                    u = tv.random_local_unitary((dims.total,), seed=rng)[0]
                b = tv.OperatorTuple(dims, tuple(u @ M @ u.conj().T for M in a.matrices))
                job_id = f"{kind}-{tag}"
                pa = os.path.join(workdir, f"{job_id}-a.json")
                pb = os.path.join(workdir, f"{job_id}-b.json")
                tv.save_operator_tuple(pa, a)
                tv.save_operator_tuple(pb, b)
                jobs.append(Job(
                    id=job_id,
                    argv=["compare", "--a", pa, "--b", pb, "--max-degree", str(degree)],
                    expect_rc=0 if kind == "conj" else 1,
                    info={"a": a, "b": b, "degree": degree},
                ))
        return jobs

    _SEPARATED = re.compile(
        r'^SEPARATED degree=(\d+) monomial="([^ "]+) ([^"]+)" a=(\S+) b=(\S+)\n$'
    )

    def check(self, tv, job, rc, out):
        if job.expect_rc == 0:
            want = f"INDISTINGUISHABLE_UP_TO {job.info['degree']}\n"
            return None if out == want else f"expected {want!r}, got {out!r}"
        match = self._SEPARATED.match(out)
        if not match:
            return f"unparseable SEPARATED line {out!r}"
        degree, labels, perms, va, vb = match.groups()
        mon = _parse_monomial(tv, labels, perms)
        if mon.degree != int(degree) or mon.degree > job.info["degree"]:
            return f"witness degree {degree} does not fit {mon}"
        ra = tv.eval_reference(mon, job.info["a"])
        rb = tv.eval_reference(mon, job.info["b"])
        if abs(ra - rb) <= tv.DEFAULT_TOL * (1 + max(abs(ra), abs(rb))):
            return f"witness {mon} does not separate under the reference engine"
        for printed, ref in ((va, ra), (vb, rb)):
            if abs(parse_value(printed) - ref) > 1e-9 * (1 + abs(ref)):
                return f"printed value {printed} differs from reference {ref}"
        return None

    def probe(self, tv, jobs):
        """Time eval_reference against eval_contract, untraced, on every
        monomial of the conjugated pairs that fits the reference envelope."""
        ref_s = con_s = calls = 0
        for job in jobs:
            if job.expect_rc != 0:
                continue
            a, b = job.info["a"], job.info["b"]
            dims = a.dims
            mons = tv.enumerate_monomials(
                dims.n, a.m, job.info["degree"],
                girth_cap=tv.generator_girth_cap(dims), connected_only=True,
            )
            for mon in mons:
                if dims.total**mon.degree > tv.evaluate.REFERENCE_ENVELOPE:
                    continue
                for ops in (a, b):
                    t0 = perf_counter()
                    tv.eval_reference(mon, ops)
                    t1 = perf_counter()
                    tv.eval_contract(mon, ops)
                    con_s += perf_counter() - t1
                    ref_s += t1 - t0
                    calls += 1
        if not calls:
            return None
        return {"reference_us": ref_s * 1e6 / calls, "contract_us": con_s * 1e6 / calls}


def partitions(k, largest=None):
    """Integer partitions of k as non-increasing tuples."""
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def centralizer_order(shape):
    """z_lambda = prod_k k^{a_k} a_k! for a_k parts of size k."""
    z = 1
    for k in set(shape):
        a = shape.count(k)
        z *= k**a * factorial(a)
    return z


def canonical_count(n, m, max_degree):
    """Relabeling classes of (labels, n perms) up to max_degree, by Burnside:
    sum over ell and cycle types lambda of m^{len lambda} z_lambda^{n-1}."""
    return sum(
        m ** len(shape) * centralizer_order(shape) ** (n - 1)
        for ell in range(1, max_degree + 1)
        for shape in partitions(ell)
    )


def raw_count(n, m, max_degree):
    return sum(factorial(ell) ** n * m**ell for ell in range(1, max_degree + 1))


class EnumerateDeep:
    """``traceinv enumerate`` jobs: pure enumeration, no evaluation, no files.

    The job list does not depend on the seed.
    """

    name = "enumerate-deep"
    seeded = False
    JOBS = (
        ("n2-m1-d6", 2, 1, 6, ()),
        ("n2-m2-d5-connected-cap33", 2, 2, 5, ("--connected", "--girth-cap", "3,3")),
        ("n3-m2-d4", 3, 2, 4, ()),
        ("n4-m1-d4-connected", 4, 1, 4, ("--connected",)),
        ("n2-m2-d4-raw", 2, 2, 4, ("--raw",)),
        ("n3-m1-d4-raw", 3, 1, 4, ("--raw",)),
    )
    SMOKE_JOBS = (("n2-m1-d3", 2, 1, 3, ()),)
    warmup = "n2-m2-d4-raw"

    def build(self, tv, seed, workdir, smoke=False):
        jobs = []
        for job_id, n, m, degree, flags in self.SMOKE_JOBS if smoke else self.JOBS:
            argv = ["enumerate", "-n", str(n), "-m", str(m), "--max-degree", str(degree), *flags]
            jobs.append(Job(id=job_id, argv=argv, expect_rc=0,
                            info={"n": n, "m": m, "degree": degree, "flags": flags}))
        return jobs

    def check(self, tv, job, rc, out):
        flags = job.info["flags"]
        n, m, degree = job.info["n"], job.info["m"], job.info["degree"]
        if flags == ("--raw",):
            want = raw_count(n, m, degree)
        elif not flags:
            want = canonical_count(n, m, degree)
        else:
            return None
        got = out.count("\n")
        return None if got == want else f"{got} lines, expected {want}"


def ghz(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 2**-0.5
    return v


def w_state(n):
    v = np.zeros(2**n, dtype=complex)
    v[[2**k for k in range(n)]] = n**-0.5
    return v


class Slocc6q:
    """``traceinv slocc-eval`` on 6-qubit pure states (D = 64).

    The monomials (degrees 2-4, one random permutation per row, labels, and
    one or two states per job) are drawn once from ``DESIGN_SEED`` and are
    the same on every run, without any filtering by contraction cost.  The
    run seed draws the random states and which state files each job reads.
    A run seed cannot be allowed to redraw the monomials: about 2.4% of random
    degree-4 draws fall back to one naive 24-index contraction costing
    hundreds of times a typical job, so the number of such draws, and with
    it the pass time, would change from seed to seed by more than any
    regression bound.
    """

    name = "slocc-6q"
    seeded = True
    N_QUBITS = 6
    DEGREES = (2, 3, 4)
    PER_DEGREE = 90
    DESIGN_SEED = 2015
    N_RANDOM_STATES = 4
    SL_MAX_COND = 2.0
    warmup = "j000"

    def build(self, tv, seed, workdir, smoke=False):
        n = self.N_QUBITS
        rng = np.random.default_rng(seed)
        states = {"ghz": ghz(n), "w": w_state(n)}
        for k in range(self.N_RANDOM_STATES):
            v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            states[f"r{k}"] = v / np.linalg.norm(v)
        paths = {}
        for key, v in states.items():
            paths[key] = os.path.join(workdir, f"state-{key}.json")
            tv.save_pure_state(paths[key], v)

        design = np.random.default_rng(self.DESIGN_SEED)
        shapes = [d for d in self.DEGREES for _ in range(self.PER_DEGREE)]
        design.shuffle(shapes)
        if smoke:
            shapes = [2]
        names = sorted(states)
        jobs = []
        for j, degree in enumerate(shapes):
            n_states = int(design.integers(1, 3))
            labels = tuple(int(x) for x in design.integers(0, n_states, degree))
            perms = tuple(tuple(int(x) for x in design.permutation(degree)) for _ in range(n))
            mon = tv.TraceMonomial(labels=labels, perms=perms)
            chosen = [names[int(k)] for k in rng.choice(len(names), n_states, replace=False)]
            labels_text, perm_text = str(mon).split(" ", 1)
            argv = ["slocc-eval"]
            for key in chosen:
                argv += ["--state", paths[key]]
            argv += ["--labels", labels_text, "--perm", perm_text]
            jobs.append(Job(id=f"j{j:03d}", argv=argv, expect_rc=0,
                            info={"mon": mon, "states": [states[k] for k in chosen],
                                  "seed": seed, "index": j}))
        return jobs

    def check(self, tv, job, rc, out):
        """SL(2)^6 invariance of the printed value, and at degree 2 (D^ell =
        4096, inside the reference envelope) agreement with eval_reference."""
        value = parse_value(out)
        mon, states = job.info["mon"], job.info["states"]
        rng = np.random.default_rng([job.info["seed"], job.info["index"]])
        g = tv.kron(tv.random_sl2_tuple(self.N_QUBITS, seed=rng, max_cond=self.SL_MAX_COND))
        moved = [g @ v for v in states]
        # |value| and its rounding error scale with the product of the boxes'
        # Frobenius norms, |v|^2 each; observed errors stay below 1e-15 of it
        scale = np.prod([np.vdot(moved[k], moved[k]).real for k in mon.labels])
        got = tv.eval_slocc(mon, moved)
        if abs(got - value) > 1e-12 * (1 + scale):
            return f"value {value} moves to {got} under an SL(2)^6 element"
        if mon.degree == 2:
            dims = tv.Dims((2,) * self.N_QUBITS)
            ref = tv.eval_reference(mon, tv.OperatorTuple(dims, tuple(tv.embed_state(v) for v in states)))
            if abs(ref - value) > 1e-9 * (1 + abs(ref)):
                return f"value {value} differs from reference {ref}"
        return None


WORKLOADS = {w.name: w for w in (LuCompare(), EnumerateDeep(), Slocc6q())}
