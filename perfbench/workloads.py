"""The benchmark's workloads: for each one, the CLI jobs of one pass.

Every seeded input is drawn from a fixed pool, so each job the benchmark
can ever run has a name and a stdout hash pinned in ``pins.json``.  Pools
are generated from string seeds, which Python's ``random`` hashes the
same way in every process.  Inputs are generated here rather than by
equiloc's own random helpers, so they stay the same when the program
changes.  The program sees only the argv and the job or jet files written
for it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: (n, d) of the flag pushforwards and how many of each one pass runs.
RESIDUE_SIZES = ((6, 3, 4), (7, 3, 2), (6, 4, 1))
RESIDUE_POOL = 16
FLAG_SEED_POOL = 16
JET_POOL = 128
JETS_PER_PASS = 50


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` may hold ``@`` where the path of the
    job's input file goes; ``info`` is what the output check needs."""

    name: str
    kind: str
    argv: tuple[str, ...]
    file: str | None = None
    info: dict = field(default_factory=dict, compare=False, hash=False)

    def materialize(self, directory: str) -> list[str]:
        """Write the input file (if any) and return the argv to run."""
        if self.file is None:
            return list(self.argv)
        path = f"{directory}/{self.name.replace('/', '_')}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.file)
        return [path if a == "@" else a for a in self.argv]


# -- fixed jobs ------------------------------------------------------------

def _gg(n: int) -> Job:
    return Job(f"gg/n{n}", "gg",
               ("gg", "--n", str(n), "--delta", "1/24", "--d", "100",
                "--format", "json"),
               info={"n": n, "delta": "1/24", "d": "100"})


def _thom(k: int, codim: int) -> Job:
    return Job(f"thom/k{k}c{codim}", "thom",
               ("thom", "--k", str(k), "--codim", str(codim)),
               info={"k": k, "codim": codim})


# -- residue jobs ----------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _monomial_text(exps) -> str:
    parts = [f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
             for i, e in enumerate(exps) if e]
    return "*".join(parts) or "1"


def flag_class(n: int, d: int, rng: random.Random) -> str:
    """Random homogeneous class in z1..zd of degree dim Fl_d(n), as text.

    The support is fixed per (n, d) and only the coefficients are drawn,
    because the residue engine's cost follows the support: random supports
    made single (6, 4) jobs differ by 1.7x in time."""
    degree = d * n - d * (d + 1) // 2
    support = random.Random(f"support-{n}-{d}")
    terms = []
    for exps in _compositions(degree, d):
        if support.random() < 0.35:
            c = rng.randint(1, 9) * rng.choice((-1, 1))
            terms.append(f"{c}*{_monomial_text(exps)}")
    return " + ".join(terms).replace("+ -", "- ")


def residue_job(n: int, d: int, index: int) -> Job:
    """Flag pushforward of a random class as an iterated residue with
    symbolic weights l1..ln: Vandermonde times the class over the n*d
    factors l_i - z_j, z1 least dominant."""
    rng = random.Random(f"residue-{n}-{d}-{index}")
    cls = flag_class(n, d, rng)
    vandermonde = "*".join(f"(z{a} - z{b})" for a in range(1, d + 1)
                           for b in range(a + 1, d + 1))
    numerator = f"{vandermonde}*({cls})" if vandermonde else cls
    job = {"numerator": numerator,
           "denominators": [f"l{i} - z{j}" for j in range(1, d + 1)
                            for i in range(1, n + 1)],
           "order": [f"z{j}" for j in range(1, d + 1)]}
    return Job(f"residue/n{n}d{d}/{index:02d}", "residue",
               ("residue", "--job", "@"), file=json.dumps(job),
               info={"n": n, "d": d, "class": cls,
                     "weights_seed": f"check-{n}-{d}-{index}"})


# -- flag-check -------------------------------------------------------------

def _flag_check(n: int, d: int, trials: int, seed: int) -> Job:
    return Job(f"flag-check/n{n}d{d}t{trials}/{seed:02d}", "flag-check",
               ("flag-check", "--n", str(n), "--d", str(d),
                "--trials", str(trials), "--seed", str(seed)),
               info={"trials": trials})


# -- jets --------------------------------------------------------------------

def jet_rows(k: int, index: int) -> list[list[str]]:
    """A regular k-jet of a plane curve with small rational coefficients."""
    rng = random.Random(f"jet-{k}-{index}")
    while True:
        rows = [[f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
                 for _ in range(2)] for _ in range(k)]
        if any(not x.startswith("0/") for x in rows[0]):
            return rows


def minors_job(k: int, index: int) -> Job:
    rows = jet_rows(k, index)
    return Job(f"minors/k{k}/{index:03d}", "minors",
               ("minors", "--n", "2", "--k", str(k), "--jet", "@"),
               file=json.dumps({"coefficients": rows}),
               info={"rows": rows, "phi_seed": f"phi-{k}-{index}"})


# -- workloads ---------------------------------------------------------------

def _assembly(rng):
    jobs = [_gg(3), _thom(4, 0), _thom(4, 1), _thom(4, 2)]
    rng.shuffle(jobs)
    return jobs


def _residue_jobs(rng):
    jobs = [residue_job(n, d, i) for n, d, count in RESIDUE_SIZES
            for i in rng.sample(range(RESIDUE_POOL), count)]
    rng.shuffle(jobs)
    return jobs


def _flag_checks(rng):
    return [_flag_check(5, 3, 20, rng.randrange(FLAG_SEED_POOL)),
            _flag_check(6, 3, 5, rng.randrange(FLAG_SEED_POOL))]


def _minors(rng):
    return [minors_job(4, i) for i in rng.sample(range(JET_POOL),
                                                  JETS_PER_PASS)]


def _tiny(rng):
    """Small inputs for the benchmark's own tests; never reported."""
    return [_gg(2), _thom(2, 0), residue_job(4, 2, 0),
            _flag_check(4, 2, 2, 0), minors_job(3, 0)]


SELECT = {"assembly": _assembly, "residue-jobs": _residue_jobs,
          "flag-check": _flag_checks, "minors": _minors, "tiny": _tiny}

#: The workloads the benchmark reports; ``tiny`` exists for its tests.
REPORTED = ("assembly", "residue-jobs", "flag-check", "minors")


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of the workload for this seed."""
    return SELECT[workload](random.Random(f"{workload}-{seed}"))


def pool() -> list[Job]:
    """Every job any seed can select, plus the tiny ones."""
    jobs = [_gg(3), _thom(4, 0), _thom(4, 1), _thom(4, 2)]
    jobs += [residue_job(n, d, i) for n, d, _ in RESIDUE_SIZES
             for i in range(RESIDUE_POOL)]
    jobs += [_flag_check(n, 3, t, s) for n, t in ((5, 20), (6, 5))
             for s in range(FLAG_SEED_POOL)]
    jobs += [minors_job(4, i) for i in range(JET_POOL)]
    jobs += _tiny(None)
    return jobs
