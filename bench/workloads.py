"""Seeded inputs, job lists and answer checks for the four workloads.

A job is a callable taking the program namespace ``cg`` (the imported
``coregroups`` modules) and returning an ``Outcome``: the invariants it
computed, in a canonical JSON-able form that feeds the output digest, and
the checks that failed.  Jobs reach the program only through attributes
of ``cg`` looked up at call time, so the traced run sees every call.

The checks are independent oracles: component counts come from the
benchmark's own generators, group orders and hom counts into s4 and a5
are known constants, and counts into cyclic targets follow from the
abelianization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Per-job CPU-time budget, seconds.  A job over budget counts as failed.
BUDGETS = {"verify_corpus": 60.0, "big_diagrams": 1.0, "move_storm": 10.0, "engines": 2.5}

# Each run measures this many job lists (variants), built from sub-seeds of
# the seed, and reports medians over them: one blow-up on one input (an SNF
# over budget, a costly move chain) then moves no median.
VARIANTS = {"verify_corpus": 5, "big_diagrams": 10, "move_storm": 7, "engines": 4}

# The moves suite draws this many random moves per corpus diagram.
VERIFY_MOVES_PER_DIAGRAM = 6

# big_diagrams: size classes (crossings) and jobs per class for each family.
BIG_SIZES = (25, 50, 100)
BIG_REPS = {"braid4": 1, "torus2m": 1, "virtual": 1}

# move_storm: random legal moves chained from each corpus diagram.
STORM_MOVES = 40

# engines: hom-count diagrams, their presentation forms and targets.
HOM_DIAGRAMS = ("trefoil", "figure_eight", "torus2_5", "torus2_7")
HOM_FORMS = ("ac", "wc", "tz")
HOM_TARGETS = ("z3", "z4", "s4", "a5")
# Counted by exhaustive assignment over the two-generator Tietze forms;
# two_trefoils is a split union, so its count is the trefoil's squared.
KNOWN_HOM = {
    "trefoil": {"s4": 216, "a5": 1260},
    "figure_eight": {"s4": 24, "a5": 1500},
    "torus2_5": {"s4": 24, "a5": 1500},
    "torus2_7": {"s4": 24, "a5": 60},
    "two_trefoils": {"a5": 1260 ** 2},
}


@dataclass
class Outcome:
    out: object
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Job:
    name: str
    fn: Callable[[object], Outcome]
    size: int | None = None   # size class (crossings) on big_diagrams
    span: str | None = None   # span the benchmark opens around the whole job


@dataclass
class Workload:
    budget_s: float
    jobs: list[Job]


# -- verify_corpus -----------------------------------------------------------


def build_verify_corpus(cg, corpus, seed: int) -> Workload:
    def suite_job(name):
        def run(cg):
            fn = cg.verification.SUITES[name]
            report = fn(corpus, VERIFY_MOVES_PER_DIAGRAM, seed) if name == "moves" else fn(corpus)
            bad = [f"{name}/{e.diagram}: {e.detail}" for e in report.entries if e.status == "fail"]
            return Outcome(report.lines(), bad)
        return Job(name, run, span=f"verification.{name}")

    return Workload(BUDGETS["verify_corpus"],
                    [suite_job(name) for name in cg.verification.SUITES])


# -- big_diagrams ------------------------------------------------------------


class _Components:
    """Union-find over darts: strands pass straight through a crossing
    (slot i to i+2) and edges join two darts."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def _diagram_text(crossings, over):
    """Text of a diagram from {crossing: [4 edge labels]} and over flags,
    with one orientation seed per component.  Returns (text, components)."""
    comp = _Components()
    ends = {}
    for c, labels in crossings.items():
        for s, lab in enumerate(labels):
            ends.setdefault(lab, []).append((c, s))
        comp.union((c, 0), (c, 2))
        comp.union((c, 1), (c, 3))
    for a, b in ends.values():
        comp.union(a, b)
    seeds = {}
    for c in crossings:
        for s in range(4):
            seeds.setdefault(comp.find((c, s)), (c, s))
    lines = [f"crossing {c} {' '.join(labels)} over={'even' if over[c] == 0 else 'odd'}"
             for c, labels in crossings.items()]
    lines += [f"seed {c}.{s}" for c, s in seeds.values()]
    return "\n".join(lines) + "\n", len(seeds)


def braid_closure_text(rng: random.Random, n: int, strands: int = 4):
    """Closure of a random n-letter braid using every generator, so the
    diagram is connected.  Slots are SW, SE, NE, NW (counterclockwise),
    strands run upwards.  Components = cycles of the braid permutation."""
    while True:
        word = [(rng.randrange(1, strands), rng.choice((1, -1))) for _ in range(n)]
        if len({i for i, _ in word}) == strands - 1:
            break
    top = [f"b{p}" for p in range(strands)]
    slots, over = {}, {}
    for k, (i, sign) in enumerate(word):
        c = f"c{k + 1}"
        left, right = f"e{2 * k}", f"e{2 * k + 1}"
        slots[c] = [top[i - 1], top[i], right, left]
        over[c] = 0 if sign > 0 else 1
        top[i - 1], top[i] = left, right
    close = {top[p]: f"b{p}" for p in range(strands)}
    slots = {c: [close.get(lab, lab) for lab in labels] for c, labels in slots.items()}
    perm = list(range(strands))
    for i, _ in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    cycles, seen = 0, set()
    for p in range(strands):
        if p not in seen:
            cycles += 1
            while p not in seen:
                seen.add(p)
                p = perm[p]
    text, comps = _diagram_text(slots, over)
    if comps != cycles:
        raise RuntimeError("braid generator: component count mismatch")
    return text, cycles


def virtual_text(rng: random.Random, n: int):
    """Random 4-valent rotation system: a uniform perfect matching of the
    4n slots and random over flags (positive genus almost surely)."""
    darts = [(f"c{c}", s) for c in range(1, n + 1) for s in range(4)]
    rng.shuffle(darts)
    label = {}
    for i in range(0, len(darts), 2):
        label[darts[i]] = label[darts[i + 1]] = f"e{i // 2 + 1}"
    slots = {f"c{c}": [label[(f"c{c}", s)] for s in range(4)] for c in range(1, n + 1)}
    over = {c: rng.randrange(2) for c in slots}
    return _diagram_text(slots, over)


def _big_job(name, size, text, family, mu, m=None):
    def run(cg):
        D, L, A, V = cg.diagrams, cg.linkgroups, cg.abelian, cg.verification
        d = D.parse_diagram(text)
        table = D.trace_faces(d)
        D.trace_arcs(d)
        pres = {
            "ac": L.arc_core(d),
            "rc": L.region_core(d),
            "rrc": L.second_region_core(d),
            "rc0": L.rc_zero(d),
            "dehn": L.dehn(d),
            "wirtinger": L.wirtinger(d),
        }
        ab = {k: A.abelianize(p) for k, p in pres.items()}
        out = {k: str(g) for k, g in ab.items()}
        bad = []
        if A.mod2_rank(ab["ac"]) != mu:
            bad.append(f"2-rank of ab(ac) {A.mod2_rank(ab['ac'])} != components {mu}")
        if ab["wirtinger"] != A.Z(mu):
            bad.append(f"ab(wirtinger) {ab['wirtinger']} != Z^{mu}")
        if family != "virtual" and not d.is_classical:
            bad.append("closed braid diagram not classical")
        if d.is_classical:
            k = d.k
            if ab["rc"] != A.direct_sum(A.Z(1), ab["ac"]):
                bad.append(f"ab(rc) {ab['rc']} != Z + ab(ac) {ab['ac']}")
            if A.direct_sum(ab["rc"], ab["rc"]) != A.direct_sum(A.Z(k + 1), ab["rrc"]):
                bad.append(f"ab(rc)^2 != Z^{k + 1} + ab(rrc) {ab['rrc']}")
            col = D.checkerboard_color(d)
            g = L.goeritz_matrix(d, col)
            rows, _ = V.rrc_unshaded_matrix(d, col, table)
            g_tors = [x for x in A.smith_normal_form(g)[0] if x > 1] if g else []
            m_tors = [x for x in A.smith_normal_form(rows)[0] if x > 1] if rows else []
            out["goeritz_torsion"] = g_tors
            if g_tors != m_tors:
                bad.append(f"Goeritz torsion {g_tors} != rrc unshaded torsion {m_tors}")
        if m is not None and ab["ac"] != A.Z(1, m):
            bad.append(f"ab(ac) of torus2m({m}) is {ab['ac']}, not Z + Z/{m}")
        return Outcome(out, bad)
    return Job(name, run, size=size)


def build_big_diagrams(cg, corpus, seed: int) -> Workload:
    rng = random.Random(f"big_diagrams/{seed}")
    jobs = []
    for n in BIG_SIZES:
        for r in range(BIG_REPS["braid4"]):
            text, mu = braid_closure_text(rng, n)
            jobs.append(_big_job(f"braid4.n{n}.{r}", n, text, "braid4", mu))
        for r in range(BIG_REPS["torus2m"]):
            # m varies by seed within the size class; T(2, m) has 1 or 2 components
            m = n - rng.randrange(0, max(1, n // 10))
            text = cg.diagrams.format_diagram(cg.diagrams.build_torus2m(m))
            jobs.append(_big_job(f"torus2m.n{n}.{r}", n, text, "torus2m", 2 - m % 2, m))
        for r in range(BIG_REPS["virtual"]):
            text, mu = virtual_text(rng, n)
            jobs.append(_big_job(f"virtual.n{n}.{r}", n, text, "virtual", mu))
    return Workload(BUDGETS["big_diagrams"], jobs)


# -- move_storm --------------------------------------------------------------


def build_move_storm(cg, corpus, seed: int) -> Workload:
    def chain_job(entry):
        def run(cg):
            M, L, A = cg.moves, cg.linkgroups, cg.abelian
            rng = random.Random(f"move_storm/{seed}/{entry.name}")
            d = entry.diagram
            ab0, mu0 = A.abelianize(L.arc_core(d)), d.mu
            applied = []
            for _ in range(STORM_MOVES):
                picks = M.random_legal_moves(d, rng, 1)
                if not picks:
                    break
                move, site = picks[0]
                d = M.apply_move(d, move, site)
                applied.append(f"{move}@{site}")
            ab1, mu1 = A.abelianize(L.arc_core(d)), d.mu
            bad = []
            if (ab1, mu1) != (ab0, mu0):
                bad.append(f"{entry.name}: ab(ac), components {ab0}, {mu0} -> {ab1}, {mu1}")
            out = {"moves": applied, "final": cg.diagrams.format_diagram(d), "ab": str(ab1)}
            return Outcome(out, bad, {"moves.final_crossings": len(d.crossings)})
        return Job(entry.name, run)

    return Workload(BUDGETS["move_storm"], [chain_job(e) for e in corpus])


# -- engines -----------------------------------------------------------------


def rename(P, p, rng: random.Random):
    """The same presentation with its generators renamed (order kept)."""
    names = [f"x{i + 1}" for i in range(len(p.generators))]
    rng.shuffle(names)
    ren = dict(zip(p.generators, names))
    return P.Presentation([ren[g] for g in p.generators],
                          [[(ren[g], e) for g, e in r] for r in p.relators])


def scramble(P, p, rng: random.Random):
    """The same group, presented differently: generators renamed, relators
    shuffled, cyclically rotated and inverted."""
    p = rename(P, p, rng)
    rels = []
    for r in p.relators:
        k = rng.randrange(len(r)) if r else 0
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = tuple((g, -e) for g, e in reversed(r))
        rels.append(r)
    rng.shuffle(rels)
    return P.Presentation(p.generators, rels)


def coxeter_a(n):
    return [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)] for i in range(n)]


def coxeter_e6():
    edges = {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}
    return [[1 if i == j else 3 if (min(i, j), max(i, j)) in edges else 2
             for j in range(6)] for i in range(6)]


def cyclic_hom_count(group, m: int) -> int:
    """|Hom(A, Z/m)| = m^r * prod gcd(d, m) for A = Z^r + sum Z/d."""
    total = m ** group.free_rank
    for d in group.divisors:
        total *= math.gcd(d, m)
    return total


def build_engines(cg, corpus, seed: int) -> Workload:
    P, E = cg.presentations, cg.enumeration
    rng = random.Random(f"engines/{seed}")
    corpus_dir = Path(cg.verification.__file__).parent / "corpus"
    # (name, presentation, max_cosets, known index; None = limit reached)
    cosets = [(name, P.parse_presentation((corpus_dir / f"{name}.pres").read_text()), None, 60)
              for name in ("a5_todd", "a5_alt")]
    for name, matrix, limit, index in [
            ("A4", coxeter_a(4), None, 120), ("A5", coxeter_a(5), None, 720),
            ("A6", coxeter_a(6), None, 5040), ("E6", coxeter_e6(), 10 ** 6, 51840),
            ("A7", coxeter_a(7), None, None)]:
        cosets.append((name, P.coxeter_presentation(P.CoxeterMatrix(matrix)), limit, index))
    targets = {t: E.named_target(t) for t in HOM_TARGETS}

    def coset_job(name, p, limit, index):
        # renamed only: relator order steers coset enumeration, and the
        # limit job must reach the limit on every seed
        p = rename(P, p, rng)

        def run(cg):
            kw = {} if limit is None else {"max_cosets": limit}
            got = cg.enumeration.coset_enumerate(p, **kw)
            bad = [] if got == index else [f"coset index of {name}: {got}, expected {index}"]
            return Outcome(got, bad)
        return Job(f"coset.{name}", run)

    def hom_job(name, form, wanted):
        d = corpus.get(name).diagram
        sub_seed = rng.getrandbits(64)

        def run(cg):
            L, A, En = cg.linkgroups, cg.abelian, cg.enumeration
            scr = random.Random(sub_seed)
            if form == "wc":
                p = scramble(cg.presentations, L.core_of_wirtinger(d), scr)
            else:
                p = scramble(cg.presentations, L.arc_core(d), scr)
                if form == "tz":
                    p = cg.presentations.tietze_simplify(p)
            counts = {t: En.count_homomorphisms(p, targets[t]) for t in wanted}
            bad = [f"{name}/{form}: |Hom(G, {t})| = {counts[t]}, known {known}"
                   for t, known in KNOWN_HOM[name].items() if t in counts and counts[t] != known]
            cyclic = [t for t in wanted if t.startswith("z")]
            if cyclic:
                ab = A.abelianize(p)
                for t in cyclic:
                    want = cyclic_hom_count(ab, int(t[1:]))
                    if counts[t] != want:
                        bad.append(f"{name}/{form}: |Hom(G, {t})| = {counts[t]}, ab gives {want}")
            return Outcome(counts, bad)
        return Job(f"hom.{name}.{form}", run)

    jobs = [coset_job(*c) for c in cosets]
    jobs += [hom_job(name, form, HOM_TARGETS) for name in HOM_DIAGRAMS for form in HOM_FORMS]
    jobs.append(hom_job("two_trefoils", "ac", ("a5",)))
    return Workload(BUDGETS["engines"], jobs)


BUILDERS = {
    "verify_corpus": build_verify_corpus,
    "big_diagrams": build_big_diagrams,
    "move_storm": build_move_storm,
    "engines": build_engines,
}
