"""Seeded request lists for the three benchmark workloads.

A run is a closed loop over passes; pass k of workload w with seed s is the
argv list ``pass_requests(w, s, k)``. The same (w, s, k) always gives the
same list and the program under test sees nothing but these argv lists.

Each pass is stratified: it holds a fixed set of slots, and the seed only
draws the parameters inside each slot (sizes, fanouts, cuboids, weights,
privacy parameters, noise seeds) and their order. The slots cover every
storage form and code path the workload is meant to exercise. The draws are
stratified across passes too (see ``Draw``), so that the passes of one run
spread each parameter over its range in the same way for every seed. Both
keep the cost of a run close to constant across seeds, so that one seed's
figures can be compared with another's. The Monte-Carlo slots go further and
fix every parameter that sets a request's cost (see ``_montecarlo``).
"""

import itertools
import random

WORKLOADS = ("table2", "interactive", "montecarlo")

# One small request of the workload's own kind, run once before timing so that
# lazy imports and first-call set-up are paid outside the timed loop.
WARMUP = {
    "table2": ["bound", "--workload", "all-range", "--cells", "64"],
    "interactive": ["eval", "--workload", "all-range", "--dims", "4,4",
                    "--strategy", "hierarchical"],
    "montecarlo": ["run", "--workload", "all-range", "--cells", "16",
                   "--strategy", "hierarchical", "--trials", "500", "--seed", "1"],
}

# Environment set for a workload's worker processes (see _montecarlo).
ENV = {"montecarlo": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}}

POW2 = (16, 32, 64, 128)


STRATA = 8


class Draw:
    """Parameter draws for pass k of a run.

    The i-th draw of every pass shares one seeded offset, and pass k draws
    from the (k mod STRATA)-th of STRATA equal strata counted from it. So any
    STRATA consecutive passes hit every stratum of every parameter once.
    """

    def __init__(self, workload: str, seed: int, k: int):
        # str seeds hash with SHA-512, so the streams do not depend on PYTHONHASHSEED
        tag = f"querybound-bench:{workload}:{int(seed)}"
        self._offsets = random.Random(tag)
        self._rng = random.Random(f"{tag}:{int(k)}")
        self._k = int(k)

    def unit(self) -> float:
        return ((self._k + self._rng.random()) / STRATA + self._offsets.random()) % 1.0

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self.unit() * (hi - lo + 1))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.unit() * (hi - lo)

    def choice(self, seq):
        return seq[int(self.unit() * len(seq))]

    def shuffle(self, items):
        self._rng.shuffle(items)


def _privacy(rng) -> list:
    return ["--epsilon", rng.choice(["0.5", "1.0", "2.0"]),
            "--delta", rng.choice(["1e-05", "1e-06"])]


def _strategy(rng, name: str) -> list:
    if name == "hierarchical":
        return ["--strategy", name, "--fanout", str(rng.randint(2, 4))]
    return ["--strategy", name]


def _range1d(d: int) -> list:
    return ["--workload", "all-range", "--cells", str(d)]


def _grid(rng, lo: int, hi: int, pow2: bool = False) -> list:
    """Two dims a, b >= 2 with lo <= a * b <= hi (powers of two for Haar)."""
    sides = (2, 4, 8, 16, 32, 64) if pow2 else range(2, hi // 2 + 1)
    a, b = rng.choice([(a, b) for a in sides for b in sides if lo <= a * b <= hi])
    return ["--workload", "all-range", "--dims", f"{a},{b}"]


def _cube(rng, pow2: bool = False) -> list:
    dims = [rng.choice((2, 4, 8)) if pow2 else rng.randint(2, 8) for _ in range(3)]
    subsets = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    cuboids = rng.choice(list(itertools.combinations(subsets, rng.randint(1, 4))))
    # always four draws, so later draws keep their offsets in every pass
    weights = [f"{rng.uniform(0.5, 3.0):.3f}" for _ in range(4)][:len(cuboids)]
    # a trailing ';' terminates the list, so an empty cuboid can come last
    spec = ";".join(",".join(str(a) for a in c) for c in cuboids) + ";"
    return ["--workload", "data-cube", "--dims", ",".join(map(str, dims)),
            "--cuboids", spec, "--weights", ",".join(weights)]


def _predicate(n: int) -> list:
    return ["--workload", "all-predicate", "--cells", str(n)]


def _interactive(rng) -> list:
    r = rng.randint
    reqs = [
        # 1-D all-range: explicit rows up to 271 cells (the mix stays below 128,
        # where forming the explicit Gram is cheap), dense Gram from 272
        ["bound", *_range1d(r(8, 128)), *_privacy(rng)],
        ["bound", *_range1d(r(272, 512))],
        ["eval", *_range1d(r(8, 128)), *_strategy(rng, "identity"), *_privacy(rng)],
        ["eval", *_range1d(r(8, 128)), *_strategy(rng, "hierarchical")],
        ["eval", *_range1d(rng.choice(POW2)), *_strategy(rng, "haar")],
        ["eval", *_range1d(r(8, 128)), *_strategy(rng, "sqrt")],
        ["eval", *_range1d(r(8, 128)), *_strategy(rng, "workload"), *_privacy(rng)],
        ["eval", *_range1d(r(272, 512)), *_strategy(rng, "hierarchical")],
        ["eval", *_range1d(r(272, 512)), *_strategy(rng, "identity")],
        # 2-D all-range grids: dense Gram form from 448 cells, explicit below 128
        ["bound", *_grid(rng, 448, 512)],
        ["eval", *_grid(rng, 448, 512), *_strategy(rng, "hierarchical"), *_privacy(rng)],
        ["eval", *_grid(rng, 512, 512, pow2=True), *_strategy(rng, "haar")],
        ["eval", *_grid(rng, 48, 64), *_strategy(rng, "sqrt")],
        ["eval", *_grid(rng, 96, 128), *_strategy(rng, "workload")],
        # projection families: the thread-pool path of svdb_projected
        ["bound", *_range1d(r(16, 32)), "--projections", "ranges"],
        ["bound", *_range1d(r(33, 48)), "--projections", "ranges"],
        ["bound", *_predicate(r(6, 8)), "--projections", "exhaustive"],
        ["bound", *_predicate(r(9, 10)), "--projections", "exhaustive", *_privacy(rng)],
        # all-predicate: explicit up to 16 cells, uniform log-space beyond
        ["bound", *_predicate(r(2, 16)), *_privacy(rng)],
        ["eval", *_predicate(r(2, 16)), *_strategy(rng, "sqrt")],
        ["bound", *_predicate(r(17, 2048)), *_privacy(rng)],
        ["eval", *_predicate(r(17, 128)), *_strategy(rng, "identity")],
        ["eval", *_predicate(r(17, 128)), *_strategy(rng, "hierarchical")],
        ["eval", *_predicate(rng.choice((32, 64, 128))), *_strategy(rng, "haar")],
        ["eval", *_predicate(r(17, 128)), *_strategy(rng, "sqrt"), *_privacy(rng)],
        ["eval", *_predicate(r(17, 128)), *_strategy(rng, "workload")],
        # data-cube group-bys with seeded cuboids and weights
        ["bound", *_cube(rng), *_privacy(rng)],
        ["eval", *_cube(rng), *_strategy(rng, "hierarchical")],
        ["eval", *_cube(rng, pow2=True), *_strategy(rng, "haar")],
        ["eval", *_cube(rng), *_strategy(rng, "sqrt")],
        ["eval", *_cube(rng), *_strategy(rng, "identity")],
        ["eval", *_cube(rng), *_strategy(rng, "workload"), *_privacy(rng)],
    ]
    rng.shuffle(reqs)
    return reqs


def _grid_fixed(rng, a: int, b: int) -> list:
    """An a x b or b x a all-range grid: the seed picks only the orientation."""
    dims = (a, b) if rng.unit() < 0.5 else (b, a)
    return ["--workload", "all-range", "--dims", f"{dims[0]},{dims[1]}"]


def _montecarlo(rng) -> list:
    r = rng.randint
    # Each slot fixes everything that sets a request's cost: size, strategy,
    # fanout and trial count. The sizes span the mix's range (12 to 124 cells,
    # 1-D and 2-D). The seed draws only what costs the same whichever way it
    # falls: privacy parameters, noise seeds, grid orientation and the order.
    # The trial counts put seven of the ten requests of a pass within about
    # 140-160 ms of each other on one core, with the Haar grid pair below them
    # and the 124-cell request above, so the median request is in the middle
    # of a dense cloud of latencies. With seeded sizes or spread-out costs, the median request
    # would jump from one slot to the next between seeds, moving
    # latency_p50_ms by up to a quarter.
    #
    # The slots run the trial loop serially (--threads 1), with BLAS pinned
    # to one thread (ENV). At the CLI default (one pool thread per CPU) and
    # with OpenBLAS threaded, the GIL-bound trial pool ran 2-3 times slower
    # than serially on a 2-vCPU host and switched between two speeds for
    # whole runs, so it measured the scheduler rather than the program. The
    # repeat below keeps the default pool in every pass.
    slots = [
        (_range1d(12), ["--strategy", "hierarchical", "--fanout", "3"], 7000),
        (_range1d(32), ["--strategy", "haar"], 6000),
        (_range1d(32), ["--strategy", "sqrt"], 6000),
        (_range1d(40), ["--strategy", "hierarchical", "--fanout", "2"], 3500),
        (_range1d(40), ["--strategy", "identity"], 6000),
        (_range1d(64), ["--strategy", "sqrt"], 3000),
        (_range1d(124), ["--strategy", "identity"], 2000),
        (_grid_fixed(rng, 7, 8), ["--strategy", "hierarchical", "--fanout", "4"], 3000),
        (_grid_fixed(rng, 4, 16), ["--strategy", "haar"], 2000),
    ]
    reqs = []
    for spec, strategy, trials in slots:
        reqs.append(["run", *spec, *strategy, *_privacy(rng), "--trials", str(trials),
                     "--seed", str(r(0, 2 ** 31 - 1)), "--threads", "1"])
    # one repeat per pass of the Haar grid slot, at the default thread count:
    # the output must be byte-identical, as the trial loop is deterministic
    # for a fixed seed whatever the thread count
    repeat = reqs[-1][:-2]
    rng.shuffle(reqs)
    return reqs + [repeat]


def pass_requests(workload: str, seed: int, k: int) -> list:
    """The argv lists of pass k of the workload for the given seed."""
    if workload == "table2":
        return [["table2"]]
    rng = Draw(workload, seed, k)
    if workload == "interactive":
        return _interactive(rng)
    if workload == "montecarlo":
        return _montecarlo(rng)
    raise ValueError(f"unknown workload {workload!r}")
