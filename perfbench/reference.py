"""Output checks for every benchmark request, from NumPy alone.

The references below never call querybound: each workload and strategy is
rebuilt here from its definition (range indicator rows, 0/1 predicate rows,
weighted group-by rows, tree and wavelet rows) and the quantities the CLI
reports are recomputed directly:

- svdb from the singular values of the explicit matrix (or the Gram
  eigenvalues when the matrix is too large, or the closed form for the
  uniform all-predicate Gram);
- total error as P * sens^2 * trace(G_W pinv(G_A));
- the table2 values at the tolerances of tests/test_acceptance.py.

``check(argv, code, out)`` returns a list of failure messages (empty when the
output is right).
"""

import csv
import io
import json
import math
from functools import lru_cache, reduce

import numpy as np

RTOL = 1e-6
# the CLI treats Gram eigenvalues below this share of the largest as zeros
EIG_ZERO_REL = 1e-12
# the documented sizes up to which the CLI keeps explicit rows (beyond them it
# holds only the Gram, and reports sensitivity_l1 as null)
EXPLICIT_CELL_CAP = 4096
EXPLICIT_ENTRY_CAP = 10 ** 7
# the largest |z| accepted from a Monte-Carlo run (about 1 in 5e8 for a normal)
Z_LIMIT = 6.0
LN2 = math.log(2.0)

# tests/test_acceptance.py: (row, column, expected, rtol); svdb_log10 columns
# are compared as 10 ** value
TABLE2_EXPECTED = [
    ("AllRange(2048)", "identity_ratio", 47.25, 5e-3),
    ("AllRange(2048)", "hierarchical_ratio", 1.776, 2e-2),
    ("AllRange(2048)", "haar_ratio", 1.545, 2e-2),
    ("AllRange(64,32)", "identity_ratio", 12.11, 1e-2),
    ("AllRange(64,32)", "svdb_log10", 2.261e7, 1e-2),
    ("AllRange(2x2x...x2, 10 dims)", "svdb_log10", 5.242e5, 5e-3),
    ("AllRange(2x2x...x2, 10 dims)", "identity_ratio", 2.000, 5e-3),
    ("AllRange(2x2x...x2, 10 dims)", "hierarchical_ratio", 2.000, 5e-3),
    ("AllRange(2x2x...x2, 10 dims)", "haar_ratio", 2.000, 5e-3),
    ("AllPredicate(1024)", "identity_ratio", 1.884, 1e-2),
]
TABLE2_HEADER = ["workload", "svdb", "svdb_log10", "svdb_u_ratio", "identity_ratio",
                 "hierarchical_ratio", "haar_ratio", "eigen_design"]

DEFAULTS = {"workload": "all-range", "strategy": "identity", "fanout": "2",
            "epsilon": "1.0", "delta": "1e-05", "projections": "none"}


def parse_argv(argv) -> dict:
    """The command and its --flag values, with the CLI's defaults."""
    opts = dict(DEFAULTS, command=argv[0])
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag[2:]] = value
    return opts


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip())


# --- workloads and strategies rebuilt from their definitions ---------------

def range_rows(d: int) -> np.ndarray:
    lo, hi = np.triu_indices(d)
    cells = np.arange(d)
    return ((cells >= lo[:, None]) & (cells <= hi[:, None])).astype(float)


def range_gram(d: int) -> np.ndarray:
    """Cells i, j (1-based) share min(i, j) * (d + 1 - max(i, j)) ranges."""
    if d <= 128:
        R = range_rows(d)
        return R.T @ R
    i = np.arange(1, d + 1, dtype=float)
    return np.minimum.outer(i, i) * (d + 1 - np.maximum.outer(i, i))


def predicate_rows(n: int) -> np.ndarray:
    codes = np.arange(2 ** n)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float)


def cube_rows(dims, cuboids, weights) -> np.ndarray:
    blocks = []
    for c, w in zip(cuboids, weights):
        parts = [np.eye(d) if a + 1 in c else np.ones((1, d)) for a, d in enumerate(dims)]
        blocks.append(w * reduce(np.kron, parts))
    return np.vstack(blocks)


def tree_rows(n: int, fanout: int) -> np.ndarray:
    """Fanout-ary interval tree, breadth first; a node of `size` cells splits
    into children of ceil(size / min(fanout, size)) cells, the last one
    taking the remainder."""
    rows, level = [], [(0, n)]
    while level:
        nxt = []
        for lo, size in level:
            row = np.zeros(n)
            row[lo:lo + size] = 1.0
            rows.append(row)
            if size > 1:
                q = -(-size // min(fanout, size))
                for s in range(lo, lo + size, q):
                    nxt.append((s, min(q, lo + size - s)))
        level = nxt
    return np.array(rows)


def haar_rows(n: int) -> np.ndarray:
    rows, block = [np.ones(n)], n
    while block > 1:
        half = block // 2
        for start in range(0, n, block):
            row = np.zeros(n)
            row[start:start + half] = 1.0
            row[start + half:start + block] = -1.0
            rows.append(row)
        block = half
    return np.array(rows)


def gram_sqrt(G: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(G)
    lam = np.clip(lam, 0.0, None)
    lam[lam < EIG_ZERO_REL * lam.max()] = 0.0
    R = (V * np.sqrt(lam)) @ V.T
    return 0.5 * (R + R.T)


class Ref:
    """Dense reference of a workload: explicit rows when small, its Gram,
    and the uniform all-predicate parameters (ln a, ln b) when they apply."""

    def __init__(self, n, M=None, G=None, uniform=None, dims=None):
        self.n, self.M, self.uniform, self.dims = n, M, uniform, dims
        self._G = G

    @property
    def G(self) -> np.ndarray:
        if self._G is None:
            if self.M is not None:
                self._G = self.M.T @ self.M
            else:
                la, lb = self.uniform
                self._G = np.full((self.n, self.n), math.exp(lb))
                np.fill_diagonal(self._G, math.exp(la))
        return self._G


@lru_cache(maxsize=16)
def workload_ref(spec: tuple) -> Ref:
    """spec: ("all-range", dims) | ("all-predicate", n) | ("data-cube", dims, cuboids, weights)."""
    kind = spec[0]
    if kind == "all-range":
        dims = spec[1]
        n = math.prod(dims)
        m = math.prod(d * (d + 1) // 2 for d in dims)
        if n <= EXPLICIT_CELL_CAP and m * n <= EXPLICIT_ENTRY_CAP:
            return Ref(n, M=reduce(np.kron, [range_rows(d) for d in dims]), dims=dims)
        return Ref(n, G=reduce(np.kron, [range_gram(d) for d in dims]), dims=dims)
    if kind == "all-predicate":
        n = spec[1]
        if n <= 16:
            return Ref(n, M=predicate_rows(n))
        return Ref(n, uniform=((n - 1) * LN2, (n - 2) * LN2))
    if kind == "data-cube":
        _, dims, cuboids, weights = spec
        return Ref(math.prod(dims), M=cube_rows(dims, cuboids, weights), dims=dims)
    raise ValueError(f"no reference for workload {kind!r}")


def workload_spec(opts: dict) -> tuple:
    kind = opts["workload"]
    if kind == "all-range":
        dims = _ints(opts["dims"]) if "dims" in opts else (int(opts["cells"]),)
        return kind, dims
    if kind == "all-predicate":
        return kind, int(opts["cells"])
    if kind == "data-cube":
        cuboids = tuple(tuple(sorted(set(_ints(c)))) for c in opts["cuboids"].split(";")[:-1])
        weights = tuple(float(w) for w in opts["weights"].split(","))
        return kind, _ints(opts["dims"]), cuboids, weights
    raise ValueError(f"no reference for workload {kind!r}")


def strategy_ref(W: Ref, opts: dict):
    """(G_A, explicit rows or None) of the strategy the CLI builds."""
    name = opts["strategy"]
    dims = W.dims if W.dims else (W.n,)
    if name == "identity":
        return np.eye(W.n), np.eye(W.n)
    if name == "workload":
        return W.G, W.M
    if name == "sqrt":
        R = gram_sqrt(W.G)
        return R, (gram_sqrt(R) if opts["command"] == "run" else None)
    if name in ("hierarchical", "haar"):
        fanout = int(opts["fanout"])
        parts = [tree_rows(d, fanout) if name == "hierarchical" else haar_rows(d)
                 for d in dims]
        if math.prod(p.size for p in parts) <= EXPLICIT_ENTRY_CAP or len(parts) == 1:
            A = reduce(np.kron, parts)
            return A.T @ A, A
        return reduce(np.kron, [p.T @ p for p in parts]), None
    raise ValueError(f"no reference for strategy {name!r}")


# --- spectral references ----------------------------------------------------

def _svdb_from_sq(values: np.ndarray, n: int) -> float:
    values = np.clip(values, 0.0, None)
    values[values < EIG_ZERO_REL * values.max()] = 0.0
    return float(np.sum(np.sqrt(values)) ** 2 / n)


@lru_cache(maxsize=64)
def svdb_log10(spec: tuple) -> float:
    W = workload_ref(spec)
    if W.uniform is not None:
        # eigenvalues a + (n-1) b once and a - b = 2^(n-2) (n - 1 times), where
        # a + (n-1) b = (n + 1) 2^(n-2)
        n = W.n
        return ((n - 2) * LN2 + 2 * math.log(math.sqrt(n + 1) + n - 1)
                - math.log(n)) / math.log(10)
    if W.M is not None:
        s = np.linalg.svd(W.M, compute_uv=False)
        return math.log10(float(np.sum(s)) ** 2 / W.n)
    return math.log10(_svdb_from_sq(np.linalg.eigvalsh(W.G), W.n))


def _pow10(l10: float) -> float:
    try:
        return 10.0 ** l10
    except OverflowError:
        return math.inf


def _uniform_pred_svdb(n: int, k: int) -> float:
    """svdb of the all-predicate Gram on n cells projected onto k of them."""
    return 2.0 ** (n - 2) * (math.sqrt(k + 1) + k - 1) ** 2 / k


def pinv_trace(G_W: np.ndarray, G_A: np.ndarray) -> float:
    lam, V = np.linalg.eigh(G_A)
    keep = lam > 1e-10 * lam.max()
    V = V[:, keep]
    return float(np.sum(np.sum(V * (G_W @ V), axis=0) / lam[keep]))


def p_factor(opts: dict) -> float:
    return 2.0 * math.log(2.0 / float(opts["delta"])) / float(opts["epsilon"]) ** 2


@lru_cache(maxsize=256)
def _eval_ref(argv: tuple) -> dict:
    opts = parse_argv(argv)
    spec = workload_spec(opts)
    W = workload_ref(spec)
    G_A, A = strategy_ref(W, opts)
    sens_sq = float(np.max(np.sum(A * A, axis=0))) if A is not None else float(np.max(np.diag(G_A)))
    P = p_factor(opts)
    total = P * sens_sq * pinv_trace(W.G, G_A)
    ref = {
        "sensitivity_l2": math.sqrt(sens_sq),
        "p_factor": P,
        "total_error": total,
        "total_error_log10": math.log10(total),
        "ratio_to_svdb": total / (P * 10.0 ** svdb_log10(spec)),
    }
    if opts["command"] == "eval":
        ref["sensitivity_l1"] = float(np.max(np.sum(np.abs(A), axis=0))) if A is not None else None
    return ref


@lru_cache(maxsize=256)
def _bound_ref(argv: tuple) -> dict:
    opts = parse_argv(argv)
    spec = workload_spec(opts)
    W = workload_ref(spec)
    eps_sq = float(opts["epsilon"]) ** 2
    l10 = svdb_log10(spec)
    svdb = _pow10(l10)
    if W.uniform is not None:
        spread, loose = 0.0, 1.0
        l1_geo = _pow10((math.log(W.n) + W.uniform[0]) / math.log(10))
    else:
        R = gram_sqrt(W.G)
        d = np.diag(R)
        spread = float((d.max() - d.min()) / d.max())
        loose = W.n * float(d.max()) / float(np.trace(R))
        l1_geo = float(np.trace(W.G))
    ref = {"svdb": svdb, "svdb_log10": l10, "diag_spread": spread,
           "looseness_factor": loose, "l1_svdb": svdb / eps_sq,
           "l1_geometric": l1_geo / eps_sq}
    family = opts["projections"]
    if family == "ranges":
        (d,) = spec[1]
        G = W.G
        best = max(_svdb_from_sq(np.linalg.eigvalsh(G[lo:hi + 1, lo:hi + 1]), hi - lo + 1)
                   for lo in range(d) for hi in range(lo, d))
        ref["projected_svdb"] = best
    elif family == "exhaustive":
        ref["projected_svdb"] = max(_uniform_pred_svdb(W.n, k) for k in range(1, W.n + 1))
    return ref


def _close(got, want, rtol=RTOL, atol=0.0) -> bool:
    if want is None or (isinstance(want, float) and not math.isfinite(want)):
        return got is None
    if got is None:
        return False
    return abs(got - want) <= atol + rtol * abs(want)


def _compare(out: dict, ref: dict, atol: dict = None) -> list:
    errors = []
    for key, want in ref.items():
        if key not in out:
            errors.append(f"missing field {key}")
        elif not _close(out[key], want, atol=(atol or {}).get(key, 0.0)):
            errors.append(f"{key}={out[key]!r}, reference {want!r}")
    return errors


def _check_bound(argv, out: dict) -> list:
    opts = parse_argv(argv)
    ref = dict(_bound_ref(tuple(argv)))
    errors = _compare(out, ref, atol={"diag_spread": 1e-7, "svdb_log10": 1e-9})
    spread = ref["diag_spread"]
    if (spread < 1e-10 and out.get("tight") is not True) or \
            (spread > 1e-6 and out.get("tight") is not False):
        errors.append(f"tight={out.get('tight')!r} with reference spread {spread:.3e}")
    family = opts["projections"]
    if family == "none":
        if out.get("projected_svdb") is not None or out.get("projected_subset") is not None:
            errors.append("projection fields set without --projections")
        return errors
    W = workload_ref(workload_spec(opts))
    mu = out.get("projected_subset") or []
    if not mu or mu != sorted(set(mu)) or mu[0] < 1 or mu[-1] > W.n:
        return errors + [f"projected_subset {mu!r} is not a subset of 1..{W.n}"]
    if family == "ranges":
        if mu != list(range(mu[0], mu[-1] + 1)):
            return errors + [f"projected_subset {mu!r} is not a range"]
        sub = W.G[mu[0] - 1:mu[-1], mu[0] - 1:mu[-1]]
        value = _svdb_from_sq(np.linalg.eigvalsh(sub), len(mu))
    else:
        value = _uniform_pred_svdb(W.n, len(mu))
    if not _close(value, ref["projected_svdb"]):
        errors.append(f"projected_subset {mu!r} has svdb {value!r}, "
                      f"best {ref['projected_svdb']!r}")
    return errors


def _check_eval(argv, out: dict) -> list:
    errors = _compare(out, _eval_ref(tuple(argv)))
    resid = out.get("support_residual")
    if resid is None or not 0.0 <= resid <= 1e-6:
        errors.append(f"support_residual={resid!r}")
    return errors


def _check_run(argv, out: dict) -> list:
    opts = parse_argv(argv)
    ref = _eval_ref(tuple(argv))
    errors = []
    if not _close(out.get("analytic"), ref["total_error"]):
        errors.append(f"analytic={out.get('analytic')!r}, reference {ref['total_error']!r}")
    if out.get("trials") != int(opts["trials"]) or out.get("seed") != int(opts["seed"]):
        errors.append("trials or seed not echoed")
    mean, se, z = out.get("mean"), out.get("stderr"), out.get("z")
    if None in (mean, se, z) or not (mean > 0 and se > 0):
        return errors + [f"mean={mean!r} stderr={se!r} z={z!r}"]
    if abs(z) > Z_LIMIT:
        errors.append(f"|z|={abs(z):.2f} exceeds {Z_LIMIT}")
    if not _close(z, (mean - out["analytic"]) / se, rtol=1e-9, atol=1e-12):
        errors.append(f"z={z!r} disagrees with (mean - analytic) / stderr")
    return errors


def _check_table2(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TABLE2_HEADER:
        return [f"table2 header {rows[:1]!r}"]
    table = {r[0]: dict(zip(TABLE2_HEADER, r)) for r in rows[1:]}
    errors = []
    if len(rows) != 5 or len(table) != 4:
        errors.append(f"table2 has rows {sorted(table)!r}")
    for name, col, want, rtol in TABLE2_EXPECTED:
        try:
            got = float(table[name][col])
        except (KeyError, ValueError):
            errors.append(f"table2 {name}/{col} missing")
            continue
        if col == "svdb_log10":
            got = 10.0 ** got
        if abs(got - want) > rtol * abs(want):
            errors.append(f"table2 {name}/{col}={got!r}, expected {want} (rtol {rtol})")
    return errors


def check(argv, code: int, out: str) -> list:
    """Failure messages for one request's exit code and stdout (all requests
    in the benchmark are valid, so the expected exit code is 0)."""
    if code != 0:
        return [f"exit code {code}"]
    command = argv[0]
    if command == "table2":
        return _check_table2(out)
    try:
        obj = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    if command == "bound":
        return _check_bound(argv, obj)
    if command == "eval":
        return _check_eval(argv, obj)
    if command == "run":
        return _check_run(argv, obj)
    return [f"no check for command {command!r}"]


# --- self-test ----------------------------------------------------------------

PERTURBED_FIELD = {"bound": "svdb_log10", "eval": "total_error", "run": "analytic"}


def perturb(argv, out: str) -> str:
    """A copy of a correct output with one checked value moved slightly."""
    if argv[0] == "table2":
        rows = list(csv.reader(io.StringIO(out)))
        col = TABLE2_HEADER.index("identity_ratio")
        rows[1][col] = repr(float(rows[1][col]) * 1.1)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    obj = json.loads(out)
    key = PERTURBED_FIELD[argv[0]]
    obj[key] = obj[key] * (1.0 + 1e-4) + 1e-4
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def self_test(samples) -> list:
    """samples: (argv, stdout) pairs that passed their check. Each perturbed
    copy must now fail; returns the commands whose perturbation went unseen."""
    return [argv[0] for argv, out in samples if not check(argv, 0, perturb(argv, out))]
