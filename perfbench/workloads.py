"""The three benchmark workloads: inputs from a seed, items, and output gates.

An item is one certified verdict.  Every workload is a list of items that
one caller runs one at a time; ``run_pass`` times each item and
``check_pass`` checks each result afterwards, outside the timed region.

The seed changes inputs only (Frobenius lifts, generator powers and factor
orders, session elements), never the grid shapes, the rung list or the
session commands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import time
from pathlib import Path

import numpy as np

from iwafit import apps, cli, groupring, ideals, paperchecks, shifts
from iwafit import GroupRingSpec, ShiftRequest

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SHIFT_DIGESTS = REFERENCE_DIR / "shift_digests.json"
VERIFY_PAPER_REPORT = REFERENCE_DIR / "verify_paper.txt"
CLI_DIGESTS = REFERENCE_DIR / "cli_digests.json"


@dataclasses.dataclass
class ItemResult:
    name: str
    seconds: float
    value: object = None
    error: str | None = None
    verdict: str | None = None
    precision: int | None = None
    ok: bool = False


def _equal_ok(verdict) -> tuple[bool, str, int | None]:
    """An "equal" verdict only counts with a positive certified precision."""
    prec = verdict.certified_t_precision
    if not verdict.equal:
        return False, "unequal", prec
    return prec is not None and prec > 0, "equal", prec


def _units(m: int) -> list[int]:
    return [a for a in range(1, m) if np.gcd(a, m) == 1]


def warm_specs(specs) -> None:
    """Fill the per-spec lazy tables (multiplication table, characters)."""
    for spec in specs:
        x = groupring.one(spec)
        groupring.mul(x, x)
        ideals.nzd_certificate(x)


# --------------------------------------------------------------------------
# euler-grid: both Euler-factor routes and their comparison at 12 points


def _euler_name(data) -> str:
    inertia = "x".join(map(str, data.inertia_orders)) or "1"
    return f"euler-p{data.local.p}-i{inertia}-m{data.m_v}-q{data.q}"


class EulerGrid:
    """The 12-point grid of ``paperchecks.euler_grid(k=4, N=6)``, each point
    with one seeded Frobenius lift per gamma exponent in ``GAMMAS``.

    The gamma exponent c sets how many terms the Frobenius lift has, and so
    most of a point's cost; every pass covers each c once per point, which
    keeps the pass time from depending on the seed.  The comparison of the
    routes is certified at T-precision N - c - 1, positive for these c.
    Every exponent is a unit modulo its order, so each inertia generator
    acts non-trivially whatever the seed: a zero exponent makes a point
    cheaper, and the two (5,5) points with m_v = 4 take most of a pass.
    """

    GAMMAS = (1, 2)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.points, self.names = [], []
        for gamma in self.GAMMAS:
            for point in paperchecks.euler_grid(k=4, N=6):
                orders = point.inertia_orders + ((point.m_v,) if point.m_v > 1 else ())
                exps = [int(rng.choice(_units(m))) for m in orders]
                self.points.append(dataclasses.replace(
                    point, frobenius_delta=tuple(exps), frobenius_gamma=gamma))
                self.names.append(f"{_euler_name(point)}-c{gamma}")

    def specs(self):
        return [d.local for d in self.points]

    def run_pass(self) -> list[ItemResult]:
        out = []
        for name, data in zip(self.names, self.points):
            t0 = time.perf_counter()
            try:
                closed = apps.euler_factor_closed(data, assume_nzd=True)
                direct = apps.euler_factor_direct(data, assume_nzd=True)
                value = ideals.frac_equal(closed, direct)
            except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
                out.append(ItemResult(name, time.perf_counter() - t0, error=repr(exc)))
                continue
            out.append(ItemResult(name, time.perf_counter() - t0, value))
        return out

    def check_pass(self, results: list[ItemResult]) -> None:
        for r in results:
            if r.error is None:
                r.ok, r.verdict, r.precision = _equal_ok(r.value)


# --------------------------------------------------------------------------
# shift-ladder: shift_trivial plus the canonical numerator, rung by rung

# (orders, d, k, N, n); the wide-modulus rung runs on Python-int residues.
# The d = 2 bicyclic rungs run at k = 3, the precision at which paperchecks
# checks their displayed closed form; at k = 4 frac_equal reports "unequal".
RUNGS = (
    [((3,), 1, 4, 6, n) for n in (0, 1, 2, 3, -1, -2)]
    + [((9,), 1, 4, 6, n) for n in range(4)]
    + [((3, 3), 1, 4, 6, n) for n in range(9)]
    + [((3, 9), 1, 4, 6, 2), ((9, 9), 1, 4, 6, 2), ((3, 3, 3), 1, 2, 5, 2)]
    + [((3,), 2, 4, 5, n) for n in (1, 2, 3, -1)]
    + [((3, 3), 2, 3, 4, n) for n in (2, 3)]
    + [((3, 3), 1, 21, 6, 2)]
)


def rung_name(orders, d, k, N, n) -> str:
    name = f"shift-d{d}-{'x'.join(map(str, orders))}-n{n}"
    return name if k == 4 else f"{name}-k{k}"


def _closed_form(spec: GroupRingSpec, n: int):
    """The displayed closed form of the n-th shift, or None if there is none."""
    one, tvar, delta, norm = (groupring.one, groupring.tvar, groupring.delta,
                              groupring.norm_element)
    Ideal, Frac, integral = ideals.Ideal, ideals.FractionalIdeal, ideals.integral
    tau = [delta(spec, i) - one(spec) for i in range(1, spec.s + 1)]
    if spec.d == 1 and spec.s == 1:
        t = tvar(spec, 1)
        if n % 2 == 0:
            return integral(Ideal(spec, [tau[0], t]))
        return Frac(Ideal(spec, [norm(spec), t]), t, ideals.nzd_status(t))
    if spec.d == 1 and spec.s == 2 and n in (0, 1, 2):
        t = tvar(spec, 1)
        n1, n2 = norm(spec, [1]), norm(spec, [2])
        t1, t2 = tau
        if n == 0:
            return integral(Ideal(spec, [t1, t2, t]))
        if n == 1:
            gens = [norm(spec), n1 * t, n2 * t, t1 * t, t2 * t, t * t]
            return Frac(Ideal(spec, gens), t, ideals.nzd_status(t))
        return integral(Ideal(spec, [t1**2, t1 * t2, t2**2, t1 * n2, t2 * n1,
                                     t1 * t, t2 * t, n1 * t, n2 * t, t**2]))
    if spec.d == 2 and spec.s == 1:
        return integral(Ideal(spec, [tau[0], norm(spec), tvar(spec, 1),
                                     tvar(spec, 2)]))
    if spec.d == 2 and spec.s == 2 and n == 2:
        t1, t2 = tvar(spec, 1), tvar(spec, 2)
        small = Ideal(spec, [*tau, t1, t2])
        big = Ideal(spec, [*tau, norm(spec, [1]), norm(spec, [2]), t1, t2])
        rhs = ideals.ideal_sum(ideals.ideal_mul(small, ideals.ideal_pow(big, 2)),
                               ideals.ideal_pow(Ideal(spec, [norm(spec)]), 2))
        return integral(rhs)
    return None


def shift_digest(value) -> str:
    """Digest of the Howell rows of the numerator and the denominator."""
    h = hashlib.sha256()
    for row in value.numerator.canonical.rows:
        h.update((",".join(str(int(x)) for x in row) + ";").encode())
    h.update(("/" + ",".join(str(int(x)) for x in value.denominator.coeffs)).encode())
    return h.hexdigest()[:16]


class ShiftLadder:
    """The rung list in ``RUNGS`` with seeded generator powers and factor
    orders, which must leave every value unchanged."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.requests = []
        self.names = []
        for orders, d, k, N, n in RUNGS:
            spec = GroupRingSpec(3, k, orders, d, N)
            powers = tuple(int(rng.choice(_units(m))) for m in orders)
            order = tuple(int(i) + 1 for i in rng.permutation(len(orders)))
            self.requests.append(ShiftRequest(spec, n, powers, order))
            self.names.append(rung_name(orders, d, k, N, n))
        self.reference = None

    def specs(self):
        out = []
        for req in self.requests:
            s = req.spec
            out += [s, GroupRingSpec(s.p, s.k, s.orders, s.d - 1, s.N)]
        return out

    def run_pass(self) -> list[ItemResult]:
        out = []
        for name, req in zip(self.names, self.requests):
            t0 = time.perf_counter()
            try:
                value = shifts.shift_trivial(req)
                value.numerator.canonical
            except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
                out.append(ItemResult(name, time.perf_counter() - t0, error=repr(exc)))
                continue
            out.append(ItemResult(name, time.perf_counter() - t0, value))
        return out

    def check_pass(self, results: list[ItemResult]) -> None:
        if self.reference is None:
            self.reference = json.loads(SHIFT_DIGESTS.read_text())
        for r, req in zip(results, self.requests):
            if r.error is not None:
                continue
            digest = shift_digest(r.value)
            r.ok = digest == self.reference.get(r.name)
            r.verdict = f"digest {digest}"
            r.precision = req.spec.N - r.value.denominator.t_degree()
            expected = _closed_form(req.spec, req.n)
            if expected is not None:
                ok, r.verdict, r.precision = _equal_ok(ideals.frac_equal(r.value, expected))
                r.ok = r.ok and ok


# --------------------------------------------------------------------------
# cli-session: a generated session script fed to iwafit.cli.run_session

SESSION_ORDERS = (3, 9)
SESSION_N = 6
SESSION_KS = (4, 21)  # int64 residues, then Python-int residues
# The Python-int block stops after the cache-hit commands: each further
# Python-int canonicalisation costs about a second whose speed drifts with
# the host far more than the int64 work does, and the Python-int Howell path
# is already timed on every pass by this block and by a shift-ladder rung.
FULL_BLOCK_K = 4


def generators_digest(generators: list[str]) -> str:
    return hashlib.sha256(json.dumps(generators).encode()).hexdigest()[:16]


def _unit(rng, k: int) -> int:
    """A random unit modulo 3^k."""
    return int(rng.choice(_units(3))) + 3 * int(rng.integers(0, 3 ** (k - 1)))


def dense_element_text(rng, scale: int, k: int) -> str:
    """``scale`` times a random element in the maximal ideal, every tau/T
    monomial present with a unit coefficient, written in the printer's term
    order so it must print back verbatim."""
    mod = 3**k
    monomials = sorted(itertools.product(*(range(m) for m in SESSION_ORDERS),
                                         range(SESSION_N)),
                       key=lambda e: (sum(e), e))
    terms = []
    for exps in monomials[1:]:
        c = _unit(rng, k) * scale % mod
        factors = [f"tau{i + 1}" + (f"^{a}" if a > 1 else "")
                   for i, a in enumerate(exps[:-1]) if a]
        if exps[-1]:
            factors.append("t1" + (f"^{exps[-1]}" if exps[-1] > 1 else ""))
        body = "*".join(factors)
        terms.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(terms)


class CliSession:
    """``verify-paper``, then one block of commands per residue width; the
    Python-int block is cut short (see ``FULL_BLOCK_K``).

    The two elements of a block are fixed random elements, each times a
    unit drawn from the seed.  The seed so changes every coefficient the
    session parses, but not the ideal they generate: from one random pair
    to the next, the Howell form of that ideal changes its number of
    non-unit pivots and of non-zero entries by up to a factor of two, and
    with them the canonicalisation and printing time of the pass.

    Each command is an item with a verdict known by construction; ``expect``
    holds (verdict, certified precision, generator check) per command, where
    the generator check is None, a literal list, the index of an earlier
    command whose generators must be reproduced, "report" (the stored
    ``verify-paper`` report) or "digest" (the stored digest of the
    seed-independent ``shift-trivial`` generators).
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        base = np.random.default_rng(3)  # the same elements for every seed
        self.lines, self.names, self.expect = [], [], []

        def add(name, line, verdict, precision, gens=None):
            self.names.append(name)
            self.lines.append(line)
            self.expect.append((verdict, precision, gens))
            return len(self.lines) - 1

        add("cli-verify-paper", "verify-paper", "pass", 6, "report")
        orders = ",".join(map(str, SESSION_ORDERS))
        for k in SESSION_KS:
            a, b = (dense_element_text(base, _unit(rng, k), k) for _ in range(2))
            tag = f"cli-k{k}"
            add(f"{tag}-spec", f"spec p=3 k={k} N={SESSION_N} orders={orders} d=1",
                "ok", None)
            add(f"{tag}-let-element", f"let A = {a}", "ok", None, [a])
            ideal = add(f"{tag}-let-ideal", f"let I = ({a}, {b})", "ok", None)
            add(f"{tag}-canon", "canon I", "ok", SESSION_N, ideal)
            add(f"{tag}-ideal-eq-self", "ideal-eq I I", "equal", SESSION_N)
            if k != FULL_BLOCK_K:
                continue
            add(f"{tag}-ideal-eq-unit", f"ideal-eq I ({a}, {b}, 1)", "unequal", None)
            add(f"{tag}-frac-eq", f"frac-eq (({a})*t1, ({b})*t1)/t1 I",
                "equal", SESSION_N - 1)
            add(f"{tag}-fitting", f"fitting [[{a}, {b}]]", "ok", SESSION_N, ideal)
            add(f"{tag}-shift-trivial", "shift-trivial 2", "denominator t1", SESSION_N,
                "digest")
        self.report = self.digests = None

    def specs(self):
        return [GroupRingSpec(3, k, SESSION_ORDERS, d, SESSION_N)
                for k in SESSION_KS for d in (0, 1)]

    def run_pass(self) -> list[ItemResult]:
        sink = _TimedSink()
        t0 = time.perf_counter()
        sink.stamps.append(t0)
        try:
            cli.run_session(self.lines, cli.Session(), sink)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
            error = repr(exc)
        out = []
        for i, name in enumerate(self.names):
            if i < len(sink.docs):
                out.append(ItemResult(name, sink.stamps[i + 1] - sink.stamps[i],
                                      sink.docs[i]))
            else:
                out.append(ItemResult(name, 0.0, error=error or "session stopped"))
        return out

    def check_pass(self, results: list[ItemResult]) -> None:
        if self.report is None:
            self.report = VERIFY_PAPER_REPORT.read_text()
            self.digests = json.loads(CLI_DIGESTS.read_text())
        for r, (verdict, precision, gens) in zip(results, self.expect):
            if r.error is not None:
                continue
            doc = json.loads(r.value)
            r.verdict, r.precision = doc["verdict"], doc["certified_precision"]
            # Expected "equal" verdicts all carry a positive precision, so an
            # equal verdict at precision <= 0 fails here.
            ok = (r.verdict, r.precision) == (verdict, precision)
            got = doc["canonical_generators"]
            if gens == "report":
                ok = ok and "\n".join(got) + "\n" == self.report
            elif gens == "digest":
                ok = ok and generators_digest(got) == self.digests.get(r.name)
            elif isinstance(gens, list):
                ok = ok and got == gens
            elif isinstance(gens, int):
                other = results[gens]
                ok = ok and other.error is None and \
                    got == json.loads(other.value)["canonical_generators"]
            r.ok = ok


class _TimedSink(io.TextIOBase):
    """Output stream for run_session that stamps the end of every document."""

    def __init__(self):
        self.docs, self.stamps, self._buf = [], [], []

    def write(self, text):
        self._buf.append(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
            self.docs.append("".join(self._buf))
            self._buf = []
        return len(text)


def make(name: str, seed: int):
    return {"euler-grid": EulerGrid, "shift-ladder": ShiftLadder,
            "cli-session": CliSession}[name](seed)
