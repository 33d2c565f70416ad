"""Seeded input generators, the timed operation and the output check of
each workload.

A workload produces its inputs in rounds.  Every round has the same
composition (sizes, kinds, boxes and slices), so a run that measures whole
rounds measures the same mix whatever the seed; the seed only changes the
random draws inside each slot.  ompkit receives nothing but the generated
objects (or, for ``family_cli``, the files written from them).

Each workload class has the same shape:

* the constructor ``(ok, rng, workdir)`` takes the ompkit package, the
  seeded generator and a work directory (``family_cli`` writes its
  files there);
* ``round(r)``: the list of :class:`Item` of round ``r``, generated outside
  the timed region;
* ``warmup_items()``: small inputs run once, untimed, during set-up;
* ``call(item)``: the timed operation; it returns the output, or raises;
* ``failure(output)``: an error label for an output that signals failure
  (only the CLI has one: a non-zero exit code), else None;
* ``check(item, output)``: the independent verification of an output,
  returning None when it holds and a reason when it does not;
* ``probe_items()``: inputs of a known defect of the library, run untimed
  once the measured stream has ended (see :class:`Workload`).

The measured stream holds only inputs on which the library is expected to
succeed, so that every timed operation counts: a failure in it is a new
defect, not noise.  The inputs of the defects known when the benchmark was
written are kept out of the stream by a rule about the input, and each
run still attempts a fixed number of them as probes; ``defect_ops`` and
``defects`` count what the probes (and the admission of ``solve_mixed``)
met, so a fix shows there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import signal
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import verify

DEGENERATE_KINDS = (
    "duplicate",
    "cocircular",
    "antipodal",
    "tiny_prior",
    "mixed_member",
    "dominant_prior",
)


class OpTimeout(Exception):
    """An operation ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`OpTimeout` in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise OpTimeout(f"operation still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Item:
    """One operation's input, the properties recorded about it, its group
    label (the box of a ``family_cli`` op) and what its check needs."""

    args: tuple
    props: dict = field(default_factory=dict)
    group: str = ""
    expect: tuple = ()


def unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def circle_frame(rng):
    """Two orthonormal vectors spanning a random plane through the origin."""
    a = unit_vectors(rng, 1)[0]
    u = np.cross(a, unit_vectors(rng, 1)[0])
    u /= np.linalg.norm(u)
    return a, u, np.cross(a, u)


def random_states(rng, n: int, pure: bool):
    """Dirichlet priors and Bloch vectors; mixed states have norms in [0.2, 1]."""
    v = unit_vectors(rng, n)
    if not pure:
        v = v * rng.uniform(0.2, 1.0, size=(n, 1))
    return rng.dirichlet(np.ones(n)), v


def equal_prior_states(rng, n: int):
    """Equal priors and mixed states as :func:`random_states` draws them."""
    return np.full(n, 1.0 / n), random_states(rng, n, pure=False)[1]


def degenerate_states(rng, kind: str):
    """A small ensemble (n <= 8) with one of the degeneracies of
    ``DEGENERATE_KINDS``."""
    n = int(rng.integers(3, 9))
    q, v = random_states(rng, n, pure=True)
    if kind == "duplicate":
        v[-1] = v[0]
    elif kind == "cocircular":
        a, u, w = circle_frame(rng)
        c = rng.uniform(-0.8, 0.8)
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        v = c * a + math.sqrt(1.0 - c * c) * (
            np.cos(th)[:, None] * u + np.sin(th)[:, None] * w
        )
    elif kind == "antipodal":
        v[1] = -v[0] + 1e-7 * rng.normal(size=3)
        v[1] /= np.linalg.norm(v[1])
    elif kind == "tiny_prior":
        q = np.concatenate([[1e-7], (1.0 - 1e-7) * rng.dirichlet(np.ones(n - 1))])
    elif kind == "mixed_member":
        v[0] = 0.0
    elif kind == "dominant_prior":
        q = np.concatenate([[0.9], 0.1 * rng.dirichlet(np.ones(n - 1))])
    else:
        raise ValueError(f"unknown degeneracy {kind!r}")
    return q, v


def polyhedron(name: str) -> np.ndarray:
    if name == "octahedron":
        e = np.eye(3)
        return np.vstack([e, -e])
    if name == "cube":
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
        return signs / math.sqrt(3.0)
    if name == "icosahedron":
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        base = [(0.0, s1, s2 * phi) for s1 in (-1, 1) for s2 in (-1, 1)]
        pts = [np.roll(p, shift) for p in base for shift in range(3)]
        pts = np.array(pts)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    raise ValueError(f"unknown polyhedron {name!r}")


def stinespring_channel(rng, env_dim: int = 2):
    """A random CPTP map ``rho -> Tr_env(V rho V^dag)`` in Bloch form ``(D, t)``.

    V is an isometry from a Haar-like QR draw, so the map is completely
    positive and trace preserving by construction, without any CPTP test.
    """
    g = rng.normal(size=(2 * env_dim, 2)) + 1j * rng.normal(size=(2 * env_dim, 2))
    iso, _ = np.linalg.qr(g)
    w = iso.reshape(2, env_dim, 2)

    def bloch_out(bloch_in):
        rho = 0.5 * (verify.I2 + np.einsum("k,kij->ij", bloch_in, verify.PAULI))
        out = np.einsum("aei,ij,bej->ab", w, rho, w.conj())
        return np.einsum("kij,ji->k", verify.PAULI, out).real

    shift = bloch_out(np.zeros(3))
    cols = [bloch_out(e) - shift for e in np.eye(3)]
    return np.column_stack(cols), shift


def ensemble_from(ok, q, v):
    return ok.make_ensemble(list(zip(q, v)))


def solved(ok, ens):
    """The solution of a candidate input, or None when the solver fails.

    Inputs of ``check_stream`` and ``family_cli`` must identify a given
    number of states, which only a solution can tell; a candidate without
    one is drawn again.  Solver failures on random inputs are measured by
    ``solve_mixed``.
    """
    try:
        return ok.solve(ens)
    except ok.OmpkitError:
        return None


def attempt(wl, item, seconds: float):
    """Run ``item`` once, untimed, within ``seconds``.

    Returns None when the output is good, else a label: the exception class,
    the CLI's ``exit<code>``, or ``wrong`` when the output fails its check.
    """
    try:
        with time_limit(seconds):
            output = wl.call(item)
        label = wl.failure(output)
        if label is None and wl.check(item, output) is not None:
            label = "wrong"
    except Exception as exc:  # a failure is the answer here
        label = type(exc).__name__
    return label


class Workload:
    """What the workloads share: the known-defect inputs tried outside the
    measured stream (``defect_ops``) and the labels of those that failed."""

    def __init__(self, ok, rng, workdir: Path):
        self.ok, self.rng, self.dir = ok, rng, workdir
        self.defect_ops = 0
        self.defects = Counter()

    def probe_items(self) -> list:
        return []

    def probe(self, item, seconds: float) -> bool:
        """Attempt ``item`` untimed and count it; True when it succeeded."""
        label = attempt(self, item, seconds)
        self.defect_ops += 1
        if label is not None:
            self.defects[label] += 1
        return label is None

    def failure(self, output):
        return None


class SolveMixed(Workload):
    """``solve(ens)`` on random ensembles with n log-uniform in [3, 1024].

    A round is 16 random ensembles, one n per stratum of the log-uniform
    law, alternately pure and mixed, plus 4 degenerate ones (n <= 8) cycling
    through ``DEGENERATE_KINDS``.

    Every input is solved once, untimed, when it is drawn.  One that raises,
    fails its check or runs past ``admit_s`` is set aside, counted as a
    known defect, and its slot is drawn again: when this was written roughly one input
    in a few thousand, all with n near 1000, keeps some 30 or more
    candidates after pruning, and the search over their subsets of up to
    four runs for seconds to minutes.
    """

    strata = 16
    degenerate_per_round = 4
    admit_s = 1.5

    def _admitted(self, draw):
        """The first item from ``draw()`` that passes admission."""
        while True:
            item = draw()
            if self.probe(item, self.admit_s):
                return item

    def _random(self, j: int) -> Item:
        rng, lo, hi = self.rng, math.log(3), math.log(1024)
        u = (j + rng.uniform()) / self.strata
        n = int(round(math.exp(lo + u * (hi - lo))))
        q, v = random_states(rng, n, pure=j % 2 == 0)
        return Item((ensemble_from(self.ok, q, v),), {"n": n, "degenerate": "none"})

    def _degenerate(self, kind: str) -> Item:
        q, v = degenerate_states(self.rng, kind)
        return Item((ensemble_from(self.ok, q, v),), {"n": len(q), "degenerate": kind})

    def round(self, r: int) -> list:
        items = [self._admitted(lambda: self._random(j)) for j in range(self.strata)]
        for j in range(self.degenerate_per_round):
            kind = DEGENERATE_KINDS[(r * self.degenerate_per_round + j) % len(DEGENERATE_KINDS)]
            items.append(self._admitted(lambda: self._degenerate(kind)))
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]

    def warmup_items(self) -> list:
        q, v = random_states(self.rng, 4, pure=True)
        return [Item((ensemble_from(self.ok, q, v),))]

    def call(self, item):
        return self.ok.solve(*item.args)

    def check(self, item, sol):
        item.props["k"] = len(sol.identified)
        return verify.solution(item.args[0], sol)


class SolveSymmetric(SolveMixed):
    """``solve(ens)`` on equiprobable symmetric ensembles that identify many
    states.

    A round holds 39 ensembles: regular k-gons on random great circles, pure
    and uniformly shrunk in turn, and the octahedron, cube and icosahedron in
    a random orientation.  The counts put each reported percentile inside a
    group of equal cost, not on the edge between two: the cheap k = 5, 6 and
    octahedron ops are 27 of 39, so the median is one of them, and the
    k = 12 group (three 12-gons and the icosahedron) holds the 90th
    percentile, with only k = 13 and 14 above.

    k-gons with k in 17..24 make ``solve`` raise ``InfeasibleCompleteness``
    when this was written (the weight search stops at 16 identified states); they are
    the probes, one of each k per run.
    """

    kgon_counts = {5: 13, 6: 13, 7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 3, 13: 1, 14: 1}
    solids = ("octahedron", "cube", "icosahedron")

    def _kgon(self, k: int, pure: bool, slot: str):
        rng = self.rng
        _, u, w = circle_frame(rng)
        radius = 1.0 if pure else rng.uniform(0.3, 0.95)
        th = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(k) / k
        v = radius * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * w)
        return Item((ensemble_from(self.ok, np.full(k, 1.0 / k), v),), {"n": k, "shape": slot})

    def round(self, r: int) -> list:
        rng = self.rng
        items = []
        slot = 0
        for k, count in self.kgon_counts.items():
            for _ in range(count):
                items.append(self._kgon(k, (slot + r) % 2 == 0, "kgon"))
                slot += 1
        for name in self.solids:
            v = polyhedron(name) @ random_rotation(rng).T
            n = len(v)
            items.append(
                Item((ensemble_from(self.ok, np.full(n, 1.0 / n), v),), {"n": n, "shape": name})
            )
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def warmup_items(self) -> list:
        return [self._kgon(5, True, "kgon")]

    def probe_items(self) -> list:
        return [self._kgon(k, k % 2 == 0, "kgon_17_24") for k in range(17, 25)]


CHANNEL_KINDS = ("depolarizing", "rotation", "pair_rotation", "stinespring")


class CheckStream(Workload):
    """``check_omp(ens, channel)`` with no solution passed, as the ``check``
    subcommand calls it.

    Ensembles are random (n in 3..8, pure and mixed in turn) with at least
    two identified states.  A round has two channels of each kind in
    ``CHANNEL_KINDS``; ``pair_rotation`` rotates about the measurement axis of
    an ensemble that identifies exactly two states, so it preserves the
    measurement.

    The depolarizing channels act on ensembles of mixed states with equal
    priors and at most four identified states (as random ones with unequal
    priors mostly have; more would make ``povm_weights`` the cost, and pure
    equal-prior ensembles mostly have more).  With equal priors the
    dual optimum maps to ``(1 - eta) K + eta I / 2n`` and every gap operator
    is scaled by ``1 - eta``, so the measurement is preserved and the verdict
    is positive.  With unequal priors and a state left out of the
    measurement, ``check_omp`` can call a channel preserving when the
    re-solve disagrees (``ConsistencyError``, or a preserved measurement
    just below the new optimum): the probes are such cases.  The other kinds
    give negative verdicts, or, for ``pair_rotation``, a unitary and hence
    exact one, whatever the priors.
    """

    probes = 256

    def __init__(self, ok, rng, workdir: Path):
        super().__init__(ok, rng, workdir)
        self.count = 0

    def _ensemble(self, states, accept):
        """Draw until ``accept(n, k)`` holds for the ensemble's size n and
        identified count k.  The solution is kept for the verification."""
        while True:
            n = int(self.rng.integers(3, 9))
            q, v = states(self.rng, n)
            ens = ensemble_from(self.ok, q, v)
            sol = solved(self.ok, ens)
            if sol is not None and accept(n, len(sol.identified)):
                return ens, sol

    def _item(self, kind: str, probe: bool = False) -> Item:
        ok, rng = self.ok, self.rng
        if kind == "depolarizing" and not probe:
            states = equal_prior_states
        else:
            states = lambda rng, n: random_states(rng, n, pure=self.count % 2 == 0)
        if probe:
            accept = lambda n, k: 2 <= k < n
        elif kind == "depolarizing":
            accept = lambda n, k: 2 <= k <= 4
        elif kind == "pair_rotation":
            accept = lambda n, k: k == 2
        else:
            accept = lambda n, k: k >= 2
        ens, sol = self._ensemble(states, accept)
        self.count += 1
        if kind == "depolarizing":
            channel = ok.depolarizing_channel(rng.uniform(0.0, 0.3))
        elif kind == "rotation":
            channel = ok.unitary_channel(unit_vectors(rng, 1)[0], rng.uniform(0.0, 2.0 * np.pi))
        elif kind == "pair_rotation":
            axis = sol.comp_states[sol.identified[0]]
            axis = axis / np.linalg.norm(axis)
            channel = ok.unitary_channel(axis, rng.uniform(0.0, 2.0 * np.pi))
        else:
            channel = ok.QubitChannel(*stinespring_channel(rng))
        priors = "equal" if states is equal_prior_states else "dirichlet"
        props = {"n": ens.n, "k": len(sol.identified), "channel": kind, "priors": priors}
        return Item((ens, channel), props, kind, (sol,))

    def round(self, r: int) -> list:
        items = [self._item(kind) for kind in CHANNEL_KINDS * 2]
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]

    def warmup_items(self) -> list:
        return self.round(-1)[:2]

    def probe_items(self) -> list:
        return [self._item("depolarizing", probe=True) for _ in range(self.probes)]

    def call(self, item):
        return self.ok.check_omp(*item.args)

    def check(self, item, report):
        if not report.is_omp:
            return None
        ens, channel = item.args
        return verify.preserved_optimum(self.ok, ens, channel, item.expect[0], report)


class FamilyCli(Workload):
    """In-process ``ompkit family FILE --samples S --seed s --box B --json
    --no-timestamp --output OUT`` on ensemble files.

    The five bundled ensembles are written at set-up; each round writes
    three fresh random two-state ensembles.  Every file is run once with
    box 2.0 and once with box 0.5, and the slice (full, unital, full,
    fixed-delta) rotates over the files from round to round.

    The sieve's draws, the CLI's ``--seed`` and the fixed degradation, come
    from a generator with a fixed seed, the same in every run, so runs
    differ only in their random ensembles.  The cost of a box-0.5 op varies
    tenfold with the draws (how many members are kept and re-checked), and
    with draws taken from the run's seed the 90th percentile of a 15 s run
    moved by a third from seed to seed.

    Every ensemble identifies all its states: the bundled ones do, and so
    does a two-state ensemble unless guessing is optimal.  Then the pairwise
    conditions that ``check_omp`` tests cover every state, and a kept member
    is preserving; two states are also solved in closed form, so the
    re-check cannot miss certification.  With a state left out of the
    measurement a kept member can fail the re-check, and ``family`` exits 4;
    the probes are such files (n in 3..6), run with box 0.5.  Random files
    built to identify all of n = 3..5 states avoid that, but the re-solve of
    a kept member then sometimes finds no certified subset
    (``ConvergenceFailure``, also exit 4).
    """

    samples = 24
    random_per_round = 3
    probes = 24
    slices = ("full", "unital", "full", "delta")

    def __init__(self, ok, rng, workdir: Path):
        super().__init__(ok, rng, workdir)
        self.draws = np.random.default_rng(0)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.bundled = [
            (name,) + self._write(name, ok.bundled_ensemble(name)) for name in ok.BUNDLED_ENSEMBLES
        ]

    def _write(self, name: str, ens):
        """Write ``ens`` to ``<name>.json`` and return (path, solution)."""
        path = self.dir / f"{name}.json"
        states = [{"q": float(q), "bloch": [float(x) for x in v]} for q, v in zip(ens.priors, ens.blochs)]
        path.write_text(json.dumps({"states": states}), encoding="utf-8")
        return path, solved(self.ok, ens)

    def _random_file(self, name: str, probe: bool):
        """A random ensemble file: two identified states, or, for a probe,
        at least two identified and at least one left out."""
        while True:
            n = int(self.rng.integers(3, 7)) if probe else 2
            q, v = random_states(self.rng, n, pure=self.rng.uniform() < 0.5)
            path, sol = self._write(name, ensemble_from(self.ok, q, v))
            k = len(sol.identified) if sol is not None else 0
            if (2 <= k < n) if probe else k == n:
                return ("random", path, sol)

    def _items(self, files, r: int, samples: int, boxes=(2.0, 0.5)) -> list:
        items = []
        for j, (name, path, sol) in enumerate(files):
            slice_name = self.slices[(j + r) % len(self.slices)]
            min_gap = float(np.min(sol.gaps[list(sol.identified)]))
            for box in boxes:
                out = self.dir / f"out{len(items)}.json"
                argv = ["family", str(path), "--samples", str(samples),
                        "--seed", str(int(self.draws.integers(0, 2**31))), "--box", repr(box),
                        "--json", "--no-timestamp", "--output", str(out)]
                fixed = None
                if slice_name == "unital":
                    argv.append("--unital")
                elif slice_name == "delta":
                    fixed = float(self.draws.uniform(0.05, 0.5)) * min_gap
                    argv += ["--fixed-delta", repr(fixed)]
                props = {"n": len(sol.gaps), "k": len(sol.identified), "ensemble": name,
                         "box": box, "slice": slice_name}
                group = "box2" if box == 2.0 else "box05"
                items.append(Item((argv,), props, group, (out, sol, slice_name, fixed)))
        return items

    def round(self, r: int) -> list:
        files = [self._random_file(f"random{j}", False) for j in range(self.random_per_round)]
        return self._items(self.bundled + files, r, self.samples)

    def warmup_items(self) -> list:
        return self._items(self.bundled[1:2], 0, 4)

    def probe_items(self) -> list:
        files = [self._random_file(f"probe{j}", True) for j in range(self.probes)]
        return self._items(files, 0, self.samples, boxes=(0.5,))

    def call(self, item):
        # the CLI reports failures on stderr; the exit code is what is counted
        with contextlib.redirect_stderr(io.StringIO()):
            return self.ok.cli.main(item.args[0])

    def failure(self, code):
        return None if code == 0 else f"exit{code}"

    def check(self, item, code):
        out, sol, slice_name, fixed = item.expect
        try:
            return verify.family_report(out, sol, slice_name, fixed)
        finally:
            out.unlink(missing_ok=True)


WORKLOADS = {
    "solve_mixed": SolveMixed,
    "solve_symmetric": SolveSymmetric,
    "check_stream": CheckStream,
    "family_cli": FamilyCli,
}
