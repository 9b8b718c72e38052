"""Enlarging the information flow: drift operators, deflators, the drift
multiplier construction, and covariance-kernel certificates.

Every martingale for the base flow becomes, under a refining flow, a
martingale plus a predictable drift; everything here either computes that
drift, represents it through a fixed pair (N, phi), or tests whether
strictly positive prices survive the extra information.

The representation side comes from the base flow alone, so the multiplier
and kernel checks build it once per ReconstructedBasis and keep it there:
the multiplier's frames, N and the base-flow brackets [N, X2_h]^p, kept as
their conditional increments on each base node, the covariance frame C, J
and kernel of each time and one-step law, on int numerators, shared by
every witness with that law, and the test that gives M = M J C on every
larger-flow atom. Per enlargement only what the larger flow changes runs:
phi, one int cell per larger-flow atom built from its class masses and the
frame, and the drift identities, each tested per conditioning atom on int
numerators, every component in one pass, with no process built.

The deflator search solves each conditioning atom's one-period program in
closed form on the successors' int masses and the numerators of the
price's int increment slice; its y cells are ints, multiplied into the
deflator without a Fraction, and each audit record builds its Fraction
views (weights, moves, floor, solution) only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .calculus import (
    Process,
    _lifted,
    _products,
    dot_integral,
    dual_predictable_projection,
    predictable_bracket,
    star_integral,
)
from .errors import (
    DegeneratePartition,
    DimensionMismatch,
    NotADeflator,
    NotIncreasing,
    NotPredictable,
    NotStrictlyPositive,
)
from .linalg import null_space
from .rationals import gathered, over_lcm, to_fraction
from .representation import _require_representable
from .tree import _flow_on, _means, as_filtration

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class DriftResult:
    """Predictable drift of a base-flow martingale under the larger flow,
    with the remaining martingale part."""
    drift: Process
    g_martingale: Process


def drift_operator(x: Process, enlargement_like) -> DriftResult:
    """Drift increment E[delta X | larger flow at t-1]; X minus it is a
    martingale for the larger flow."""
    filtration = as_filtration(enlargement_like)
    x.require_martingale(x.tree, what="drift input")
    return _drift(x, filtration)


def _drift(x: Process, filtration) -> DriftResult:
    """drift_operator on an input known to be a base-flow martingale."""
    drift = dual_predictable_projection(x, filtration)
    return DriftResult(drift=drift, g_martingale=x - drift)


def doleans_exponential(a, x: Process) -> Process:
    """Pathwise product of (1 + a * delta X), started at 1."""
    if x.dim != 1:
        raise DimensionMismatch("exponentials take scalar processes")
    num, den = to_fraction(a).as_integer_ratio()

    def factors(t):
        # 1 + a * Delta X over den * (Delta X's denominator)
        part, step, incs = x._delta(t)
        scale = den * step
        return part, scale, tuple((scale + num * c,) for (c,) in incs)

    return Process._accumulate(x.tree, (1,), factors, product=True)


@dataclass(frozen=True)
class Deflator:
    """Strictly positive process making itself and price * itself
    martingales under the larger flow."""
    process: Process
    target: Process


@dataclass(frozen=True)
class AtomAudit:
    """One conditioning atom's pricing system and its optimal reweighting,
    held on ints: the successors' int masses over the atom's mass, their
    price moves as numerators over den, and the floor and every y_i as an
    int cell (num, den), None when infeasible. weights, price_moves, floor
    and solution are their Fraction views, built when read."""
    time: int
    atom: str
    subatoms: tuple
    status: str
    separating: object
    mass: int
    masses: tuple
    den: int
    moves: tuple
    floor_cell: tuple | None
    cells: tuple | None

    @property
    def weights(self) -> tuple:
        return tuple([Fraction(w, self.mass) for w in self.masses])

    @property
    def price_moves(self) -> tuple:
        return tuple([Fraction(n, self.den) for n in self.moves])

    @property
    def floor(self):
        return None if self.floor_cell is None else Fraction(*self.floor_cell)

    @property
    def solution(self):
        return None if self.cells is None else tuple(
            [Fraction(*cell) for cell in self.cells])


@dataclass(frozen=True)
class DeflatorSearch:
    feasible: bool
    deflator: Deflator | None
    violations: tuple
    audit: tuple


def _require_positive(s: Process, what: str):
    if any(c <= 0 for nums in s.nums for cell in nums for c in cell):
        raise NotStrictlyPositive(f"{what} must stay strictly positive")


def _one_period(mass, masses, moves):
    """Maximize the floor min y over y >= 0 with q.y = 1 and q.(y v) = 0,
    for q_i = masses[i] / mass and v_i = moves[i] over any one positive
    denominator.

    This is the finite one-period FTAP (Harrison and Pliska 1981; Dalang,
    Morton and Willinger 1990) in closed form, on ints. With m = sum
    masses[i] moves[i] and e the extreme move on the far side of zero from
    m, the optimum is the floor e W / (e W - m), W = mass, on every
    successor, plus the remaining mass (1 - floor) / q_k on the first
    successor k whose move is e. No such y exists when every move lies
    strictly on m's side. Returns (status, floor, y), the floor and each y_i
    as a reduced int cell (num, den) with den > 0, both None when infeasible.
    """
    m = sum(map(mul, masses, moves))
    if not m:
        return OPTIMAL, (1, 1), ((1, 1),) * len(moves)
    e = min(moves) if m > 0 else max(moves)
    if e * m > 0:
        return INFEASIBLE, None, None
    top, bottom = e * mass, e * mass - m  # bottom is nonzero, of m's other sign
    if bottom < 0:
        top, bottom = -top, -bottom
    k = moves.index(e)
    w = masses[k]
    floor = _cell(top, bottom)
    y = [floor] * len(moves)
    y[k] = _cell(top * w + (bottom - top) * mass, w * bottom)
    return OPTIMAL, floor, tuple(y)


def _cell(num, den):
    g = gcd(num, den)
    return num // g, den // g


def find_deflator(s: Process, enlargement_like) -> DeflatorSearch:
    """Search for per-atom positive reweightings that keep the price fair.

    Per conditioning atom: find y_i > 0 over the successor atoms with
    sum q_i y_i = 1 and sum q_i y_i S_i = S_previous, maximizing the floor
    min y_i in closed form. An atom fails when the optimum is not strictly
    positive (or the equalities admit no nonnegative solution); every
    failing atom is reported, with a sign vector separating the price moves
    from zero as the witness.

    The program runs on ints: q_i is the sub's int mass from the atom
    index over the atom's, and its move the numerator of Delta S_t's int
    slice. Each y_i is an int cell, and the deflator is their running
    product; the audit's Fraction views are built only when read.
    """
    if s.dim != 1:
        raise DimensionMismatch("deflator targets are scalar prices")
    filtration = _flow_on(s.tree, enlargement_like)
    tree = s.tree
    _require_positive(s, "price")
    s.require_martingale(tree, what="price")

    audit = []
    violations = []
    rows = [None]  # rows[t]: each time-t atom's y cell
    for t in range(1, tree.horizon + 1):
        children = filtration.parts[t]
        row = [None] * len(children.atoms)
        # S is base-adapted, so Delta S_t is constant on each sub: its move
        part, den, incs = s._delta(t)
        block_of = part.block_of
        for atom in filtration.atoms(t - 1):
            pieces = children.pieces(atom)  # the atoms inside it at t
            subs = [children.atoms[k] for k, _ in pieces]
            masses = tuple([w for _, w in pieces])
            moves = tuple([incs[block_of[sub.leaves[0]]][0] for sub in subs])
            status, floor, cells = _one_period(atom.mass, masses, moves)

            ok = status == OPTIMAL and floor[0] > 0
            separating = None
            if not ok:
                # one-dimensional separation: the moves all lie weakly on
                # one side of zero, strictly somewhere
                if all(v >= 0 for v in moves):
                    separating = 1
                elif all(v <= 0 for v in moves):
                    separating = -1
            record = AtomAudit(
                time=t, atom=atom.label,
                subatoms=tuple([sub.label for sub in subs]),
                status=status, separating=separating, mass=atom.mass,
                masses=masses, den=den, moves=moves, floor_cell=floor,
                cells=cells)
            audit.append(record)
            if ok:
                for (k, _), cell in zip(pieces, cells):
                    row[k] = cell
            else:
                violations.append(record)
        rows.append(row)

    if violations:
        return DeflatorSearch(feasible=False, deflator=None,
                              violations=tuple(violations), audit=tuple(audit))

    def factors(t):
        den, nums = over_lcm(rows[t])
        return filtration.parts[t], den, tuple([(n,) for n in nums])

    product = Process._accumulate(tree, (1,), factors, product=True)
    deflator = Deflator(process=product, target=s)
    return DeflatorSearch(feasible=True, deflator=deflator,
                          violations=(), audit=tuple(audit))


@dataclass(frozen=True)
class ViabilityReport:
    """Family-relative verdict: a failure refutes viability outright, while
    an all-pass certifies it for the tested family only."""
    viable: bool
    results: tuple


def check_full_viability(enlargement_like, family) -> ViabilityReport:
    results = []
    viable = True
    for entry in family:
        if isinstance(entry, tuple):
            name, process = entry
        else:
            name, process = repr(entry), entry
        search = find_deflator(process, enlargement_like)
        results.append((name, search))
        if not search.feasible:
            viable = False
    return ViabilityReport(viable=viable, results=tuple(results))


def max_abs_increment(x: Process) -> Fraction:
    best = ZERO
    for t in range(1, x.tree.horizon + 1):
        _, den, incs = x._delta(t)
        best = max(best, Fraction(max((abs(c) for inc in incs for c in inc),
                                      default=0), den))
    return best


def default_viability_family(w: Process):
    """Small exponential grid around each component of the driver.

    Factors 1 + a * delta W stay in [1/4, 7/4] by the choice of a, so every
    member is a strictly positive martingale.
    """
    family = []
    for k in range(w.dim):
        component = w.component(k)
        bound = max_abs_increment(component)
        if bound == 0:
            continue
        for a in (Fraction(1, 2) / bound, Fraction(-1, 2) / bound,
                  Fraction(3, 4) / bound, Fraction(-3, 4) / bound):
            family.append((f"exp[{k}]*{a}",
                           doleans_exponential(a, component)))
    return family


def verify_fbd(x: Process, deflator: Deflator, enlargement_like) -> bool:
    """Drift of X against minus the deflator-weighted predictable bracket.

    Exact identity: drift(X) = -(1 / Y_prev) . [Y, X]^p under the larger
    flow, for any deflator Y of a price driven by X.
    """
    filtration = as_filtration(enlargement_like)
    y = deflator.process
    _require_positive(y, "deflator")
    if any(cell[0] != y.dens[0] for cell in y.nums[0]):
        raise NotADeflator("deflator must start at 1")
    if not y.is_martingale(filtration):
        raise NotADeflator("deflator is not a martingale for the larger flow")
    if y.dim != 1 or deflator.target.dim != 1:
        raise DimensionMismatch("pathwise products take scalar processes")
    priced = y._times(deflator.target)
    if not priced.is_martingale(filtration):
        raise NotADeflator("deflated price is not a martingale")

    drift = drift_operator(x, filtration).drift
    bracket_p = predictable_bracket(y, x, filtration)
    rhs = dot_integral(_fbd_integrand(y, filtration), bracket_p, filtration)
    return drift == rhs


def _fbd_integrand(y: Process, filtration) -> Process:
    """-1 / Y_{t-1} on each time-(t-1) atom, for a positive Y adapted to
    the flow, so that Y_{t-1} is constant on its atoms."""
    def cell(t, atom):
        (num,) = y.nums[t - 1][y.parts[t - 1].block_of[atom.leaves[0]]]
        return num, (-y.dens[t - 1],)

    return Process._predictable(filtration, 1, cell)


def check_compensator_abs_continuity(a: Process, enlargement_like):
    """Null base-flow compensator increments stay null under the larger flow.

    Returns (True, None) or (False, (time, base atom, larger atom)); with
    every branch probability positive the scan cannot fail, and running it
    keeps that claim honest. Each compensator increment is the mean of
    Delta A_t's int slice on a base or larger atom; none is built.
    """
    if a.dim != 1:
        raise DimensionMismatch("compensator scan takes scalar processes")
    filtration = _flow_on(a.tree, enlargement_like)
    tree = a.tree
    for t in range(1, tree.horizon + 1):
        if any(inc[0] < 0 for inc in a._delta(t)[2]):
            raise NotIncreasing(f"decrement at time {t}")
    nodes = tree.base_filtration().parts
    for t in range(1, tree.horizon + 1):
        sliced, subs, atoms = a._delta(t), filtration.parts[t - 1], nodes[t - 1].atoms
        inside = subs.pieces_table(nodes[t - 1])  # the larger atoms meeting each
        for atom, (_, (mean,)) in zip(atoms, _means(atoms, *sliced)):
            if mean:
                continue
            meeting = [subs.atoms[k] for k, _ in inside[atom.index]]
            for sub, (_, (mean,)) in zip(meeting, _means(meeting, *sliced)):
                if mean:
                    return False, (t, atom.label, sub.label)
    return True, None


@dataclass(frozen=True)
class MultiplierSolution:
    n: Process
    phi: Process
    holds: bool
    basis: object


def solve_drift_multiplier(enlargement_like, basis) -> MultiplierSolution:
    """Common pair (N, phi) expressing every drift through base brackets.

    Per conditioning atom, the successor-class probabilities p give an
    orthogonal frame of the hyperplane against p; the larger flow reweights
    p to p_bar, and the coordinates of rho = (1/2^t)(p_bar/p - 1) in the
    frame (scaled by 4^t for the non-unit covariance normalization) define
    phi, built as one int cell per larger-flow atom, while the frame itself
    integrates the reconstructed family into N. The defining identity is
    verified exactly before returning, for every component in one pass. The
    frames, N and the base-flow brackets [N, X2_h]^p come from the basis
    alone and are built once per basis.
    """
    filtration = _flow_on(basis.process.tree, enlargement_like)
    slots, n, steps = basis._derived(
        "multiplier", lambda: _multiplier_frame(basis))
    base = basis.process.tree.base_filtration()
    phis = {}
    for t, row in enumerate(slots, 1):
        nodes, subs = base.parts[t], filtration.parts[t - 1]
        for node, classes, eps_den, eps_nums, norms, ratios, lead in row:
            for sub in [subs.atoms[k] for k, _ in subs.pieces(node)]:
                # class h is the time-t node classes[h]; padding is empty
                masses = {nodes.atoms[k].label: m for k, m in nodes.pieces(sub)}
                total = sub.mass
                rho = [(masses.get(label, 0) * b - total * a) * (lead // a) if a else 0
                       for (a, b), label in zip(ratios, classes)]
                rho_den = 2 ** t * total * lead
                # 4^t <rho, eps> / <eps, eps> per frame vector
                phis[(t, sub.label)] = over_lcm([
                    (4 ** t * sum(map(mul, rho, e)) * eps_den, rho_den * norm)
                    for e, norm in zip(eps_nums, norms)])

    phi = Process._predictable(filtration, basis.d,
                               lambda t, sub: phis[(t, sub.label)])
    holds = _multiplier_holds(phi, steps, basis.process, filtration)
    return MultiplierSolution(n=n, phi=phi, holds=holds, basis=basis)


def _multiplier_frame(basis):
    """The basis side of solve_drift_multiplier: per time t, per time-(t-1)
    node, (its base atom, the labels of its successor classes, frame as
    (den, nums), squared norms over den^2, p as the int ratios (m_h, M) of
    the witness's masses, lcm of the charged m_h); then N and the steps of
    the base-flow brackets [N, X2_h]^p of every component at once."""
    x2 = basis.process
    tree = x2.tree
    width = basis.d + 1
    base = tree.base_filtration()
    slots = []
    frames = [None]  # frames[t]: the frame of each time-(t-1) node
    for t in range(1, tree.horizon + 1):
        row, frame_row = [], []
        for node in base.parts[t - 1].atoms:
            wit = basis._witness(t, node.label)
            m = wit.masses
            if not any(m):
                raise DegeneratePartition(f"no mass below atom {node.label}")
            # Gram-Schmidt of (p, e_0, ..., e_d), p = m / M, in closed form: e_h
            # leaves (0, ..., 0, S_{h+1}, -m_h m_{h+1}, ..., -m_h m_d) / S_h with
            # S_h = sum_{j>=h} m_j^2, e_h where m_h = 0, none at the last charged
            last = max(h for h in range(width) if m[h])
            tails = list(accumulate(v * v for v in reversed(m)))[::-1] + [0]
            frame = eps_den, eps_nums = gathered([
                (tails[h], (0,) * h + (tails[h + 1],)
                 + tuple(-m[h] * v for v in m[h + 1:])) if m[h]
                else (1, tuple(int(g == h) for g in range(width)))
                for h in range(width) if h != last])
            frame_row.append(frame)
            norms = [sum(map(mul, e, e)) for e in eps_nums]  # over eps_den^2
            # with p_h = a_h / b_h = m_h / M and p_bar_h = m'_h / M', the target
            # (1/2^t)(p_bar_h / p_h - 1) is (m'_h b_h - M' a_h) / (2^t M' a_h),
            # held over 2^t M' L with L the lcm of the charged a_h
            ratios = [(v, wit.mass) for v in m]
            lead = lcm(*[v for v in m if v])
            row.append((node, wit.subatoms, eps_den, eps_nums, norms,
                        ratios, lead))
        slots.append(row)
        frames.append((base.parts[t - 1], None, frame_row))

    def n_increments(t):
        # the node's frame dotted with Delta X2
        delta = x2._delta(t)
        part, (frame_of, incs) = _lifted(tree, (frames[t], delta))
        return (part, *gathered([
            (den * delta[1], tuple(sum(map(mul, eps, inc)) for eps in epsilons))
            for (den, epsilons), inc in zip(frame_of, incs)]))

    n = Process._accumulate(tree, (0,) * basis.d, n_increments)
    return slots, n, _bracket_steps(n, x2)


def _bracket_steps(n, x):
    """The increments of the base-flow brackets [N_j, X_h]^p: per t >= 1,
    one cell (den, rows) per time-(t-1) node, rows[h] holding the
    conditional sums of Delta N_j Delta X_h for every j, over den."""
    tree = x.tree
    d = n.dim
    nodes = tree.base_filtration().parts
    steps = [None]
    for t in range(1, tree.horizon + 1):
        sliced = _products(tree, n._delta(t), x._delta(t),
                           lambda dn, dx: tuple([c * v for v in dx for c in dn]))
        steps.append([(scale, [sums[h:h + d] for h in range(0, len(sums), d)])
                      for scale, sums in _means(nodes[t - 1].atoms, *sliced)])
    return steps


def _multiplier_holds(phi, steps, x, filtration) -> bool:
    """The drift of X under the flow is phi . [N, X]^p, with steps the
    bracket increments from _bracket_steps(N, X).

    Both sides are null at 0 and constant on each time-(t-1) atom a of the
    flow, which lies in one base node b since the flow refines the base.
    So the identity holds iff E[Delta X_t | a] = phi_t(a) . E[Delta N_t
    Delta X_t | b] for every t, a and component of X: one conditional mean
    per atom, from one _means pass per time, and one cross-multiplied
    compare per component.
    """
    tree = x.tree
    nodes = tree.base_filtration().parts
    for t in range(1, tree.horizon + 1):
        subs = filtration.parts[t - 1]
        phi_of, phi_den, phi_nums = phi.parts[t].block_of, phi.dens[t], phi.nums[t]
        drifts = _means(subs.atoms, *x._delta(t))  # (scale, sums) per atom
        for sub, k, (right, sums) in zip(subs.atoms, subs.index_in(nodes[t - 1]),
                                         drifts):
            coeffs = phi_nums[phi_of[sub.leaves[0]]]
            step_den, rows = steps[t][k]
            left = phi_den * step_den
            if any(s * left != right * sum(map(mul, coeffs, row))
                   for s, row in zip(sums, rows)):
                return False
    return True


def verify_drift_multiplier(solution: MultiplierSolution, x: Process,
                            enlargement_like) -> bool:
    """Check the multiplier identity for an arbitrary representable input.

    The input is first represented against the solution's basis, so a
    non-representable input fails loudly at the representation step rather
    than muddying the identity check. The basis is tested as a martingale
    once per basis.
    """
    basis = solution.basis
    _require_representable(x, basis.process, basis)
    filtration = as_filtration(enlargement_like)
    phi, n = solution.phi, solution.n
    if phi.dim != n.dim:
        raise DimensionMismatch(f"integrand dim {phi.dim}, integrator dim {n.dim}")
    if not phi.is_predictable(filtration):
        raise NotPredictable("integrand is not predictable for this filtration")
    return _multiplier_holds(phi, _bracket_steps(n, x), x, filtration)


@dataclass(frozen=True)
class KernelCertificate:
    time: int
    atom: str
    matrix: tuple
    kernel_basis: tuple
    claimed_basis: tuple
    kernel_matches: bool
    j: tuple
    holds: bool


def covariance_kernel(enlargement_like, basis, time: int,
                      atom_label: str) -> KernelCertificate:
    """Kernel of the per-atom covariance step and its reflexive certificate.

    The step matrix is (1/4^t)(diag(p) - p pT); its kernel is spanned by the
    all-ones vector on the charged classes together with the units of the
    empty classes, and J C centres the charged classes. The certificate also
    needs the basis's increments to centre them (_centred), which makes
    every larger-flow atom's covariance step M satisfy M = M J C whatever
    the flow, so the flow is only checked to be on the basis's tree. The law
    side is built once per (basis, time, one-step law p = a / L in lowest
    terms), the basis test once per basis.
    """
    _flow_on(basis.process.tree, enlargement_like)
    wit = basis._witness(time, atom_label)
    big, a = wit.mass, wit.masses
    g = gcd(big, *a)
    law = (big // g, tuple([m // g for m in a]))
    frame = basis._derived(
        ("kernel", time, law),
        lambda: _kernel_frame(time, wit.atom, *law, basis.d + 1))
    centred = basis._derived(("centred",), lambda: _centred(basis))
    return replace(frame, atom=wit.atom, holds=frame.holds and centred)


def _centred(basis) -> bool:
    """Every increment of the basis sums to 0 over the charged classes of
    the witness above it and vanishes on its padding classes, as the
    compensated successor indicators' do; each base time-(t-1) atom's
    increment blocks are read through Partition.pieces."""
    x2 = basis.process
    nodes = x2.tree.base_filtration().parts
    for t in range(1, x2.tree.horizon + 1):
        part, _, incs = x2._delta(t)
        for node in nodes[t - 1].atoms:
            masses = basis._witness(t, node.label).masses
            for k, _ in part.pieces(node):
                cell = incs[k]
                if sum(cell) or any(c for c, m in zip(cell, masses) if not m):
                    return False
    return True


def _kernel_frame(time, atom, big, a, width):
    """The law side of covariance_kernel, on int numerators: the
    certificate of the time-`time` law a / big without its atom, holding
    when the kernel matches and J C = P, P centring the charged classes.
    atom names the witness only in the error raised when no class is
    charged.

    With p = a / L, the law's masses, C is (L diag(a) - a aT) / (4^t
    L^2). On the k charged classes J = 4^t P diag(1/p) P is 4^t L (k^2
    diag(u) - k(u_g + u_h) + U) / (Q k^2), where Q is the lcm of the charged
    a_h, u_h = Q / a_h and U is the sum of the u_h; P is (k I - 1) / k. All
    three vanish elsewhere, and as rationals none changes when a and L are
    scaled together.
    """
    c = [[(big * a[g] if g == h else 0) - a[g] * a[h] for h in range(width)]
         for g in range(width)]
    c_den = 4 ** time * big * big
    charged = [h for h in range(width) if a[h] > 0]
    if not charged:
        raise DegeneratePartition(f"no mass below atom {atom}")
    claimed = [[int(h in charged) for h in range(width)]] + [
        [int(g == h) for g in range(width)] for h in range(width) if not a[h]]
    kernel = null_space(c)
    in_kernel = all(sum(map(mul, row, vec)) == 0 for row in c for vec in claimed)
    kernel_matches = in_kernel and len(kernel) == len(claimed)

    k = len(charged)
    lead = lcm(*[a[h] for h in charged])
    u = {h: lead // a[h] for h in charged}
    total = sum(u.values())
    j = [[0] * width for _ in range(width)]
    centre = [[0] * width for _ in range(width)]  # P over k
    for g in charged:
        for h in charged:
            j[g][h] = (k * k * u[g] if g == h else 0) - k * (u[g] + u[h]) + total
            centre[g][h] = k * (g == h) - 1
    # the closed forms are claims too: the reported J must give J C = P,
    # whose numerators over Q k^2 L are Q k L times P's over k
    jc_holds = all(sum(j[g][i] * c[i][h] for i in range(width))
                   == lead * k * big * centre[g][h]
                   for g in range(width) for h in range(width))
    j_scale, j_den = 4 ** time * big, lead * k * k
    return KernelCertificate(
        time=time, atom=None,
        matrix=tuple(tuple(Fraction(v, c_den) for v in row) for row in c),
        kernel_basis=tuple(tuple(v) for v in kernel),
        claimed_basis=tuple(tuple(map(Fraction, vec)) for vec in claimed),
        kernel_matches=kernel_matches,
        j=tuple(tuple(Fraction(j_scale * v, j_den) for v in row) for row in j),
        holds=kernel_matches and jc_holds)


def g_star_consistency(g, mu, enlargement_like) -> bool:
    """Star integral under the larger flow against the drift-corrected one.

    The base-anchored jump function integrates unchanged under the larger
    flow; the result must equal the base star integral minus its drift. On
    a larger-flow atom a at t-1 the two step by g - sum_x g(x) nu_t(a, x)
    and g - sum_x g(x) P(Delta W_t = x | a), so this holds for every such g
    exactly when _law_identity does; one g still runs the integral's
    anchor reads under the larger flow.
    """
    filtration = as_filtration(enlargement_like)
    base = mu.tree.base_filtration()
    fine_side = star_integral(g, mu, filtration)
    coarse = star_integral(g, mu, base)
    corrected = drift_operator(coarse, filtration).g_martingale
    return fine_side == corrected


def _law_identity(mu, enlargement_like):
    """nu_t(a, .) = P(Delta W_t in . | a) at every t >= 1 and time-(t-1)
    atom a of the larger flow.

    Each compensator law is held to a walk over the atom's leaves that adds
    every leaf's int mass to the location id of its time-t node, with no
    partition index read: the charged locations must agree, and each
    location's masses, cross-multiplied by the two atom masses (the law's
    and the sum of the atom's leaf masses). Returns (True, None) or (False,
    (t, atom label, location, law mass, walk mass)), the location's masses
    inside the atom, 0 where a route does not charge it.
    """
    tree = mu.tree
    filtration = _flow_on(tree, enlargement_like)
    nodes, leaf_mass = tree.base_filtration().parts, tree.leaf_mass
    laws = mu.compensator(filtration).laws
    for t in range(1, tree.horizon + 1):
        locs, node_of = mu.locs[t], nodes[t].block_of
        for atom in filtration.parts[t - 1].atoms:
            walk, total = {}, 0  # per location id; the atom's mass
            for leaf in atom.leaves:
                m = leaf_mass[leaf]
                total += m
                loc = locs[node_of[leaf]]
                if loc is not None:
                    walk[loc] = walk.get(loc, 0) + m
            mass, law = laws.get((t, atom.label), (total, ()))
            law = dict(law)
            for loc in [*law, *[loc for loc in walk if loc not in law]]:
                ours, theirs = law.get(loc), walk.get(loc)
                if ours is None or theirs is None or ours * total != theirs * mass:
                    return False, (t, atom.label, tree.locations[loc],
                                   ours or 0, theirs or 0)
    return True, None
