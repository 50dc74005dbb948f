"""Independent brute-force oracles.

Deliberately written with different algorithms and data layouts than the
package (union-find instead of DFS, full cartesian products instead of
pruned search, all-pairs loops instead of adjacency maps, descents that
recount every delta from the assignment instead of keeping connection
tables) so agreement is meaningful. Slow on purpose; only for small cases.
"""

from fractions import Fraction
from itertools import product
from math import lcm


def naive_integrated(stage):
    """Symmetric closure of precedence and concurrency, or the override."""
    if stage.e3_override is not None:
        return {tuple(sorted(p)) for p in stage.e3_override}
    out = set()
    for a, b in list(stage.precedence) + list(stage.concurrency):
        out.add((min(a, b), max(a, b)))
    return out


def naive_components(nodes, edges):
    """Connected components via union-find, sorted by smallest member."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    return sorted(tuple(sorted(g)) for g in groups.values())


def naive_communities(nodes, edges, gamma):
    """Components split recursively into pieces of at most ``gamma`` files.

    An oversized component gives up one piece: its member of least
    (degree within the component, id), grown one file at a time by the
    least such neighbour of the piece. The remainder's components are split
    the same way. Returns every piece, sorted."""
    linked = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}

    def split(comp):
        if len(comp) <= gamma:
            return [comp]
        degree = {f: sum((f, g) in linked for g in comp) for f in comp}
        piece = [min(comp, key=lambda f: (degree[f], f))]
        while len(piece) < gamma:
            frontier = [
                g for g in comp if g not in piece and any((f, g) in linked for f in piece)
            ]
            if not frontier:
                break
            piece.append(min(frontier, key=lambda f: (degree[f], f)))
        rest = [f for f in comp if f not in piece]
        pieces = [tuple(sorted(piece))]
        for sub in naive_components(rest, edges):
            pieces.extend(split(sub))
        return pieces

    return sorted(p for comp in naive_components(nodes, edges) for p in split(comp))


def naive_psi(assignment, stage):
    """Objective by scanning every ordered file pair."""
    active = sorted(stage.active_files)
    if stage.phi is not None:
        total = 0.0
        for a in active:
            for b in active:
                if a != b and assignment[a] == assignment[b]:
                    total += stage.phi.get((a, b), 0.0)
        return total
    edges = naive_integrated(stage)
    total = 0.0
    for a in active:
        for b in active:
            if a < b and assignment[a] == assignment[b] and (a, b) in edges:
                total += 1.0
    return total


def _fits(assignment, sizes, capacities):
    loads = dict.fromkeys(capacities, 0)
    for f, d in assignment.items():
        loads[d] += sizes[f]
    return all(loads[d] <= capacities[d] for d in capacities)


def naive_exact(stage, instance, pinned=None):
    """Minimum-objective placement by full enumeration.

    Returns (assignment, psi) where the assignment is the lexicographically
    least among the optima (files ascending, disks ascending), matching the
    solver's determinism contract. None when nothing fits.
    """
    pinned = dict(pinned or {})
    files = [f for f in sorted(stage.active_files) if f not in pinned]
    disks = sorted(d.id for d in instance.disks)
    best = None
    for combo in product(disks, repeat=len(files)):
        assignment = dict(pinned)
        assignment.update(zip(files, combo))
        if not _fits(assignment, instance.sizes, instance.capacities):
            continue
        psi = naive_psi(assignment, stage)
        key = (psi, combo)
        if best is None or key < best[0]:
            best = (key, assignment)
    if best is None:
        return None
    return best[1], best[0][0]


def _decimal_weights(stage):
    """(a, b, weight) for each ``phi`` entry, scaled to exact integers, and
    the scale. Each weight counts as the decimal it prints as,
    ``Fraction(repr(w))``."""
    weights = {pair: Fraction(repr(w)) for pair, w in stage.phi.items()}
    scale = lcm(*(w.denominator for w in weights.values()))
    return [(a, b, int(w * scale)) for (a, b), w in weights.items()], scale


def naive_exact_decimal(stage, instance, pinned=None):
    """``naive_exact`` for explicit ``phi``, in exact decimal arithmetic.

    Placements whose weights add up to the same decimal tie exactly and
    the lexicographically least of them wins; float sums of the same
    weights taken in different orders can differ in the last bits.
    ``pinned`` files keep their disks, as in ``naive_exact``. Returns
    (assignment, psi as a Fraction), or None when nothing fits.
    """
    scaled, scale = _decimal_weights(stage)
    pinned = dict(pinned or {})
    files = [f for f in sorted(stage.active_files) if f not in pinned]
    disks = sorted(d.id for d in instance.disks)
    best = None
    for combo in product(disks, repeat=len(files)):
        assignment = dict(pinned)
        assignment.update(zip(files, combo))
        if not _fits(assignment, instance.sizes, instance.capacities):
            continue
        psi = sum(w for a, b, w in scaled if assignment[a] == assignment[b])
        if best is None or (psi, combo) < best[0]:
            best = ((psi, combo), assignment)
    if best is None:
        return None
    return best[1], Fraction(best[0][0], scale)


def naive_least_connection(stage, instance, fixed):
    """The least-connection seed, recounted from the stage's pairs for
    every file. The active files not in ``fixed`` go largest first, then
    by the files they share a weight with, ``fixed`` ones included, most
    first, then by id; each to the disk it fits with the least exact
    weight to the files placed before it and the ``fixed`` ones, the
    lowest such disk on a tie. Returns the assignment of the ``fixed``
    and the placed files, or None when a file fits no disk."""
    if stage.phi is None:
        pairs = [(a, b, Fraction(1)) for a, b in naive_integrated(stage)]
    else:
        pairs = [(a, b, Fraction(repr(w))) for (a, b), w in stage.phi.items()]
    weight = {}
    for a, b, w in pairs:
        key = (min(a, b), max(a, b))
        weight[key] = weight.get(key, 0) + w

    def partners(f):
        """(other file, weight) of each weighted pair that holds ``f``."""
        return [(b if a == f else a, w) for (a, b), w in weight.items() if w and f in (a, b)]

    sizes, capacities = instance.sizes, instance.capacities
    assignment = dict(fixed)
    free = [f for f in stage.active_files if f not in fixed]
    for f in sorted(free, key=lambda f: (-sizes[f], -len(partners(f)), f)):
        options = []
        for d in sorted(capacities):
            load = sum(sizes[g] for g, e in assignment.items() if e == d)
            if load + sizes[f] <= capacities[d]:
                options.append((sum(w for g, w in partners(f) if assignment.get(g) == d), d))
        if not options:
            return None
        assignment[f] = min(options)[1]
    return assignment


def naive_spread(communities, sizes, capacities, held):
    """The paper's community spreading, from its contract: the ``held``
    files keep their disks; communities go in the given order, members
    ascending, each member to a disk it fits, one its community has not
    used yet first, then the one with the most room left, then the lowest
    disk id. Returns (assignment, degraded), degraded when some member
    lands on a disk its community already used, or the error message for
    the first member that is already placed, has no size, or fits no
    disk."""
    assignment = dict(held)
    degraded = False
    for members in communities:
        used = []
        for f in sorted(members):
            if f in assignment:
                return f"file {f} is already placed"
            if f not in sizes:
                return f"file {f} does not exist"
            room = {
                d: capacities[d] - sum(sizes[g] for g, e in assignment.items() if e == d)
                for d in capacities
            }
            fits = [d for d in capacities if room[d] >= sizes[f]]
            if not fits:
                return f"file {f} ({sizes[f]} tracks) fits on no disk"
            d = sorted(fits, key=lambda d: (d in used, -room[d], d))[0]
            if d in used:
                degraded = True
            used.append(d)
            assignment[f] = d
    return assignment, degraded


def naive_connection_tables(stage, files, placed, disks):
    """(rows, links, psi, scale) recounted from the stage's pairs. Each
    pair weighs 1, or under ``phi`` the sum of its two entries as the
    decimals they print as, times ``scale``, the least common denominator
    of the entries, so every weight is an integer. ``rows[i][s]`` sums the
    weight from ``files[i]`` to each other file that ``placed`` puts on
    ``disks[s]``; ``links[i]`` maps j to the weight between ``files[i]``
    and ``files[j]`` where it is not 0; ``psi`` sums the weight of each
    pair of placed files that share a disk."""
    if stage.phi is None:
        pairs = [(a, b, Fraction(1)) for a, b in naive_integrated(stage)]
    else:
        pairs = [(a, b, Fraction(repr(w))) for (a, b), w in stage.phi.items()]
    scale = lcm(*(w.denominator for _, _, w in pairs))
    weight = {}
    for a, b, w in pairs:
        key = (min(a, b), max(a, b))
        weight[key] = weight.get(key, 0) + int(w * scale)

    def between(a, b):
        return weight.get((min(a, b), max(a, b)), 0) if a != b else 0

    rows = []
    for f in files:
        row = [0] * len(disks)
        for g, d in placed.items():
            row[disks.index(d)] += between(f, g)
        rows.append(row)
    links = [
        {j: between(f, g) for j, g in enumerate(files) if between(f, g)} for f in files
    ]
    psi = sum(
        between(a, b) for a in placed for b in placed if a < b and placed[a] == placed[b]
    )
    return rows, links, psi, scale


def naive_internal_floor(weights, files, k):
    """Least summed weight of the same-disk pairs among ``files`` over
    every assignment of them to ``k`` disks, capacity ignored.
    ``weights`` maps pairs of files to weights; other pairs weigh 0."""
    pairs = [(a, b, w) for (a, b), w in weights.items() if a in files and b in files]
    best = None
    for combo in product(range(k), repeat=len(files)):
        disk = dict(zip(files, combo))
        total = sum(w for a, b, w in pairs if disk[a] == disk[b])
        if best is None or total < best:
            best = total
    return best


def _reachable(stage, instance, previous, budget, pinned=None):
    """(assignment, moves, combo) of every placement that fits the disks
    and moves at most the budget's allowance of files.

    Move counting matches the package contract: files of the previous
    allocation inactive in the stage are pinned; new active files place
    freely.
    """
    unit = instance.relocation_unit_cost
    active = set(stage.active_files)
    fixed = {f: d for f, d in previous.assignment.items() if f not in active}
    fixed.update(pinned or {})
    files = [f for f in sorted(stage.active_files) if f not in fixed]
    if unit <= 0:
        allowance = len(files)
    else:
        allowance = int(budget / unit + 1e-9)
    disks = sorted(d.id for d in instance.disks)
    for combo in product(disks, repeat=len(files)):
        assignment = dict(fixed)
        assignment.update(zip(files, combo))
        moves = sum(
            1
            for f in files
            if f in previous.assignment and assignment[f] != previous.assignment[f]
        )
        if moves <= allowance and _fits(assignment, instance.sizes, instance.capacities):
            yield assignment, moves, combo


def naive_restructure(stage, instance, previous, budget, pinned=None):
    """Best (psi, moves, assignment) placement within the move allowance.
    Returns (assignment, psi, moves) or None."""
    best = None
    for assignment, moves, combo in _reachable(stage, instance, previous, budget, pinned):
        key = (naive_psi(assignment, stage), moves, combo)
        if best is None or key < best[0]:
            best = (key, assignment)
    if best is None:
        return None
    return best[1], best[0][0], best[0][1]


def naive_restructure_decimal(stage, instance, previous, budget):
    """``naive_restructure`` for explicit ``phi``, in exact decimal
    arithmetic as in ``naive_exact_decimal``: objectives equal in decimal
    tie exactly, and fewer moves, then the lexicographically least
    placement, win. Returns (assignment, psi as a Fraction, moves) or None.
    """
    scaled, scale = _decimal_weights(stage)
    best = None
    for assignment, moves, combo in _reachable(stage, instance, previous, budget):
        psi = sum(w for a, b, w in scaled if assignment[a] == assignment[b])
        if best is None or (psi, moves, combo) < best[0]:
            best = ((psi, moves, combo), assignment)
    if best is None:
        return None
    return best[1], Fraction(best[0][0], scale), best[0][1]


def _incident_edges(stage):
    """Related pairs of a uniform stage, listed under each of their files."""
    incident = {}
    for a, b in naive_integrated(stage):
        incident.setdefault(a, []).append((a, b))
        incident.setdefault(b, []).append((a, b))
    return incident


def _step_delta(assignment, step, incident):
    """Objective change of a step: every related pair with a moved file,
    counted before and after from the assignments themselves."""
    new = dict(step)
    pairs = {p for f in new for p in incident.get(f, ())}
    return float(
        sum(
            (new.get(a, assignment[a]) == new.get(b, assignment[b]))
            - (assignment[a] == assignment[b])
            for a, b in pairs
        )
    )


def naive_feasible_steps(assignment, files, instance, homes, allowance):
    """(step, files moved after it) in the solvers' scan order: moves by
    file then disk, then swaps by pair. Loads come from the whole
    assignment; a file counts as moved while it is off its home."""
    sizes, capacities = instance.sizes, instance.capacities
    disks = sorted(capacities)
    loads = dict.fromkeys(disks, 0)
    for f, d in assignment.items():
        loads[d] += sizes[f]
    moved = sum(1 for f, h in homes.items() if assignment[f] != h)

    def off(f, d):
        return f in homes and d != homes[f]

    for f in files:
        src = assignment[f]
        for dst in disks:
            if dst == src or loads[dst] + sizes[f] > capacities[dst]:
                continue
            after = moved + off(f, dst) - off(f, src)
            if after <= allowance:
                yield ((f, dst),), after
    for i, a in enumerate(files):
        for b in files[i + 1 :]:
            da, db = assignment[a], assignment[b]
            if da == db:
                continue
            if loads[da] - sizes[a] + sizes[b] > capacities[da]:
                continue
            if loads[db] - sizes[b] + sizes[a] > capacities[db]:
                continue
            after = moved + off(a, db) - off(a, da) + off(b, da) - off(b, db)
            if after <= allowance:
                yield ((a, db), (b, da)), after


def naive_scan_charge(files, disks, step):
    """The evaluations a local-search scan over ``files`` on ``disks`` is
    charged up to and including ``step``, or for the whole scan when
    ``step`` is empty: one for each move of a file to another disk and one
    for each pair of files, in scan order, feasible or not, where a move
    brings in every move of its file."""
    files = sorted(files)
    charge = 0
    for f in files:
        charge += len(disks) - 1
        if len(step) == 1 and step[0][0] == f:
            return charge
    for i, a in enumerate(files):
        for b in files[i + 1 :]:
            charge += 1
            if len(step) == 2 and (step[0][0], step[1][0]) == (a, b):
                return charge
    return charge


def naive_local_search(assignment, stage, instance, files, factor):
    """First-improvement descent on a uniform stage, restarting from the
    first file after every step. Only ``files`` move. Each scan passes the
    evaluations ``naive_scan_charge`` charges it before its first gaining
    step, or all of them when none gains; once a scan that passes some
    brings the running total to ``factor * len(files) ** 2``, the descent
    ends without that scan's step. Returns (assignment, psi)."""
    assignment = dict(assignment)
    files = sorted(files)
    disks = sorted(instance.capacities)
    incident = _incident_edges(stage)
    cap = factor * len(files) ** 2
    evals = 0
    while True:
        step = ()
        for candidate, _ in naive_feasible_steps(assignment, files, instance, {}, len(files)):
            if _step_delta(assignment, candidate, incident) < -1e-9:
                step = candidate
                break
        passed = naive_scan_charge(files, disks, step) - (1 if step else 0)
        evals += passed
        if not step or passed and evals >= cap:
            return assignment, naive_psi(assignment, stage)
        evals += 1
        assignment.update(step)


def naive_greedy_descent(previous, stage, instance, allowance):
    """Best-improvement descent on a uniform stage from ``previous``, which
    must place every active file. Active files move; each counts against
    ``allowance`` while it is off its previous disk. The first step in scan
    order with the largest gain wins. Returns (assignment, psi)."""
    assignment = dict(previous)
    files = sorted(stage.active_files)
    homes = {f: assignment[f] for f in files}
    incident = _incident_edges(stage)
    while True:
        best = None
        for step, _ in naive_feasible_steps(assignment, files, instance, homes, allowance):
            delta = _step_delta(assignment, step, incident)
            if delta < -1e-9 and (best is None or delta < best[1]):
                best = step, delta
        if best is None:
            return assignment, naive_psi(assignment, stage)
        assignment.update(best[0])


def naive_greedy_descent_decimal(previous, stage, instance, allowance):
    """``naive_greedy_descent`` for explicit ``phi``, in exact decimal
    arithmetic as in ``naive_exact_decimal``: each step's delta is recounted
    from every ``phi`` entry that names a moved file, so equal gains tie
    exactly and the first of them in scan order wins. Returns (assignment,
    psi as a Fraction)."""
    assignment = dict(previous)
    files = sorted(stage.active_files)
    homes = {f: assignment[f] for f in files}
    scaled, scale = _decimal_weights(stage)
    entries = {}
    for a, b, w in scaled:
        entries.setdefault(a, []).append((a, b, w))
        entries.setdefault(b, []).append((a, b, w))

    def delta(step):
        new = dict(step)
        touched = {e for f in new for e in entries.get(f, ())}
        return sum(
            w * ((new.get(a, assignment[a]) == new.get(b, assignment[b])) - (assignment[a] == assignment[b]))
            for a, b, w in touched
        )

    while True:
        best = None
        for step, _ in naive_feasible_steps(assignment, files, instance, homes, allowance):
            change = delta(step)
            if change < 0 and (best is None or change < best[1]):
                best = step, change
        if best is None:
            psi = sum(w for a, b, w in scaled if assignment[a] == assignment[b])
            return assignment, Fraction(psi, scale)
        assignment.update(best[0])
