"""Independent brute-force reference computations for the tests.

Everything here works on plain dicts and ints so results cannot inherit
bugs from the package. Keep these implementations naive: clarity over
speed, full enumeration over incremental tricks.
"""

from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from itertools import product


def ref_round_half_away(x) -> int:
    """Round half away from zero, exact for Fractions and Decimals."""
    d = Decimal(x.numerator) / Decimal(x.denominator) if isinstance(x, Fraction) \
        else Decimal(str(x))
    return int(d.quantize(Decimal("1"), rounding=ROUND_HALF_UP)) if d >= 0 \
        else -int((-d).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def ref_reward(n: int, length_km: float, km_rate_centi: int = 170) -> int:
    """Per-follower-share reward of one vehicle in a platoon of n."""
    if n <= 1:
        return 0
    return ref_round_half_away(Fraction(km_rate_centi) * Fraction(str(length_km))
                               * Fraction(n - 1, n))


def ref_entries(start: int, waits, edges, travel):
    """Entry step onto each route edge; travel(eid, t) gives realized steps."""
    t = start + waits[0]
    out = [t]
    for k in range(1, len(edges)):
        t = t + travel(edges[k - 1], t) + waits[k]
        out.append(t)
    return tuple(out)


def ref_platoons(vehicles, profile, travel):
    """vehicles: vid -> (start, edge tuple). Returns (eid, t) -> sorted vids."""
    groups = {}
    for vid in sorted(vehicles):
        start, edges = vehicles[vid]
        for eid, t in zip(edges, ref_entries(start, profile[vid], edges, travel)):
            groups.setdefault((eid, t), []).append(vid)
    return groups


def ref_utility(vid, vehicles, profile, travel, lengths,
                km_rate_centi: int = 170, step_cost_centi: int = 2200) -> int:
    groups = ref_platoons(vehicles, profile, travel)
    start, edges = vehicles[vid]
    total = 0
    for eid, t in zip(edges, ref_entries(start, profile[vid], edges, travel)):
        total += ref_reward(len(groups[(eid, t)]), lengths[eid], km_rate_centi)
    return total - step_cost_centi * sum(profile[vid])


def ref_potential(vehicles, profile, travel, lengths,
                  km_rate_centi: int = 170, step_cost_centi: int = 2200) -> int:
    groups = ref_platoons(vehicles, profile, travel)
    total = 0
    for (eid, _t), members in groups.items():
        for j in range(1, len(members) + 1):
            total += ref_reward(j, lengths[eid], km_rate_centi)
    for vid in vehicles:
        total -= step_cost_centi * sum(profile[vid])
    return total


def all_actions(length: int, budget: int):
    """Every wait vector of the given length with total at most budget."""
    out = [w for w in product(range(budget + 1), repeat=length)
           if sum(w) <= budget]
    return sorted(out)


def all_profiles(vehicles, budgets):
    """Every joint profile; vehicles as in ref_platoons, budgets vid -> int."""
    ids = sorted(vehicles)
    spaces = [all_actions(len(vehicles[vid][1]), budgets[vid]) for vid in ids]
    for combo in product(*spaces):
        yield dict(zip(ids, combo))


def ref_is_nash(vehicles, budgets, profile, travel, lengths,
                km_rate_centi: int = 170, step_cost_centi: int = 2200) -> bool:
    for vid in sorted(vehicles):
        here = ref_utility(vid, vehicles, profile, travel, lengths,
                           km_rate_centi, step_cost_centi)
        for action in all_actions(len(vehicles[vid][1]), budgets[vid]):
            trial = dict(profile)
            trial[vid] = action
            if ref_utility(vid, vehicles, trial, travel, lengths,
                           km_rate_centi, step_cost_centi) > here:
                return False
    return True


def ref_best_potential(vehicles, budgets, travel, lengths,
                       km_rate_centi: int = 170,
                       step_cost_centi: int = 2200) -> int:
    best = None
    for profile in all_profiles(vehicles, budgets):
        val = ref_potential(vehicles, profile, travel, lengths,
                            km_rate_centi, step_cost_centi)
        if best is None or val > best:
            best = val
    return best


def ref_travel_matrix(listed, tables):
    """A network's delay matrix, built entry by entry.

    ``listed`` maps an edge id to its admissible profile ids (none: any
    profile with entries on it); ``tables`` maps a profile id to
    {(edge id, entry step): delay}. Returns (lo, index, rows): ``index``
    numbers the (edge id, profile id) pairs from 1 in sorted order, and
    each row holds its pair's delay at steps lo, lo + 1, ... through the
    last step of any row's entries, then a 0; row 0 is all zeros.
    """
    keys = {(eid, pid) for eid, pids in listed.items() for pid in pids if pid in tables}
    keys |= {(eid, pid) for pid, table in tables.items() for eid, _t in table
             if eid in listed and not listed[eid]}
    cells = {key: {t: d for (eid, t), d in tables[key[1]].items() if eid == key[0]}
             for key in keys}
    steps = [t for got in cells.values() for t in got] or [0]
    lo, hi = min(steps), max(steps)
    index = {key: row for row, key in enumerate(sorted(keys), 1)}
    rows = [[0] * (hi - lo + 2)]
    for key in sorted(keys):
        rows.append([cells[key].get(t, 0) for t in range(lo, hi + 1)] + [0])
    return lo, index, rows


def ref_scaled_values(oracle, vid, actions, profile):
    """scale * expected utility of each action of ``vid`` in a
    ``solver.WorldsOracle`` game, world by world: every track of
    ``oracle.views`` enters by ``ref_entries`` from ``oracle.avail``, a
    player with its waits in ``profile`` and any other with its committed
    ones. World k travels edge ``worlds.edges[j]`` with row
    ``worlds.rows[k, j]`` of the matrix's delays, read entry by entry."""
    net, worlds = oracle.game.net, oracle.worlds
    lo, span = worlds.matrix.lo, worlds.matrix.span
    delays = worlds.matrix.delays.tolist()
    km_rate = oracle.game.reward_model.km_rate_centi
    step_cost = oracle.game.cost_model.step_cost_centi
    views = list(oracle.views.values())
    totals = [0] * len(actions)
    for k, weight in enumerate(worlds.weights):
        rows = dict(zip(worlds.edges, worlds.rows[k].tolist()))

        def travel(eid, t):
            extra = delays[rows[eid]][t - lo] if 0 <= t - lo < span else 0
            return net.edges[eid].base_travel_steps + extra

        def entries(i, waits):
            view = views[i]
            return zip(view.window_edges, ref_entries(
                int(oracle.avail[i, k]), waits, view.window_edges, travel))

        counts = {}
        for i, view in enumerate(views):
            if view.vid != vid:
                for key in entries(i, profile[view.vid] if view.player
                                   else view.committed):
                    counts[key] = counts.get(key, 0) + 1
        [own] = [i for i, view in enumerate(views) if view.vid == vid]
        for j, waits in enumerate(actions):
            u = -step_cost * sum(waits)
            for eid, t in entries(own, waits):
                u += ref_reward(counts.get((eid, t), 0) + 1,
                                net.edges[eid].length_km, km_rate)
            totals[j] += weight * u
    return totals
