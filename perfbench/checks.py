"""Output checks that do not rely on the program's own oracles.

A small, naive reference evaluator on plain ints and Fractions. It reads
closed-loop traces as event lists and open-loop plans as the JSON
documents the benchmark wrote, and recomputes what the program claims:
per-vehicle utilities from the events, and expected utilities of every
action over the enumerated support. Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def half_away(x: Fraction) -> int:
    """Nearest integer, halves away from zero."""
    q, r = divmod(abs(x.numerator), x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    return q if x >= 0 else -q


def member_reward(km_rate_centi: int, length_km: float, n: int) -> int:
    """Each of n members' share: km rate x length x (n-1)/n, rounded once."""
    return half_away(Fraction(km_rate_centi) * Fraction(str(length_km))
                     * Fraction(n - 1, n))


# --- closed-loop traces -------------------------------------------------


def check_trace(kind: str, events, utility_centi, routes, budgets, lengths,
                km_rate_centi: int, step_cost_centi: int) -> list[str]:
    """Check one policy's trace of one sample.

    ``events`` are (t, kind, data) triples; ``routes`` and ``budgets`` map
    vehicle id to its edge sequence and waiting budget; ``lengths`` maps
    edge id to km.
    """
    problems = []
    groups: dict[tuple[int, int], list[int]] = {}
    departed: dict[int, list[int]] = {vid: [] for vid in routes}
    waits = dict.fromkeys(routes, 0)
    finished = set()
    platoons = set()
    for t, what, data in events:
        if what == "depart":
            vid = data["vehicle"]
            groups.setdefault((data["edge"], t), []).append(vid)
            departed[vid].append(data["edge"])
        elif what == "wait":
            waits[data["vehicle"]] += 1
        elif what == "finish":
            finished.add(data["vehicle"])
        elif what == "platoon":
            platoons.add((data["edge"], t, tuple(data["members"])))
        elif what == "decide" and kind in ("sp", "ip", "ktt"):
            problems.append(f"{kind}: open-loop policy has a decide event at t={t}")
    reward = dict.fromkeys(routes, 0)
    for (eid, _t), members in groups.items():
        share = member_reward(km_rate_centi, lengths[eid], len(members))
        for vid in members:
            reward[vid] += share
    for vid, route in sorted(routes.items()):
        if tuple(departed[vid]) != tuple(route):
            problems.append(f"{kind}: vehicle {vid} departed over {departed[vid]}, "
                            f"route is {list(route)}")
        if vid not in finished:
            problems.append(f"{kind}: vehicle {vid} never finished")
        if waits[vid] > budgets[vid]:
            problems.append(f"{kind}: vehicle {vid} waited {waits[vid]} steps, "
                            f"budget {budgets[vid]}")
        if kind == "sp" and waits[vid]:
            problems.append(f"sp: vehicle {vid} waited {waits[vid]} steps")
        expected = reward[vid] - step_cost_centi * waits[vid]
        got = utility_centi.get(vid)
        if got != expected:
            problems.append(f"{kind}: vehicle {vid} utility {got}, "
                            f"recomputed {expected}")
    if set(utility_centi) != set(routes):
        problems.append(f"{kind}: utilities cover vehicles "
                        f"{sorted(set(utility_centi) ^ set(routes))} wrongly")
    formed = {(eid, t, tuple(sorted(m))) for (eid, t), m in groups.items()
              if len(m) >= 2}
    for eid, t, members in sorted(platoons - formed):
        problems.append(f"{kind}: platoon event on edge {eid} at t={t} "
                        f"{list(members)} matches no departure group")
    for eid, t, members in sorted(formed - platoons):
        problems.append(f"{kind}: departure group on edge {eid} at t={t} "
                        f"{list(members)} has no platoon event")
    return problems


# --- open-loop plans ----------------------------------------------------


class PlanReference:
    """Expected utilities of the one-shot game over the enumerated support.

    Built from the network, fleet and distribution documents as written
    to disk. Edges without a marginal travel at free flow; vehicles
    without a start marginal start at their fleet start step.
    """

    def __init__(self, net_doc: dict, fleet_doc: list, dist_doc: dict,
                 km_rate_centi: int, step_cost_centi: int):
        self.step_cost = step_cost_centi
        self.base = {e["id"]: e["base_travel_steps"] for e in net_doc["edges"]}
        self.share = {e["id"]: [0] + [member_reward(km_rate_centi, e["length_km"], n)
                                      for n in range(1, len(fleet_doc) + 1)]
                      for e in net_doc["edges"]}
        self.delays = {p["id"]: {(x["edge"], x["t"]): x["delta"] for x in p["entries"]}
                       for p in net_doc["delay_profiles"]}
        self.routes = {v["id"]: tuple(v["edge_sequence"]) for v in fleet_doc}
        self.budgets = {v["id"]: v["waiting_budget_steps"] for v in fleet_doc}
        starts = {v["id"]: v["start_step"] for v in fleet_doc}
        axes = [[("edge", row["edge"], c["id"], Fraction(c["p_num"], c["p_den"]))
                 for c in row["profiles"]] for row in dist_doc["edges"]]
        axes += [[("start", row["vehicle"], c["t"], Fraction(c["p_num"], c["p_den"]))
                  for c in row["steps"]] for row in dist_doc["starts"]]
        worlds = []
        for combo in itertools.product(*axes):
            prob = Fraction(1)
            assign = {}
            start = dict(starts)
            for what, key, value, p in combo:
                prob *= p
                if what == "edge":
                    assign[key] = value
                else:
                    start[key] = value
            worlds.append((prob, assign, start))
        scale = 1
        for prob, _a, _s in worlds:
            scale = scale * prob.denominator // math.gcd(scale, prob.denominator)
        self.weights = [int(prob * scale) for prob, _a, _s in worlds]
        self.worlds = worlds

    def _trace(self, route, waits, key) -> list[int]:
        """Entry step on each route edge, given the vehicle's start and the
        profile ids on its route (``key``), which is all a world fixes."""
        start, pids = key
        out = []
        t = start + waits[0]
        for k, eid in enumerate(route):
            out.append(t)
            if k + 1 < len(route):
                pid = pids[k]
                delay = self.delays[pid].get((eid, t), 0) if pid is not None else 0
                t += self.base[eid] + delay + waits[k + 1]
        return out

    def _keys(self, vid: int) -> list[tuple]:
        route = self.routes[vid][:-1]
        return [(start[vid], tuple(assign.get(e) for e in route))
                for _p, assign, start in self.worlds]

    def action_values(self, vid: int, profile) -> dict[tuple, int]:
        """Every action of ``vid`` against the rest of ``profile``.

        Values are expected utilities times the common weight scale, so
        they compare exactly as integers.
        """
        others = [{} for _ in self.worlds]
        for other, waits in profile.items():
            if other == vid:
                continue
            route = self.routes[other]
            traced = {}
            for counts, key in zip(others, self._keys(other)):
                entries = traced.get(key)
                if entries is None:
                    entries = traced[key] = self._trace(route, waits, key)
                for eid, t in zip(route, entries):
                    counts[(eid, t)] = counts.get((eid, t), 0) + 1
        route = self.routes[vid]
        keys = self._keys(vid)
        distinct = set(keys)
        values = {}
        for waits in actions(len(route), self.budgets[vid]):
            traced = {key: self._trace(route, waits, key) for key in distinct}
            cost = self.step_cost * sum(waits)
            total = 0
            for weight, key, counts in zip(self.weights, keys, others):
                u = -cost
                for eid, t in zip(route, traced[key]):
                    u += self.share[eid][counts.get((eid, t), 0) + 1]
                total += weight * u
            values[waits] = total
        return values


def actions(length: int, budget: int):
    """Every nonnegative wait vector of ``length`` summing to at most ``budget``."""
    return [w for w in itertools.product(range(budget + 1), repeat=length)
            if sum(w) <= budget]


def check_plan(report: dict, ref: PlanReference, vehicles) -> list[str]:
    """Plan lies in the action spaces, says verified, and ``vehicles``
    have no strictly better unilateral deviation."""
    problems = []
    if report.get("verified") is not True:
        problems.append("report does not say verified")
    raw = report.get("profile", {})
    profile = {int(vid): tuple(waits) for vid, waits in raw.items()}
    if set(profile) != set(ref.routes):
        problems.append("profile does not cover exactly the fleet")
        return problems
    for vid, waits in sorted(profile.items()):
        if (len(waits) != len(ref.routes[vid]) or any(w < 0 for w in waits)
                or sum(waits) > ref.budgets[vid]):
            problems.append(f"vehicle {vid} action {list(waits)} is outside its space")
    if problems:
        return problems
    for vid in vehicles:
        values = ref.action_values(vid, profile)
        here = values[profile[vid]]
        better = [w for w, v in values.items() if v > here]
        if better:
            problems.append(f"vehicle {vid} gains by moving from {list(profile[vid])} "
                            f"to {list(better[0])}")
    return problems
