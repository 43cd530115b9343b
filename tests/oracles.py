"""Independent oracles shared by the tests: field multiplication without
the library's tables, block encoding by plain matrix products, rank and
determination by plain elimination, the converse bound and the
constrained maximization in exact fractions, the pairing budget as a
validated dataclass with dict-based subtraction, the planners'
straightforward constructions (every mwdf split tried, cswdf groupings
concatenated pair by pair, the point-rate caps and the oswdf bottleneck
pour in Fractions), the 1x1 joint replay of every hop-pattern pair from
time 0 (the pairs verify counts but does not run), random joint patterns
on every link of a multi-link network replayed from time 0, the witness
replayed through the runtime to its full horizon, the relay's forwarded
rows and violations built symbol by symbol, the per-link check slot by slot,
slot shapes and route classes worked out in numpy by
sorting every route, the per-slot recovery-delay table of the k-th-
arrival rule and the Monte Carlo loss mask read off it at every slot,
each component's worst case by enumerating every erasure pattern, a
code's runs expanded back into its flat component list, and the code
builders, spectrum measurement and channel statistics that only the
tests need, and the Gilbert-Elliott sampler that writes each sojourn's
slice of the loss bits as it draws it."""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import ceil, comb, floor
from operator import xor
from random import Random

import numpy as np

from relaystream.codes import CodecState, StreamingCodeSpec, build_grouped_code, decode_step, encode_step
from relaystream.gf import FIELD_ORDER, make_mds
from relaystream.planner import Allocation, point_rate
from relaystream.relay import NetworkState
from relaystream.sim import INF_DELAY, FailureWitness, _witness, component_worst_delays
from relaystream.spectrum import DelayGrouping, optimal_grouping

JOINT_PAIRS = 400  # most joint hop-pattern pairs cross_product_from_zero replays


def slow_mul(a: int, b: int) -> int:
    # carry-less polynomial multiplication reduced mod 0x11D, no tables
    acc = 0
    for bit in range(8):
        if b & (1 << bit):
            acc ^= a << bit
    for deg in range(15, 7, -1):
        if acc & (1 << deg):
            acc ^= 0x11D << (deg - 8)
    return acc


def block_encode(spec, message):
    # codeword = message x generator, one column at a time
    return tuple(
        reduce(xor, (slow_mul(m, row[col]) for m, row in zip(message, spec.generator)), 0)
        for col in range(spec.n)
    )


def oracle_rank(rows, mul):
    # row-echelon rank over the field, arithmetic injected so the oracle
    # never touches the library tables
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(x for x in range(1, 256) if mul(rows[rank][col], x) == 1)
        rows[rank] = [mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v ^ mul(f, w) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_determined(k, rows):
    # coordinate j is pinned down by the known functionals ``rows`` iff
    # adding the unit vector e_j does not raise their rank
    base = oracle_rank(rows, slow_mul) if rows else 0
    out = set()
    for j in range(k):
        ej = [0] * k
        ej[j] = 1
        if oracle_rank(list(rows) + [ej], slow_mul) == base:
            out.add(j)
    return frozenset(out)


def mwdf_rate_bruteforce(config):
    # every split T1 + T2 <= T, each hop's Fraction sum taken once per
    # horizon; strict > keeps the lexicographically first
    def hop_sums(links):
        sums = []
        for horizon in range(config.T + 1):
            acc = Fraction(0)
            for n, dt in links:
                acc += point_rate(horizon - dt, n)
            sums.append(acc)
        return sums

    sums1 = hop_sums(list(zip(config.N1, config.dT1)))
    sums2 = hop_sums(list(zip(config.N2, config.dT2)))
    best = (Fraction(0), 0, config.T)
    for t1 in range(config.T + 1):
        for t2 in range(config.T - t1 + 1):
            rate = min(sums1[t1], sums2[t2])
            if rate > best[0]:
                best = (rate, t1, t2)
    return best


def hop_caps(config):
    # each link's point rate at the delay the other hop's fastest link
    # leaves of the deadline, one Fraction per link, per hop
    z1, z2 = config.Z1, config.Z2
    return (
        [point_rate(config.T - min(z2) - dt, n) for n, dt in zip(config.N1, config.dT1)],
        [point_rate(config.T - min(z1) - dt, n) for n, dt in zip(config.N2, config.dT2)],
    )


def redistribute_by_fractions(caps, order, base, target):
    # the bottleneck pour in Fraction arithmetic: below the sum of the
    # concatenated rates ``base`` scale them down uniformly, else pour the
    # remainder into the links in ``order``, each up to its cap
    total = sum(base, start=Fraction(0))
    if target < total:
        scale = target / total
        return [r * scale for r in base]
    deficit = target - total
    rates = list(base)
    for i in order:
        take = min(caps[i] - rates[i], deficit)
        rates[i] += take
        deficit -= take
        if deficit == 0:
            break
    return rates


def cswdf_groupings_by_concat(config):
    # the whole cswdf allocation, each link's grouping grown by one
    # concat_groupings call per surviving link pair
    t = config.T
    z1, z2 = config.Z1, config.Z2
    pair_k = {
        (i, j): max(0, t + 1 - z1[i] - z2[j])
        for i in range(len(z1))
        for j in range(len(z2))
    }
    n1 = [0] * len(z1)
    n2 = [0] * len(z2)
    k1 = [0] * len(z1)
    k2 = [0] * len(z2)
    g1 = [DelayGrouping(())] * len(z1)
    g2 = [DelayGrouping(())] * len(z2)
    for (i, j), kij in pair_k.items():
        if kij == 0:
            continue
        n1[i] += t + 1 - z2[j] - config.dT1[i]
        n2[j] += t + 1 - z1[i] - config.dT2[j]
        k1[i] += kij
        k2[j] += kij
        g1[i] = concat_groupings(
            g1[i],
            DelayGrouping.from_pairs(
                [(d, 1) for d in range(config.N1[i], t - z2[j] - config.dT1[i] + 1)]
            ),
        )
        g2[j] = concat_groupings(
            g2[j],
            DelayGrouping.from_pairs(
                [(d, 1) for d in range(config.N2[j], t - z1[i] - config.dT2[j] + 1)]
            ),
        )
    return Allocation(
        scheme="cswdf",
        config=config,
        n1=tuple(n1),
        n2=tuple(n2),
        k1=tuple(k1),
        k2=tuple(k2),
        groupings1=tuple(g1),
        groupings2=tuple(g2),
        bottleneck="hop1" if max(n1, default=0) >= max(n2, default=0) else "hop2",
    )


def delay_lower_bound_fraction(n, k, N, prefix_counts=()):
    # the paper's converse bound: the group after prefix_counts symbols at
    # strictly larger delays cannot be decoded faster than
    # ceil(N*n/(n-k) * (1 - sum(prefix)/n) - 1), evaluated in Fractions
    if k >= n:
        raise ValueError("bound needs k < n (some redundancy)")
    if N < 1:
        raise ValueError("bound needs N >= 1")
    prefix = sum(prefix_counts, start=Fraction(0))
    if prefix > k:
        raise ValueError("prefix exceeds message size")
    return ceil(Fraction(N * n, n - k) * (1 - Fraction(prefix, n)) - 1)


def max_symbols_kprime(n, N, delays, constraint, delay_shift=0):
    # the constrained maximization in exact fractions: one bound
    # k'[d] = (n*(d+1) - N*(n - allowed_above(d))) / (d+1) per candidate
    # delay, and the message size floor(min k'), as (size, [k'...])
    kprime = [
        Fraction(n * (d + 1) - N * (n - constraint.allowed_above(d + delay_shift)), d + 1)
        for d in delays
    ]
    return max(0, floor(min(kprime))), kprime


@dataclass(frozen=True)
class SpectrumConstraint:
    # budget of symbols the other hop can hand over, per delay: entries are
    # (delay, count) dense and strictly decreasing like a grouping, but
    # cumulative: a code placed under it may put at most sum(count at
    # delays > d) of its symbols at delays strictly above d. The last entry
    # is the terminal (smallest allowed delay - 1, 0)
    entries: tuple

    def __post_init__(self):
        delays = [d for d, _ in self.entries]
        if not self.entries:
            raise ValueError("constraint needs at least the terminal entry")
        if any(a != b + 1 for a, b in zip(delays, delays[1:])):
            raise ValueError("constraint entries must be dense, decreasing")
        if any(type(c) is not int or c < 0 for _, c in self.entries):
            raise ValueError("counts must be nonnegative integers")

    @staticmethod
    def from_pairs(pairs, min_allowed_delay):
        acc = {}
        for d, c in pairs:
            acc[d] = acc.get(d, 0) + c
        hi = max(list(acc) + [min_allowed_delay - 1])
        lo = min_allowed_delay - 1
        if any(d < lo for d, c in acc.items() if c != 0):
            raise ValueError("constraint mass below the terminal delay")
        return SpectrumConstraint(tuple((d, acc.get(d, 0)) for d in range(hi, lo - 1, -1)))

    def allowed_above(self, delay):
        return sum(c for d, c in self.entries if d > delay)


def subtract_constraint_by_dict(constraint, used):
    # per-delay remaining budget in a dict over every delay either side
    # spans, deficits carried one delay up at a time
    if not used.entries:
        return constraint
    top = constraint.entries[0][0]
    bottom = constraint.entries[-1][0]
    if used.entries[0][0] > top:
        raise ValueError("used symbols above the constraint's delay range")
    counts, used_at = dict(constraint.entries), dict(used.entries)
    lo = min(bottom, used.entries[-1][0])
    remaining = {d: counts.get(d, 0) - used_at.get(d, 0) for d in range(lo, top + 1)}
    for d in range(lo, top + 1):
        if remaining[d] < 0:
            if d == top:
                raise ValueError("constraint oversubscribed")
            remaining[d + 1] += remaining[d]
            remaining[d] = 0
    # delays below the terminal never gain budget, so drop them back off
    return SpectrumConstraint(tuple((d, remaining[d]) for d in range(top, bottom - 1, -1)))


def pairing_constraint_by_pairs(T, groupings, dT):
    # the allocated hop's (effective delay, count) pairs flipped through
    # the deadline, with the terminal below the largest effective delay
    pairs = []
    max_eff = 0
    for g, dt in zip(groupings, dT):
        for d, c in nonzero(g):
            pairs.append((T - (d + dt), c))
            max_eff = max(max_eff, d + dt)
    if not pairs:
        raise ValueError("allocated hop carries no symbols")
    return SpectrumConstraint.from_pairs(pairs, min_allowed_delay=T - max_eff)


def nonzero(grouping):
    # the grouping's (delay, count) entries with a nonzero count
    return tuple((d, c) for d, c in grouping.entries if c != 0)


def list_form(spectrum):
    # (top delay, dense counts) of a grouping or constraint; (0, []) if empty
    if not spectrum.entries:
        return 0, []
    return spectrum.entries[0][0], [c for _, c in spectrum.entries]


def cross_product_from_zero(code, config, rng):
    # the 1x1 joint replay: each hop's budget placed every way in a window
    # of its span plus its largest declared delay, and every pattern pair
    # rerun from time 0 on a fresh NetworkState, past JOINT_PAIRS pairs a
    # sample of them; returns the first witness (or None), the pairs run
    # and whether they were all of them
    spec1, spec2 = code.hop1[0], code.hop2[0]
    w1 = spec1.span + max(spec1.slot_delays)
    w2 = spec2.span + max(spec2.slot_delays, default=0)
    start = max(spec1.span, spec2.span) + 1
    pats1 = list(combinations(range(start, start + w1), min(config.N1[0], w1)))
    pats2 = list(combinations(range(start, start + w2), min(config.N2[0], w2)))
    pairs = [(a, b) for a in pats1 for b in pats2]
    exhaustive = len(pairs) <= JOINT_PAIRS
    if not exhaustive:
        pairs = rng.sample(pairs, JOINT_PAIRS)
    horizon = start + w1 + w2 + config.T + 2
    packets = [[rng.randrange(256) for _ in range(code.k)] for _ in range(start + w1 + 2)]
    count = 0
    for p1, p2 in pairs:
        state = NetworkState(code)
        state.run(packets, [set(p1)], [set(p2)], horizon)
        count += 1
        got = {}
        for d in state.deliveries:
            got.setdefault((d.src_time, d.sym), (d.value, d.at))
        for t, pkt in enumerate(packets):
            for sym in range(code.k):
                val = got.get((t, sym))
                if val is None or val[0] != pkt[sym] or val[1] > t + config.T:
                    late = None if val is None or val[0] != pkt[sym] else val[1] - t
                    witness = FailureWitness((tuple(p1),), (tuple(p2),), t, sym, config.T, late)
                    return witness, count, exhaustive
    return None, count, exhaustive


def joint_replay_misses(code, rng, draws):
    # the joint replay on every link at once, from time 0: per draw, each
    # link of both hops loses its budget's worth of transmissions, drawn
    # at random from one window as long as its slowest symbol's reach, and
    # a fresh NetworkState carries random packets; counts the draws in
    # which some symbol is not delivered correctly within T
    config = code.allocation.config
    start = code.span + 1

    def pattern(spec, N):
        window = range(start, start + spec.span + max(spec.slot_delays, default=0))
        return set(rng.sample(window, min(N, len(window))))

    packets = [[rng.randrange(256) for _ in range(code.k)] for _ in range(start + 2 * code.span + config.T)]
    misses = 0
    for _ in range(draws):
        lost1 = [pattern(spec, N) for spec, N in zip(code.hop1, config.N1)]
        lost2 = [pattern(spec, N) for spec, N in zip(code.hop2, config.N2)]
        state = NetworkState(code)
        state.run(packets, lost1, lost2, len(packets) + config.T)
        got = {}
        for d in state.deliveries:
            got.setdefault((d.src_time, d.sym), (d.value, d.at))
        misses += not all(
            (t, sym) in got and got[t, sym][0] == pkt[sym] and got[t, sym][1] <= t + config.T
            for t, pkt in enumerate(packets)
            for sym in range(code.k)
        )
    return misses


def replay_witness_full_horizon(code, witness):
    # the witness run through the symbolic pipeline, which sim.replay_witness
    # reads off the k-th-arrival rule instead: random packets over the whole
    # horizon on a fresh NetworkState, then the symbol's first correct
    # delivery in the log, unless the relay forwarded a zero in its place
    config = code.allocation.config
    span = code.span
    horizon = witness.src_time + config.T + 2 * span + max(config.dT1 + config.dT2) + 4
    rng = Random(20240 + witness.src_time)
    packets = [[rng.randrange(256) for _ in range(code.k)] for _ in range(witness.src_time + span + 1)]
    state = NetworkState(code)
    state.run(
        packets,
        [set(times) for times in witness.erasures1],
        [set(times) for times in witness.erasures2],
        horizon,
    )
    truth = packets[witness.src_time][witness.sym]
    zeroed = {(v.src_time, v.sym) for v in state.violations}
    for d in state.deliveries:
        if d.src_time == witness.src_time and d.sym == witness.sym and d.value == truth:
            return None if (d.src_time, d.sym) in zeroed else d.at - witness.src_time
    return None


def relay_rows_by_symbol(code, packets, lost1, until):
    # hop 1 and the relay route by route: each hop-1 row read symbol by
    # symbol from the packet, every recovery kept under (source time, sym)
    # for good, and each hop-2 row built slot by slot from those, a missing
    # symbol sent as zero and noted; returns the rows of every step and the
    # violations as (src_time, sym, at), in the order the relay notes them
    config = code.allocation.config
    sym1 = {(r.link1, r.slot1): r.sym for r in code.routes}
    route2 = {(r.link2, r.slot2): r for r in code.routes}
    states = [CodecState(spec) for spec in code.hop1]
    sent = [{} for _ in code.hop1]
    recovered = {}
    rows, violations = [], []
    for t in range(until):
        packet = packets[t] if t < len(packets) else [0] * code.k
        for link, state in enumerate(states):
            row = [packet[sym1[link, slot]] if (link, slot) in sym1 else 0 for slot in range(state.spec.k)]
            sent[link][t] = encode_step(state, row)
            x = t - config.dT1[link]
            if x >= 0:
                for src_t, slot, value in decode_step(state, None if x in lost1[link] else sent[link][x], x):
                    if (link, slot) in sym1:
                        recovered[src_t, sym1[link, slot]] = value
        step_rows = []
        for link, spec in enumerate(code.hop2):
            row = [0] * spec.k
            for slot in range(spec.k):
                r = route2.get((link, slot))
                if r is None or t < r.relay_delay:
                    continue
                key = (t - r.relay_delay, r.sym)
                if key in recovered:
                    row[slot] = recovered[key]
                else:
                    violations.append((*key, t))
            step_rows.append(tuple(row))
        rows.append(step_rows)
    return rows, violations


def check_links_per_slot(code, config):
    # sim._check_links slot by slot: each component placement counts its
    # patterns as it is reached, and every message slot compares its
    # component's worst delay with its own declared delay; the failing
    # slot's route is read from a table over every routed slot
    routed = {}
    for r in code.routes:
        routed[1, r.link1, r.slot1] = r
        routed[2, r.link2, r.slot2] = r
    checked = 0
    anchor = code.span + code.allocation.config.T + 2
    for hop, specs, budgets in ((1, code.hop1, config.N1), (2, code.hop2, config.N2)):
        for link, spec in enumerate(specs):
            budget = budgets[link]
            for comp, places in spec.plan:
                worst, args = component_worst_delays(comp.n, comp.k, budget)
                for _, moff in places:
                    checked += comb(comp.n, min(budget, comp.n))
                    for j in range(comp.k):
                        slot = moff + j
                        declared = spec.slot_delays[slot]
                        if worst[j] <= declared:
                            continue
                        times = tuple(anchor - j + p for p in args[j])
                        route = routed.get((hop, link, slot))
                        src = anchor - route.relay_delay if hop == 2 and route else anchor
                        recovers = (
                            "never recovers" if worst[j] >= INF_DELAY
                            else f"recovers in {worst[j]} slots"
                        )
                        return checked, (
                            f"hop-{hop} link {link} slot {slot} {recovers}, declared {declared}",
                            _witness(code, {(hop, link): times}, src,
                                     route.sym if route else -1, declared),
                        )
    return checked, None


def _kth_arrival(erased, n, k, num_diag):
    # where each diagonal of an (n, k) component collects its k-th symbol:
    # diagonal i covers slots i .. i+n-1 of the link stream led by k-1
    # known pre-stream slots, so diagonal k-1 starts at transmit time 0;
    # returns, for i < num_diag, the window position of the k-th received
    # slot, >= n for never; slots past the end of erased count as lost
    pad = k - 1
    received = np.zeros(num_diag + n - 1, dtype=bool)
    received[:pad] = True
    stream = ~erased[: num_diag + n - k]
    received[pad : pad + len(stream)] = stream
    # the k-th arrival from diagonal i is arrival number (arrivals before i) + k - 1;
    # sentinels past the stream stand in for arrivals that never come
    arrivals = np.concatenate(
        [np.flatnonzero(received), np.full(k, num_diag + n, dtype=np.intp)]
    )
    head = received[:num_diag]
    before = np.cumsum(head) - head
    return arrivals[before + pad] - np.arange(num_diag)


def slot_shape_table(spec):
    # rows (n_c, k_c, j), one per message slot, worked out in numpy from
    # the runs: the slot's component shape and 1-based diagonal position
    runs = np.array([(c.n, c.k, count) for c, count in spec.runs], dtype=np.int64)
    n, k, count = runs.reshape(-1, 3).T
    slots = k * count
    k_slot = np.repeat(k, slots)
    j = (np.arange(spec.k) - np.repeat(np.cumsum(slots) - slots, slots)) % k_slot + 1
    return np.column_stack([np.repeat(n, slots), k_slot, j])


def route_classes_by_sort(code):
    # per hop, every route's (link, n_c, k_c, j, clock offset, allowed
    # delay) row, lexsorted so each class's tightest allowed delay comes
    # first, then the first row of each class
    config = code.allocation.config
    routes = np.fromiter(chain.from_iterable(code.routes), np.int64, 7 * code.k)
    _, link1, slot1, relay, link2, slot2, _ = routes.reshape(-1, 7).T
    sides = (
        (code.hop1, link1, slot1, np.zeros_like(relay), relay - np.asarray(config.dT1)[link1]),
        (code.hop2, link2, slot2, relay, config.T - relay - np.asarray(config.dT2)[link2]),
    )
    classes = []
    for specs, link, slot, offset, allowed in sides:
        shapes = np.concatenate([slot_shape_table(spec) for spec in specs])
        first_slot = np.cumsum([0] + [spec.k for spec in specs])
        rows = np.column_stack([link, shapes[first_slot[link] + slot], offset, allowed])
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
        classes.append(rows[first].tolist())
    return tuple(classes)


def dense_loss_mask(code, bits1, bits2, num_packets):
    # the Monte Carlo loss mask read off a horizon-long k-th-arrival index
    # per (link, shape), at every slot rather than only the erased ones
    classes1, classes2 = route_classes_by_sort(code)
    # hop-2 clocks run up to the largest relay delay past the last packet
    max_relay = max((offset for _, _, _, _, offset, _ in classes2), default=0)
    lost = np.zeros(num_packets, dtype=bool)
    for bits, num_eval, classes in (
        (bits1, num_packets, classes1),
        (bits2, num_packets + max_relay, classes2),
    ):
        index = {}
        for link, n, k, j, offset, allowed in classes:
            if allowed < 0:
                return np.ones(num_packets, dtype=bool)
            if (link, n, k) not in index:
                index[link, n, k] = _kth_arrival(bits[link], n, k, num_eval + k - 1)
            # symbol j at clock tau sits on diagonal tau - (j-1)
            start = offset + k - j
            p = index[link, n, k][start : start + num_packets]
            # late iff erased and recovered after allowed, or never (p >= n)
            erased = bits[link][offset : offset + num_packets]
            lost |= erased & (p > min(allowed + j - 1, n - 1))
    return lost


def slot_delay_table(spec, erased, num_eval):
    # recovery delay of every message slot at every time, int32 (spec.k,
    # num_eval), INF_DELAY for never: the k-th-arrival rule of the Monte
    # Carlo kernel applied slot by slot; known pre-stream slots count as
    # received, matching the decoder
    out = np.empty((spec.k, num_eval), dtype=np.int32)
    own = ~erased[:num_eval]
    for slot, (n, k, j) in enumerate(slot_shape_table(spec).tolist()):
        # symbol j of packet tau sits on diagonal tau - (j-1)
        p = _kth_arrival(erased, n, k, num_eval + k - 1)[k - j : k - j + num_eval]
        out[slot] = np.where(own, 0, np.where(p >= n, INF_DELAY, p - (j - 1)))
    return out


def concat_groupings(a, b):
    # spectrum of the concatenated code: per-delay counts add
    return DelayGrouping.from_pairs(tuple(a.entries) + tuple(b.entries))


def count_at_least(grouping, delay):
    return sum(c for d, c in grouping.entries if d >= delay)


def component_grouping(N, m):
    # one symbol at each delay N .. N+m-1
    return DelayGrouping.from_pairs([(N + m - 1 - i, 1) for i in range(m)])


def build_diagonal_mds(N, k):
    # single diagonally interleaved (N+k, k) MDS component
    if N < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if N + k > FIELD_ORDER:
        raise ValueError("component too long for the field")
    return StreamingCodeSpec(runs=((make_mds(N + k, k), 1),), n=N + k, N=N)


def components(spec):
    # the flat component list the runs stand for, in channel order
    return [comp for comp, count in spec.runs for _ in range(count)]


def build_spectrum_code(n, k, N, worst_delay):
    # the extremal-grouping code, the standard achievability construction;
    # below the capacity point build_grouped_code dead-pads the spare slots
    return build_grouped_code(n, N, optimal_grouping(n, k, N, worst_delay))


def pattern_delays(n_c, k_c, erased):
    # recovery delay of each message symbol under one erasure pattern of
    # the component's own n_c slots, in steady state (no pre-stream help):
    # the k-th arrival determines every symbol not received itself
    received = [p not in erased for p in range(n_c)]
    arrivals = [p for p, r in enumerate(received) if r]
    if len(arrivals) < k_c:
        return [0 if received[j] else INF_DELAY for j in range(k_c)]
    return [0 if received[j] else arrivals[k_c - 1] - j for j in range(k_c)]


def component_worst_delays_by_enumeration(n_c, k_c, budget):
    # every budget-sized pattern in the span, keeping per symbol the worst
    # delay and the first pattern reaching it
    worst = [0] * k_c
    argmax = [()] * k_c
    for erased in combinations(range(n_c), min(budget, n_c)):
        for j, d in enumerate(pattern_delays(n_c, k_c, frozenset(erased))):
            if d > worst[j]:
                worst[j] = d
                argmax[j] = erased
    return tuple(worst), tuple(argmax)


def measure_spectrum(spec, budget=None):
    # empirical delay spectrum under exhaustive per-component erasures
    budget = spec.N if budget is None else budget
    pairs = []
    for comp in components(spec):
        if comp.k == 0:
            continue
        worst, _ = component_worst_delays_by_enumeration(comp.n, comp.k, budget)
        pairs.extend((d, 1) for d in worst)
    return DelayGrouping.from_pairs(pairs)


def ge_average_loss(params):
    # stationary loss rate: eps weighted by beta/(alpha+beta) plus the
    # bad-state mass alpha/(alpha+beta); with alpha = beta = 0 the chain
    # stays in its initial good state and loses at eps
    a, b = params.alpha, params.beta
    if a == 0 and b == 0:
        return params.eps
    return (b * params.eps + a) / (a + b)


def sample_ge_by_slices(params, horizon, seed):
    # the same generator calls as channels.sample_ge, in the same order,
    # but each good sojourn compares a fresh uniform array and copies it
    # into the bits and each bad sojourn writes its own slice
    rng = np.random.default_rng(seed)
    a, b = params.alpha, params.beta
    bits = np.zeros(horizon, dtype=bool)
    if a == 0 and b == 0:
        in_bad = False
    else:
        in_bad = rng.random() < a / (a + b)
    pos = 0
    while pos < horizon:
        if in_bad:
            end = horizon if b == 0 else pos + rng.geometric(b)
            bits[pos:end] = True
        else:
            end = horizon if a == 0 else pos + rng.geometric(a)
            if params.eps > 0:
                bits[pos:end] = rng.random(min(end, horizon) - pos) < params.eps
        pos = end
        in_bad = not in_bad
    return bits
