"""Seeded counter-symmetry violations (parsed only)."""


class SkewedTLB:
    """``warm_access`` forgets the recency-order update its counted twin
    performs — a warmed TLB would evict differently than a measured one."""

    def __init__(self):
        self._entries = {}
        self._order = []
        self._counters = {}
        self.stats = {}

    def access(self, vpn):
        self._entries[vpn] = True
        self._order.append(vpn)
        self._counters["hits"] = self._counters.get("hits", 0) + 1

    def warm_access(self, vpn):  # expect: sym-counter-asymmetry
        self._entries[vpn] = True

    def snapshot(self):
        return (dict(self._entries), list(self._order),
                dict(self._counters), dict(self.stats))

    def restore(self, state):
        self._entries = dict(state[0])
        self._order = list(state[1])
        self._counters = dict(state[2])
        self.stats = dict(state[3])


class LossyCore:
    """``run_packed`` forgets the redirect update its object twin
    performs — the column path would schedule fetches differently than
    the oracle, breaking bit-identity (the ``_packed`` suffix pairing
    rule)."""

    def __init__(self):
        self._redirect = 0
        self._retired = []
        self.stats = {}

    def run(self, instructions):
        for instruction in instructions:
            self._retired.append(instruction)
            self._redirect = instruction
            self.stats["instructions"] = self.stats.get("instructions", 0) + 1

    def run_packed(self, chunks):  # expect: sym-counter-asymmetry
        for chunk in chunks:
            for instruction in chunk:
                self._retired.append(instruction)


class SkewedVecCache:
    """``access_vec`` forgets the dirty-bit update its per-row twin
    performs (the ``_vec`` suffix rule)."""

    def __init__(self):
        self._ways = []
        self._dirty = {0}
        self._counters = {}
        self.stats = {}

    def access(self, block, write):
        self._ways.append(block)
        if write:
            self._dirty.add(block)
        self._counters["accesses"] = self._counters.get("accesses", 0) + 1

    def access_vec(self, blocks, writes):  # expect: sym-counter-asymmetry
        for block in blocks:
            self._ways.append(block)
        count = self._counters.get("accesses", 0)
        self._counters["accesses"] = count + len(blocks)
