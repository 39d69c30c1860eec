# Fixture: every tagged line must be caught by plan-purity.
# Linted as though it lived at src/repro/algorithms/fixture.py.


class ImpurePlanScheme:
    def _plan(self, target: int, rng):
        direct = self.oracle.latency_ms(0, target)  # LINT: plan-purity
        row = self.oracle.latencies_from(0, [target])  # LINT: plan-purity
        hidden = self.offline_probe_block([0], [target])  # LINT: plan-purity
        side = self.aux_probe(0, 1)  # LINT: plan-purity
        yield direct
        return row, hidden, side

    def query_plan(self, target: int, seed=None):
        value = self.oracle.latency_block([0], [target])  # LINT: plan-purity
        yield value
