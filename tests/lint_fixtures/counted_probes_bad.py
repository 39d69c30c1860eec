# Fixture: every tagged line must be caught by counted-probes.
# Linted as though it lived at src/repro/algorithms/fixture.py.


class SneakyScheme:
    def __init__(self, oracle) -> None:
        self._oracle = oracle

    def free_scalar_probe(self, a: int, b: int) -> float:
        return self._oracle.latency_ms(a, b)  # LINT: counted-probes

    def free_row(self, a: int, members) -> list:
        return self._oracle.latencies_from(a, members)  # LINT: counted-probes

    def free_block(self, rows, cols):
        return self._oracle.latency_block(rows, cols)  # LINT: counted-probes
