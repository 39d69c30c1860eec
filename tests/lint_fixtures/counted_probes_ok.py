# Fixture: the clean counterpart of counted_probes_bad.py — zero findings.
# Every measurement flows through the counted channels of the base class,
# and probe counters are only read.


class HonestScheme:
    def query_probes(self, nodes, target):
        return self.probe_many(nodes, target)

    def query_block(self, rows, cols):
        return self.probe_block(rows, cols)

    def side_probe(self, a, b):
        return self.aux_probe(a, b)

    def index_row(self, node):
        return self.offline_probe_block([node], self.members)[0]

    def bill_so_far(self):
        return self._probe_count + self._maintenance_probe_count
