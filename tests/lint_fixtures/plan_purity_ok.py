# Fixture: the clean counterpart of plan_purity_bad.py — zero findings.
# Plans measure through the counted query channel and offer every round
# to the driver via _offer_round / yield; helpers outside the plan may
# use the index channel (billed by R3's package scope, not R4).


class PurePlanScheme:
    def _plan(self, target: int, rng):
        picks = list(self.members)
        values = self.probe_many(picks, target)
        picks, values, _ = yield from self._offer_round(picks, target, values)
        first = self.probe(picks[0], target)
        block = self.probe_block(picks, [target])
        return self.result(target, dict(zip(picks, values))), first, block

    def _place_member(self, node: int):
        # Not a plan: the index channel is the right one here.
        return self.offline_probe_block(list(self.members), [node])[:, 0]
