# Fixture: every tagged line must be caught by obs-passivity.
import random  # LINT: obs-passivity
import numpy as np
from random import choice  # LINT: obs-passivity
from repro.util.rng import make_rng  # LINT: obs-passivity


def leaky_span_builder(oracle, nodes, seed):
    rng = np.random.default_rng(seed)  # LINT: obs-passivity
    jitter = np.random.random()  # LINT: obs-passivity
    one = oracle.latency_ms(nodes[0], nodes[1])  # LINT: obs-passivity
    block = oracle.probe_many(nodes)  # LINT: obs-passivity
    side = oracle.aux_probe(nodes[0], nodes[1])  # LINT: obs-passivity
    index = oracle.offline_probe_block(nodes, nodes)  # LINT: obs-passivity
    return rng, jitter, one, block, side, index, random, choice, make_rng
