"""The generators' programs are valid SL: each one resolves.  Where a
tighter rule of the language rejects a generated shape, these tests fail
and name the generator and its input (the file name in the error), before
the goldens recorded from those programs drift."""

import random

from overrun_lint.frontend import parse_source
from overrun_lint.semantics import build_symbol_table

from progen import gen_bound_program, seeded_unit


def test_every_seeded_unit_resolves():
    for seed in range(300):
        build_symbol_table(parse_source(seeded_unit(seed), f"seeded_unit{seed}.sl"))


def test_every_bound_program_resolves():
    rng = random.Random(7)
    for k in range(500):
        build_symbol_table(parse_source(gen_bound_program(rng).source, f"gen_bound_program{k}.sl"))
