"""Kernel mutants that a statistical acceptance criterion must catch.

Each row rewrites one line of one library function, sets constants on the
modules that declare them, and runs a criterion's own statistic function on
the mutated library; the row passes when the statistic exceeds the
criterion's bound.  The mutant is built from the live source of the
function, so a row whose line no longer exists fails instead of testing the
unchanged code.
"""

import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable

import pytest

from pahyper import Constant, TruncatedZipf, core, generator
from oracles import criterion_12, criterion_13, criterion_14


@dataclass(frozen=True)
class Mutant:
    name: str
    module: object      # the module, or class, that holds the function
    function: str
    old: str            # text found once in the function, replaced by new
    new: str
    constants: tuple    # (module, name, value) of each constant set for the row
    statistic: Callable[[], tuple[float, int, float]]   # (value, cells, bound)


MUTANTS = [
    # every draw of a 192-slot chunk is uniform over the slots before the
    # chunk: degrees as of the chunk's start, not of the step's
    Mutant("stale-chunk-degrees", generator, "_fill_stream",
           "np.repeat(block_starts, sizes - vertex)",
           "np.repeat(np.full(t1 - t0, base), sizes - vertex)",
           ((core, "PIECE_IDS", 192),),
           lambda: criterion_12(Constant(3))),
    # a draw of an arrival step may land on the step's own new vertex, the
    # first slot of its block, which criterion 12's means cannot see
    Mutant("own-block-draws", generator, "_fill_stream",
           "np.repeat(block_starts, sizes - vertex)",
           "np.repeat(block_starts + vertex, sizes - vertex)",
           (),
           lambda: criterion_13(Constant(3))),
    # 2% fewer arrivals, which criteria 12 and 13 read off the file
    Mutant("arrival-rate", generator, "_fill_stream",
           "events.random(t1 - t0) < p",
           "events.random(t1 - t0) < 0.98 * p",
           (),
           lambda: criterion_14(Constant(3))[0]),
    # Zipf sizes at exponent 2.6 for 2.5
    Mutant("zipf-exponent", TruncatedZipf, "_weights",
           "w = k ** -self.exponent",
           "w = k ** -(self.exponent + 0.1)",
           (),
           lambda: criterion_14(TruncatedZipf(2.5, 2, 20))[1]),
]


def _mutated(mutant: Mutant):
    """The function with mutant.old replaced, reading its module's globals."""
    function = getattr(mutant.module, mutant.function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.old) == 1, f"{mutant.name}: line not found once"
    scope: dict = {}
    exec(compile(source.replace(mutant.old, mutant.new), function.__code__.co_filename,
                 "exec"), function.__globals__, scope)
    return scope[mutant.function]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_criterion_fails_on_mutant(mutant, monkeypatch):
    monkeypatch.setattr(mutant.module, mutant.function, _mutated(mutant))
    for module, name, value in mutant.constants:
        monkeypatch.setattr(module, name, value)
    value, _, bound = mutant.statistic()
    assert value > bound, f"{mutant.name} passes: {value:.2f} <= {bound:.2f}"
