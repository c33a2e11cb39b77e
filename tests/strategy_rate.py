"""How many of the libraries that the tests' `_libraries` strategy
(`test_properties.py`) draws build: 1000 examples drawn from a fixed seed,
each given to `build_library`, then the number that built and the error
class of each one that did not, most frequent first. The drawing depends on
the seed and the strategy alone, not on the source of any test function, so
the rate moves only with the strategy, the build or hypothesis's version.

    PYTHONPATH=src python tests/strategy_rate.py
"""

from __future__ import annotations

import sys
from collections import Counter

from hypothesis import HealthCheck, Phase, given, seed, settings

from godp import build_library
from test_properties import _libraries

EXAMPLES, SEED = 1000, 20240601


def rate(examples: int = EXAMPLES) -> tuple[int, Counter]:
    """The examples drawn, at most `examples`, and the outcome of building
    each: "built" or the name of the exception class that stopped it."""
    outcomes: Counter = Counter()

    @seed(SEED)
    @settings(max_examples=examples, derandomize=False, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(_libraries())
    def draw(ast) -> None:
        try:
            build_library(ast)
        except Exception as e:  # a crash is an outcome to count, like an error
            outcomes[type(e).__name__] += 1
        else:
            outcomes["built"] += 1

    draw()
    return sum(outcomes.values()), outcomes


def main() -> int:
    drawn, outcomes = rate()
    built = outcomes.pop("built", 0)
    causes = ", ".join(f"{name} {n}" for name, n in sorted(outcomes.items(), key=lambda kv: (-kv[1], kv[0])))
    print(f"{built} of {drawn} libraries build ({built / drawn:.1%}); the others stop on: {causes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
