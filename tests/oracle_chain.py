"""The two-variable chain loop, kept as the oracle of ``egy.measure.chain_check``.

``chain_check`` is ``egy.measure.chain_check`` as it was before it kept
only the failure level: a ``verdict`` flag and the last accepted
denominator ``last_denom`` run beside ``failure``, each difference is
checked against ``last_denom``, and the base representation search runs
only while ``verdict`` holds.  It returns the report's fields as a tuple
(best values, diffs, verdict, failure level, base representation) and
skips the argument checks.  ``tests/test_measure.py`` diffs
``chain_check`` against it.
"""

from egy.rational import EgyptianRep
from egy.search import best_underapprox, has_representation


def chain_check(x, n0, t, stop_on_failure=False, node_budget=None):
    values = []
    diffs = []
    verdict = True
    failure = None
    last_denom = 0
    for level in range(n0, t + 1):
        value, _ = best_underapprox(x, level, node_budget)
        values.append(value)
        if level > n0:
            diff = value - values[-2]
            diffs.append(diff)
            if diff.numerator == 1 and diff.denominator > last_denom:
                last_denom = diff.denominator
            else:
                verdict = False
                if failure is None:
                    failure = level
                if stop_on_failure:
                    break
    base_rep = None
    if verdict:
        if n0 == 0:
            base_rep = EgyptianRep(())
        else:
            base_rep = has_representation(values[0], n0, diffs[0].denominator - 1, node_budget)
            if base_rep is None:
                verdict = False
                failure = n0
    return tuple(values), tuple(diffs), verdict, failure, base_rep
