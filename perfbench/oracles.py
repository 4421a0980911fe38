"""Output checks computed apart from the code under test.

Each returns a list of problems (empty when the output is right).  The
reference is the tree-walking interpreter ``repro.flowchart.interpreter.
execute`` (the repository's single reference semantics) or a property
the paper proves; never a stored copy of an earlier output.
"""

import itertools

from repro.core.errors import FuelExhaustedError, MessageError, \
    ValueCapExceededError
from repro.flowchart.interpreter import DEFAULT_FUEL, execute

SURVEILLED = ("surveillance", "timed", "highwater")


def reference_output(flowchart, point, fuel=DEFAULT_FUEL, value_cap=None):
    """``(value, steps, notice)`` of the reference interpreter."""
    try:
        result = execute(flowchart, point, fuel=fuel, value_cap=value_cap)
    except FuelExhaustedError as error:
        return None, None, f"Λ!fuel[{error.fuel}]"
    except ValueCapExceededError as error:
        return None, None, f"Λ!cap[{error.cap}]"
    except MessageError as error:
        return None, None, f"Λ!msg[{error.detail}]"
    return result.value, result.steps, None


def grid(low, high, arity):
    return list(itertools.product(range(low, high + 1), repeat=arity))


def noninterference_rows(flowchart, points, fuel=DEFAULT_FUEL):
    """Check (b): the program family's verdict for every allow-set.

    Q is sound as its own mechanism for allow(J) iff its output is
    constant on every group of points that agree on the inputs in J.
    Returns ``{allowed-indices: (sound, accepts)}``.
    """
    outputs = [reference_output(flowchart, point, fuel) for point in points]
    accepts = sum(1 for _, _, notice in outputs if notice is None)
    rows = {}
    for size in range(flowchart.arity + 1):
        for allowed in itertools.combinations(range(flowchart.arity), size):
            seen = {}
            sound = True
            for point, (value, _, notice) in zip(points, outputs):
                key = tuple(point[index] for index in allowed)
                observed = notice if notice is not None else value
                if seen.setdefault(key, observed) != observed:
                    sound = False
                    break
            rows[tuple(index + 1 for index in allowed)] = (sound, accepts)
    return rows


def policy_indices(policy_name):
    """``"allow(1, 3)"`` -> ``(1, 3)``."""
    inner = policy_name[policy_name.index("(") + 1:policy_name.rindex(")")]
    return tuple(int(part) for part in inner.split(",") if part.strip())


def check_family_rows(family, rows, points, reference=None):
    """Checks (a) and (b) on one family's rows for one program.

    ``rows`` maps allow-indices to ``(sound, accepts, domain_size)``;
    ``reference`` is :func:`noninterference_rows` for the program family.
    """
    problems = []
    arity = len(points[0]) if points else 0
    if len(rows) != 2 ** arity:
        problems.append(f"{family}: {len(rows)} rows, expected {2 ** arity}")
    for allowed, (sound, accepts, size) in rows.items():
        if size != len(points):
            problems.append(f"{family} allow{allowed}: domain {size}, "
                            f"expected {len(points)}")
        if not 0 <= accepts <= len(points):
            problems.append(f"{family} allow{allowed}: accepts {accepts}")
        if family in SURVEILLED and not sound:
            problems.append(f"{family} allow{allowed}: unsound row")
        if family == "program":
            want = reference.get(allowed)
            if want != (sound, accepts):
                problems.append(f"program allow{allowed}: (sound, accepts) "
                                f"= {(sound, accepts)}, reference {want}")
    return problems


def check_accept_order(by_family):
    """Check (c): hw <= surveillance <= program and timed <= surveillance.

    ``by_family`` maps family -> {allow-indices: accepts}; families that
    are absent are skipped.
    """
    problems = []
    pairs = (("highwater", "surveillance"), ("surveillance", "program"),
             ("timed", "surveillance"))
    for lower, upper in pairs:
        if lower not in by_family or upper not in by_family:
            continue
        for allowed, accepts in by_family[lower].items():
            bound = by_family[upper].get(allowed)
            if bound is None or accepts > bound:
                problems.append(f"accepts({lower}) = {accepts} > "
                                f"accepts({upper}) = {bound} "
                                f"for allow{allowed}")
    return problems


def check_ledger(path, expected_records=None):
    """Check (f): the ledger's hash chain verifies (and has the records)."""
    from repro.obs.audit import verify_ledger

    result = verify_ledger(path)
    problems = [] if result.ok else [f"ledger {path}: {result.problems[:3]}"]
    if expected_records is not None and result.records != expected_records:
        problems.append(f"ledger {path}: {result.records} records, "
                        f"expected {expected_records}")
    return problems
