"""The benchmark's inputs: programs, request bodies and seeded rounds.

Every operation list is a pure function of ``(seed, workload, round)``:
``round_rng`` seeds one ``random.Random`` per round, so a run that
stops after ``n`` whole rounds has executed exactly the first ``n``
rounds of that seed, whatever the run length.
"""

import functools
import itertools
import random

#: Mechanism families of ``repro.verify.parallel.FACTORIES``, in the
#: rotation order the verify workloads use.
FAMILIES = ("program", "surveillance", "timed", "highwater")

#: Library constructors by program name: the 16 non-dynamic programs of
#: ``repro.flowchart.library.extended_suite``.
_LIBRARY_CTORS = (
    ("timing-loop", "timing_loop", ()),
    ("forgetting", "forgetting_program", ()),
    ("reconvergence", "reconvergence_program", ()),
    ("example8", "example8_program", ()),
    ("example9", "example9_program", ()),
    ("theorem4-A0", "theorem4_flowchart", (0,)),
    ("theorem4-A3", "theorem4_flowchart", (3,)),
    ("parity", "parity_program", ()),
    ("guarded-copy", "guarded_copy_program", ()),
    ("mixer", "mixer_program", ()),
    ("max", "max_program", ()),
    ("min", "min_program", ()),
    ("nested-branch", "nested_branch_program", ()),
    ("accumulate", "accumulate_program", ()),
    ("gcd", "gcd_program", ()),
    ("countdown-pair", "countdown_pair_program", ()),
)

#: The arity-2 library programs swept on the wide grid.
WIDE_PROGRAMS = ("forgetting", "reconvergence", "example8", "example9",
                 "guarded-copy", "mixer", "max", "min", "gcd",
                 "countdown-pair")

#: Library programs whose step count grows with their inputs.
LOOP_PROGRAMS = ("timing-loop", "accumulate", "gcd", "countdown-pair")

#: Non-dynamic programs addressable by name over HTTP (``repro.cli.LIBRARY``).
SERVE_LIBRARY = ("timing-loop", "forgetting", "reconvergence", "example7",
                 "example8", "example9", "parity", "guarded-copy", "mixer",
                 "max", "nested-branch", "accumulate", "fault-channel",
                 "gcd", "min", "countdown-pair")

#: Programs sent to ``/execute`` as source text.
SERVE_SOURCES = {
    "affine": "program affine(x1, x2) { y := 3 * x1 + x2 - 7 }",
    "clamp": ("program clamp(x1, x2) {\n"
              "    if x1 > x2 { y := x2 } else { y := x1 }\n}"),
    "digits": ("program digits(x1) {\n    r := x1;\n    y := 0;\n"
               "    while r != 0 { y := y + 1; r := r // 10 }\n}"),
    "mod-sum": ("program modsum(x1, x2, x3) {\n"
                "    y := (x1 + x2) % 17;\n"
                "    if x3 == 0 { y := y + 1 }\n}"),
    "collatz-ish": ("program collatzish(x1) {\n    r := x1;\n    y := 0;\n"
                    "    while r > 1 {\n"
                    "        if r % 2 == 0 { r := r // 2 }"
                    " else { r := r - 1 };\n"
                    "        y := y + 1\n    }\n}"),
    "select": ("program select(x1, x2) {\n"
               "    y := x2;\n    if x1 == 0 { y := 0 }\n}"),
}

#: The channel programs of the dist workload: a two-hop relay and a
#: ping-pong loop whose message count grows with ``x1``.
DIST_SOURCES = {
    "relay": """
program relay(x1, x2) {
    s := x1 + x2;
    send a(s);
    recv a(u);
    t := u * 2;
    send b(t);
    recv b(v);
    y := v + x1
}
""",
    "pingpong": """
program pingpong(x1, x2) {
    n := x1;
    acc := 0;
    while n != 0 {
        send ping(n);
        recv ping(m);
        acc := acc + m * x2;
        n := n - 1
    };
    y := acc
}
""",
}


def library_names():
    return [name for name, _, _ in _LIBRARY_CTORS]


def library_ctor(name):
    """A zero-argument constructor that builds a fresh flowchart."""
    from repro.flowchart import library

    for known, attr, args in _LIBRARY_CTORS:
        if known == name:
            return functools.partial(getattr(library, attr), *args)
    raise KeyError(name)


def round_rng(seed, workload, round_index):
    return random.Random(f"perfbench:{workload}:{seed}:{round_index}")


def policy_sets(arity):
    """Every allow-set over ``arity`` inputs, smallest first."""
    return [subset for size in range(arity + 1)
            for subset in itertools.combinations(range(1, arity + 1), size)]
