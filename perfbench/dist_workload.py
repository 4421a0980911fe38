"""dist-relay: sequential two-node ``run_distributed`` runs of the
relay and ping-pong channel programs.  One operation is one run."""

import time

import harness
import inputs
import oracles
from repro.dist import build_partition, run_distributed, serial_reference
from repro.flowchart.parser import parse_program

NODES = 2
PINGPONG_COUNTS = (2, 3, 3, 4)


class Op:
    __slots__ = ("program", "inputs", "allowed")

    def __init__(self, program, values, allowed):
        self.program = program
        self.inputs = values
        self.allowed = allowed


class DistRelay:
    """Each round runs both programs under every allow-set of their two
    inputs, in a seeded order, on seeded inputs."""

    name = "dist-relay"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.flowcharts = {name: parse_program(source).compile()
                           for name, source in inputs.DIST_SOURCES.items()}
        self.cpu = 0.0
        self.records = []

    def round_ops(self, round_index):
        rng = inputs.round_rng(self.seed, self.name, round_index)
        # Ping-pong's message count grows with x1: every round uses the
        # same multiset of loop counts, dealt to the policies by the seed.
        counts = list(PINGPONG_COUNTS)
        rng.shuffle(counts)
        ops = []
        for allowed, count in zip(inputs.policy_sets(2), counts):
            ops.append(Op("pingpong", (count, rng.randint(0, 1000)),
                          allowed))
            ops.append(Op("relay", (rng.randint(0, 1000),
                                    rng.randint(0, 1000)), allowed))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return self.round_ops(-1)[:2]

    def run_op(self, op, log, tracer=None):
        flowchart = self.flowcharts[op.program]
        cpu_before = harness.own_cpu_seconds()
        span = tracer.begin("op", None, program=op.program) if tracer else None
        started = time.perf_counter()
        result = run_distributed(flowchart, op.inputs, op.allowed,
                                 nodes=NODES)
        latency = time.perf_counter() - started
        if tracer:
            tracer.end(span)
        harness.reap_children()
        self.cpu += harness.own_cpu_seconds() - cpu_before
        log.attempted += 1
        (log.traced if tracer else log.latencies).append(latency)
        for problem in self.check(op, flowchart, result)[:1]:
            log.fail(f"{op.program}{op.inputs} allow{op.allowed}: {problem}")
        if tracer:
            self.replay(op, flowchart, result, tracer, latency)

    def check(self, op, flowchart, result):
        """Check (e): the row equals the serial reference, and an
        accepted run's value equals the interpreter's."""
        problems = []
        reference = serial_reference(flowchart, op.inputs, op.allowed)
        if result.row() != reference:
            problems.append(f"row {result.row()} != serial {reference}")
        if not result.violated:
            value, _, notice = oracles.reference_output(flowchart, op.inputs)
            if notice is not None or result.outcome != value:
                problems.append(f"value {result.outcome} != interpreter "
                                f"{value} {notice or ''}")
        return problems

    def replay(self, op, flowchart, result, tracer, latency):
        parent = tracer.begin("replay", None, program=op.program)
        _, partition = tracer.timed("dist.partition", parent,
                                    build_partition, flowchart, NODES)
        _, reference = tracer.timed("dist.reference", parent,
                                    serial_reference, flowchart, op.inputs,
                                    op.allowed)
        tracer.end(parent)
        self.records.append({
            "latency": latency, "partition": partition,
            "reference": reference, "inner": result.elapsed_s,
            "messages": result.messages_sent,
            "retries": result.messages_retried})

    def layers(self):
        def mean(key):
            return harness.mean([record[key] for record in self.records])

        return {
            "dist.partition_ms": mean("partition") * 1e3,
            "dist.reference_ms": mean("reference") * 1e3,
            "dist.overhead_ms": (mean("latency") - mean("reference")) * 1e3,
            "dist.inner_ms": mean("inner") * 1e3,
            "dist.residual_ms": (mean("latency") - mean("inner")
                                 - mean("partition")) * 1e3,
            "dist.messages_per_run": mean("messages"),
            "dist.retries_per_run": mean("retries"),
        }

    def close(self):
        pass
