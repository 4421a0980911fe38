"""verify-library and verify-wide: one operation is one
``parallel_soundness_sweep`` call for one program against all of its
allow-policies under one mechanism family."""

import os
import time

import harness
import inputs
import oracles
from repro.core import ProductDomain
from repro.flowchart.fastpath import clear_result_memo, compile_flowchart, \
    run_flowchart
from repro.flowchart.interpreter import DEFAULT_FUEL
from repro.obs.audit import AuditLedger, load_ledger
from repro.surveillance.dynamic import surveil
from repro.surveillance.instrument import instrument
from repro.verify import FACTORIES, all_allow_policies, build_mechanism, \
    evaluate_chunk, merge_chunks, parallel_soundness_sweep
from repro.verify.checkpoint import CheckpointWriter, load_checkpoint


class Op:
    __slots__ = ("program", "family", "low", "group")

    def __init__(self, program, family, low, group):
        self.program = program
        self.family = family
        self.low = low
        self.group = group


class VerifyWorkload:
    """Rounds of sweeps; every program of a round runs under each of
    ``families`` in rotation, on one seeded grid shared by its group so
    that check (c) compares the families' accepts."""

    programs = ()
    families = ()
    width = 3          # grid points per input
    max_low = 0        # lower corners are drawn from [0, max_low]
    durable = False    # fresh checkpoint journal and audit ledger per op
    pooled = False     # large enough for ``executor="auto"`` to pick a pool

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ctors = {name: inputs.library_ctor(name)
                      for name in self.programs}
        self.references = {}
        self.groups = {}
        self.cpu = 0.0
        self.records = []   # per traced op: layer seconds and counts

    # -- operations ------------------------------------------------------

    def round_ops(self, round_index):
        rng = inputs.round_rng(self.seed, self.name, round_index)
        order = list(self.programs)
        rng.shuffle(order)
        ops = []
        for position, program in enumerate(order):
            low = rng.randint(0, self.max_low)
            group = (round_index, position)
            ops.extend(Op(program, family, low, group)
                       for family in self.families)
        return ops

    def warmup_ops(self):
        return self.round_ops(-1)[:len(self.families)]

    def grid(self, low):
        high = low + self.width - 1
        return lambda arity: ProductDomain.integer_grid(low, high, arity)

    def paths(self):
        return (os.path.join(self.workdir, "checkpoint.jsonl"),
                os.path.join(self.workdir, "audit.jsonl"))

    def call(self, op):
        """The timed operation: build the flowchart, sweep it."""
        flowchart = self.ctors[op.program]()
        extra = {}
        if self.durable:
            checkpoint, audit = self.paths()
            extra = {"checkpoint": checkpoint, "audit": audit}
        return parallel_soundness_sweep([flowchart], op.family,
                                        grid=self.grid(op.low), **extra)

    def run_op(self, op, log, tracer=None):
        cpu_before = harness.own_cpu_seconds()
        span = tracer.begin("op", None, program=op.program,
                            family=op.family, low=op.low) if tracer else None
        started = time.perf_counter()
        results = self.call(op)
        latency = time.perf_counter() - started
        if tracer:
            tracer.end(span)
        harness.reap_children()
        self.cpu += harness.own_cpu_seconds() - cpu_before
        log.attempted += 1
        (log.traced if tracer else log.latencies).append(latency)
        for problem in self.check(op, results)[:1]:
            log.fail(f"{op.program}/{op.family}@{op.low}: {problem}")
        if tracer:
            self.replay(op, tracer, latency)

    # -- checks ----------------------------------------------------------

    def reference(self, program, low):
        key = (program, low)
        if key not in self.references:
            flowchart = self.ctors[program]()
            points = oracles.grid(low, low + self.width - 1, flowchart.arity)
            self.references[key] = (points, oracles.noninterference_rows(
                flowchart, points))
        return self.references[key]

    def check(self, op, results):
        points, reference = self.reference(op.program, op.low)
        rows = {oracles.policy_indices(r.policy_name):
                (r.sound, r.accepts, r.domain_size) for r in results}
        problems = oracles.check_family_rows(op.family, rows, points,
                                             reference)
        group = self.groups.setdefault(op.group, {})
        group[op.family] = {allowed: row[1] for allowed, row in rows.items()}
        if len(group) == len(self.families):
            problems += oracles.check_accept_order(group)
            del self.groups[op.group]
        if self.durable:
            problems += self.check_durable()
        return problems

    def check_durable(self):
        """Check (f): one journal entry per chunk; the ledger verifies
        and holds one record per policy class per chunk."""
        checkpoint, audit = self.paths()
        meta, summaries, records = load_checkpoint(checkpoint)
        chunks = [(pair, chunk)
                  for pair, sizes in enumerate(meta["sweep"]["chunks"])
                  for chunk in range(len(sizes))]
        problems = []
        if sorted(summaries) != chunks or records != len(chunks) + 1:
            problems.append(f"journal holds {records - 1} chunk records "
                            f"for {len(chunks)} chunks")
        classes = sum(len(summary.classes) for summary in summaries.values())
        return problems + oracles.check_ledger(audit, classes)

    # -- traced replay ---------------------------------------------------

    def engine_calls(self, family, flowchart, policies, targets):
        """The engine call the family's mechanism makes, per policy."""
        if family == "program":
            return [lambda point: run_flowchart(flowchart, point)
                    for _ in policies]
        if family == "surveillance":
            return [lambda point, target=target: run_flowchart(
                        target, point, capture_env=True)
                    for target in targets]
        timed = family == "timed"
        return [lambda point, allowed=policy.allowed: surveil(
                    flowchart, point, allowed, timed=timed,
                    forgetting=family != "highwater")
                for policy in policies]

    def replay(self, op, tracer, latency):
        """Replay the operation's layers through their public functions."""
        parent = tracer.begin("replay", None, program=op.program,
                              family=op.family)
        t = {}
        flowchart, t["construct"] = tracer.timed(
            "flowchart.construct", parent, self.ctors[op.program])

        def enumerate_pairs():
            domain = self.grid(op.low)(flowchart.arity)
            return all_allow_policies(flowchart.arity), domain, list(domain)

        (policies, domain, points), t["enumerate"] = tracer.timed(
            "verify.enumerate", parent, enumerate_pairs)
        factory = FACTORIES[op.family]
        t["instrument"] = 0.0
        targets = []
        if op.family == "surveillance":
            for policy in policies:
                target, seconds = tracer.timed("surveillance.instrument",
                                               parent, instrument,
                                               flowchart, policy)
                targets.append(target)
                t["instrument"] += seconds
        compiled = ([flowchart] if op.family == "program" else targets)
        t["compile"] = sum(tracer.timed("flowchart.compile", parent,
                                        compile_flowchart, target)[1]
                           for target in compiled)
        mechanisms = []
        t["build"] = 0.0
        for policy in policies:
            mechanism, seconds = tracer.timed(
                "core.mechanism_build", parent, build_mechanism, factory,
                flowchart, policy, domain, DEFAULT_FUEL)
            mechanisms.append(mechanism)
            t["build"] += seconds

        def engine():
            for call in self.engine_calls(op.family, flowchart, policies,
                                          targets):
                for point in points:
                    call(point)

        def mechanism_calls():
            for mechanism in mechanisms:
                for point in points:
                    mechanism(*point)

        fresh = [build_mechanism(factory, flowchart, policy, domain,
                                 DEFAULT_FUEL) for policy in policies]

        def evaluate():
            return [evaluate_chunk(mechanism, policy, points)
                    for mechanism, policy in zip(fresh, policies)]

        clear_result_memo()
        _, t["engine"] = tracer.timed("flowchart.engine", parent, engine)
        clear_result_memo()
        _, t["mechanism"] = tracer.timed("core.mechanism_call", parent,
                                         mechanism_calls)
        clear_result_memo()
        summaries, t["evaluate"] = tracer.timed("verify.evaluate_chunk",
                                                parent, evaluate)
        per_pair = [[summary] for summary in summaries]
        t["checkpoint"] = t["audit"] = 0.0
        chunks, records = len(policies), 0
        if self.durable:
            per_pair, chunks, records, t["checkpoint"], t["audit"] = \
                self.replay_durable(tracer, parent)
        _, t["merge"] = tracer.timed(
            "verify.merge", parent,
            lambda: [merge_chunks(pair) for pair in per_pair])
        tracer.end(parent)
        t["latency"] = latency
        t["evals"] = len(points) * len(policies)
        t["chunks"] = chunks
        t["records"] = records
        self.records.append(t)

    def replay_durable(self, tracer, parent):
        """Re-append the operation's journal and ledger to fresh files."""
        checkpoint, audit = self.paths()
        meta, summaries, _ = load_checkpoint(checkpoint)
        payloads = [{key: value for key, value in record.items()
                     if key not in ("rec", "prev")}
                    for record in load_ledger(audit)]
        layout = meta["sweep"]["chunks"]
        replay_checkpoint = checkpoint + ".replay"
        replay_audit = audit + ".replay"

        def write_checkpoint():
            writer = CheckpointWriter(replay_checkpoint, meta["sweep"])
            for (pair, chunk), summary in sorted(summaries.items()):
                writer.write_chunk(pair, chunk, summary)
            writer.close()

        def write_audit():
            ledger = AuditLedger(replay_audit, fresh=True)
            ledger.append_batch(payloads)
            ledger.close()

        _, checkpoint_s = tracer.timed("verify.checkpoint", parent,
                                       write_checkpoint)
        _, audit_s = tracer.timed("obs.audit", parent, write_audit)
        per_pair = [[summaries[(pair, chunk)] for chunk in range(len(sizes))]
                    for pair, sizes in enumerate(layout)]
        chunks = sum(len(sizes) for sizes in layout)
        return per_pair, chunks, len(payloads), checkpoint_s, audit_s

    # -- metrics ---------------------------------------------------------

    def layers(self):
        """Per-layer rows from the traced operations' replays."""
        records = self.records
        # Pooled sweeps evaluate points on every core at once.
        workers = (os.cpu_count() or 1) if self.pooled else 1

        def per_op_ms(key):
            return harness.mean([r[key] for r in records]) * 1e3

        evals = harness.mean([r["evals"] for r in records])
        engine = per_op_ms("engine")
        mechanism = per_op_ms("mechanism")
        evaluate = per_op_ms("evaluate")
        named = (per_op_ms("construct") + per_op_ms("enumerate")
                 + per_op_ms("instrument")
                 + per_op_ms("compile") + per_op_ms("build")
                 + evaluate / workers + per_op_ms("merge")
                 + per_op_ms("checkpoint") + per_op_ms("audit"))
        return {
            "flowchart.construct_ms_per_op": per_op_ms("construct"),
            "verify.enumerate_ms_per_op": per_op_ms("enumerate"),
            "flowchart.compile_ms_per_op": per_op_ms("compile"),
            "surveillance.instrument_ms_per_op": per_op_ms("instrument"),
            "core.mechanism_build_ms_per_op": per_op_ms("build"),
            "flowchart.engine_us_per_eval": engine * 1e3 / evals,
            "core.wrapper_us_per_eval": (mechanism - engine) * 1e3 / evals,
            "verify.classify_us_per_eval":
                (evaluate - mechanism) * 1e3 / evals,
            "verify.merge_ms_per_op": per_op_ms("merge"),
            "verify.checkpoint_ms_per_op": per_op_ms("checkpoint"),
            "obs.audit_ms_per_op": per_op_ms("audit"),
            "verify.residual_ms_per_op": per_op_ms("latency") - named,
            "verify.evals_per_op": evals,
            "verify.chunks_per_op": harness.mean(
                [r["chunks"] for r in records]),
            "obs.audit_records_per_op": harness.mean(
                [r["records"] for r in records]),
        }

    def close(self):
        pass


class VerifyLibrary(VerifyWorkload):
    name = "verify-library"
    programs = tuple(inputs.library_names())
    families = inputs.FAMILIES
    width = 3
    max_low = 40


class VerifyWide(VerifyWorkload):
    name = "verify-wide"
    programs = inputs.WIDE_PROGRAMS
    families = ("program", "surveillance")
    width = 40
    max_low = 10
    durable = True
    pooled = True
