"""serve-mixed: a closed loop of two keep-alive clients against
``repro serve --audit`` running in its own process.  One operation is
one HTTP request and its response."""

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import harness
import inputs
import oracles

#: Requests per round, by kind: 75% /execute (half of them repeats),
#: 10% /sweep (one program and grid under all four families), 10%
#: /lint and 5% /explain.
ROUND_NEW_EXECUTE = 15
ROUND_REPEAT_EXECUTE = 15
ROUND_LINT = 4
ROUND_EXPLAIN = 2
CLIENTS = 2
#: A repeat copies a request at least this many positions back, so its
#: original has been answered when it is sent.
REPEAT_LAG = 8
#: Warm-up /execute requests, also the first candidates for repeats.
WARMUP_EXECUTES = 10


class Request:
    __slots__ = ("kind", "path", "body", "group", "family", "repeat",
                 "status", "response", "latency", "traced")

    def __init__(self, kind, path, body, group=None, family=None,
                 repeat=False):
        self.kind = kind
        self.path = path
        self.body = body
        self.group = group
        self.family = family
        self.repeat = repeat
        self.status = None
        self.response = None
        self.latency = None
        self.traced = False


def _arity(name):
    from repro.cli import LIBRARY
    from repro.flowchart.parser import parse_program

    if name in inputs.SERVE_SOURCES:
        return parse_program(inputs.SERVE_SOURCES[name]).compile().arity
    return LIBRARY[name]().arity


class RequestMix:
    """Seeded rounds of requests; repeats draw on everything earlier."""

    def __init__(self, seed):
        self.seed = seed
        self.arity = {name: _arity(name) for name in
                      inputs.SERVE_LIBRARY + tuple(inputs.SERVE_SOURCES)}
        self.history = []   # every /execute body generated so far
        self.used = set()

    def _execute_body(self, rng):
        while True:
            if rng.random() < 2 / 3:
                name = rng.choice(inputs.SERVE_LIBRARY)
                program = {"library": name}
            else:
                name = rng.choice(sorted(inputs.SERVE_SOURCES))
                program = {"source": inputs.SERVE_SOURCES[name]}
            top = 255 if name in inputs.LOOP_PROGRAMS else 4095
            values = [rng.randint(0, top) for _ in range(self.arity[name])]
            key = (name, tuple(values))
            if key not in self.used:
                self.used.add(key)
                return dict(program, inputs=values)

    def _policy(self, rng, arity):
        indices = rng.choice(inputs.policy_sets(arity))
        return "allow(" + ", ".join(map(str, indices)) + ")"

    def warmup(self):
        rng = inputs.round_rng(self.seed, "serve-mixed", -1)
        requests = []
        for _ in range(WARMUP_EXECUTES):
            body = self._execute_body(rng)
            self.history.append(body)
            requests.append(Request("execute", "/execute", body))
        name = rng.choice(inputs.SERVE_LIBRARY)
        policy = self._policy(rng, self.arity[name])
        requests.append(Request("sweep", "/sweep", {
            "programs": [name], "mechanism": "surveillance",
            "low": 50, "high": 52}))
        requests.append(Request("explain", "/explain", {
            "library": name, "policy": policy,
            "inputs": [1] * self.arity[name]}))
        return requests

    def round(self, index):
        rng = inputs.round_rng(self.seed, "serve-mixed", index)
        slots = (["new"] * ROUND_NEW_EXECUTE
                 + ["repeat"] * ROUND_REPEAT_EXECUTE
                 + [family for family in inputs.FAMILIES]
                 + ["lint"] * ROUND_LINT + ["explain"] * ROUND_EXPLAIN)
        rng.shuffle(slots)
        sweep_program = rng.choice(inputs.SERVE_LIBRARY)
        low = rng.randint(0, 30)
        requests = []
        for slot in slots:
            if slot == "new":
                body = self._execute_body(rng)
                self.history.append(body)
                requests.append(Request("execute", "/execute", body))
            elif slot == "repeat":
                body = rng.choice(self.history[:-REPEAT_LAG])
                self.history.append(body)
                requests.append(Request("execute", "/execute", body,
                                        repeat=True))
            elif slot in inputs.FAMILIES:
                requests.append(Request("sweep", "/sweep", {
                    "programs": [sweep_program], "mechanism": slot,
                    "low": low, "high": low + 2},
                    group=index, family=slot))
            elif slot == "lint":
                name = rng.choice(inputs.SERVE_LIBRARY)
                requests.append(Request("lint", "/lint", {
                    "library": name,
                    "policy": self._policy(rng, self.arity[name])}))
            else:
                name = rng.choice(inputs.SERVE_LIBRARY)
                requests.append(Request("explain", "/explain", {
                    "library": name,
                    "policy": self._policy(rng, self.arity[name]),
                    "inputs": [rng.randint(0, 20)
                               for _ in range(self.arity[name])]}))
        return requests


class Client:
    def __init__(self, port):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)

    def send(self, method, path, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self):
        self.connection.close()


def scrape_counters(client):
    status, text = client.send("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    counters = {}
    for line in text.decode().splitlines():
        match = re.match(r"^(repro_serve_[a-z_]+) ([0-9.e+]+)$", line)
        if match:
            counters[match.group(1)] = float(match.group(2))
    return counters


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ledger = os.path.join(workdir, "serve-audit.jsonl")
        self.mix = RequestMix(seed)
        self.process = None
        self.port = None
        self.requests = []
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.hit_ratio = 0.0
        self.replays = {}

    # -- server lifetime -------------------------------------------------

    def setup(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.stderr = open(os.path.join(self.workdir, "serve.err"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--audit", self.ledger],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.stderr)
        deadline = time.monotonic() + 60
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready or self.process.poll() is not None:
                raise RuntimeError("repro serve did not start")
            line += os.read(self.process.stdout.fileno(), 4096)
        match = re.search(rb"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            raise RuntimeError(f"unexpected serve banner {line!r}")
        self.port = int(match.group(1))

    def warmup(self):
        client = Client(self.port)
        try:
            for request in self.mix.warmup():
                status, _ = client.send("POST", request.path, request.body)
                if status != 200:
                    raise RuntimeError(f"warm-up {request.path}: {status}")
        finally:
            client.close()

    def close(self):
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.stderr.close()
        self.process = None

    # -- the timed phase -------------------------------------------------

    def run_phase(self, seconds, trace, log, tracer):
        lock = threading.Lock()
        state = {"round": 0, "queue": [], "started": None, "errors": []}

        def next_request():
            with lock:
                if not state["queue"]:
                    elapsed = time.perf_counter() - state["started"]
                    if state["round"] > 0 and elapsed >= seconds:
                        return None
                    batch = self.mix.round(state["round"])
                    traced = trace and state["round"] % 2 == 0
                    for request in batch:
                        request.traced = traced
                    state["round"] += 1
                    state["queue"].extend(batch)
                    self.requests.extend(batch)
                return state["queue"].pop(0)

        def client_loop(index):
            client = Client(self.port)
            root = tracer.begin(f"client{index}") if tracer else None
            try:
                while True:
                    request = next_request()
                    if request is None:
                        return
                    span = (tracer.begin(request.path, root)
                            if request.traced else None)
                    started = time.perf_counter()
                    status, data = client.send("POST", request.path,
                                               request.body)
                    request.latency = time.perf_counter() - started
                    if span is not None:
                        tracer.end(span)
                    request.status = status
                    request.response = data
            except Exception as error:  # reported, fails the run
                state["errors"].append(repr(error))
            finally:
                if root is not None:
                    tracer.end(root)
                client.close()

        probe = Client(self.port)
        before = scrape_counters(probe)
        cpu_before = harness.proc_cpu_seconds(self.process.pid)
        state["started"] = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.elapsed = time.perf_counter() - state["started"]
        log.rounds = state["round"]
        self.cpu = harness.proc_cpu_seconds(self.process.pid) - cpu_before
        self.rss_mb = harness.proc_peak_rss_mb(self.process.pid)
        after = scrape_counters(probe)
        probe.close()
        hits = sum(after.get(name, 0) - before.get(name, 0)
                   for name in after if name.endswith("_cache_hits"))
        served = (after["repro_serve_requests"]
                  - before["repro_serve_requests"] - 1)
        self.hit_ratio = hits / served
        for error in state["errors"]:
            log.fail(f"client error: {error}")
        for request in self.requests:
            log.attempted += 1
            if request.latency is None:
                continue
            (log.traced if request.traced else log.latencies).append(
                request.latency)
        if trace:
            self.replay(tracer)

    # -- checks ----------------------------------------------------------

    def check(self, log):
        """Checks (d) and (f) on every response and the server's ledger,
        after the server has shut down."""
        from repro.cli import LIBRARY
        from repro.flowchart.parser import parse_program

        flowcharts = {}

        def flowchart_of(body):
            key = body.get("library") or body.get("source")
            if key not in flowcharts:
                flowcharts[key] = (LIBRARY[key]() if "library" in body
                                   else parse_program(key).compile())
            return flowcharts[key]

        groups = {}
        for request in self.requests:
            if request.latency is None:
                continue   # never sent: a client failed before it
            if request.status != 200:
                log.fail(f"{request.path} answered {request.status}: "
                         f"{request.response[:200]!r}")
                continue
            response = json.loads(request.response)
            problems = []
            if request.kind == "execute":
                fc = flowchart_of(request.body)
                want = oracles.reference_output(
                    fc, tuple(request.body["inputs"]),
                    fuel=response["fuel"], value_cap=response["value_cap"])
                got = (response["value"], response["steps"],
                       response["notice"])
                if got != want:
                    problems.append(f"/execute {request.body}: {got} != "
                                    f"reference {want}")
            elif request.kind == "sweep":
                problems += self.check_sweep(request, response, groups)
            elif request.kind == "lint":
                if len(response.get("reports", ())) != 1:
                    problems.append(f"/lint {request.body}: no report")
            elif not isinstance(response.get("violated"), bool):
                problems.append(f"/explain {request.body}: no verdict")
            for problem in problems[:1]:
                log.fail(problem)
        for group in groups.values():
            for problem in oracles.check_accept_order(group)[:1]:
                log.fail(f"/sweep group: {problem}")
        for problem in oracles.check_ledger(self.ledger):
            log.fail(problem)

    def check_sweep(self, request, response, groups):
        from repro.cli import LIBRARY

        body = request.body
        flowchart = LIBRARY[body["programs"][0]]()
        points = oracles.grid(body["low"], body["high"], flowchart.arity)
        reference = (oracles.noninterference_rows(flowchart, points)
                     if request.family == "program" else None)
        rows = {oracles.policy_indices(row["policy"]):
                (row["sound"], row["accepts"], row["domain_size"])
                for row in response["rows"]}
        if request.group is not None:
            groups.setdefault(request.group, {})[request.family] = {
                allowed: row[1] for allowed, row in rows.items()}
        return oracles.check_family_rows(body["mechanism"], rows, points,
                                         reference)

    # -- traced replay and metrics ---------------------------------------

    def replay(self, tracer):
        """Schema parsing of every traced body, and the engine work of
        every traced /execute miss, replayed in-process."""
        from repro.flowchart.fastpath import run_flowchart
        from repro.serve.schema import parse_execute, parse_explain, \
            parse_lint, parse_sweep

        parsers = {"execute": parse_execute, "sweep": parse_sweep,
                   "lint": parse_lint, "explain": parse_explain}
        parent = tracer.begin("replay")
        schema, work = {}, []
        interned = {}
        for request in self.requests:
            if not request.traced or request.status != 200:
                continue
            parsed, seconds = tracer.timed("serve.schema", parent,
                                           parsers[request.kind],
                                           request.body)
            schema.setdefault(request.kind, []).append(seconds)
            if request.kind != "execute" or request.repeat:
                continue
            response = json.loads(request.response)
            key = request.body.get("library") or request.body["source"]
            flowchart = interned.setdefault(key, parsed.flowchart)
            _, seconds = tracer.timed(
                "flowchart.run", parent, run_flowchart, flowchart,
                parsed.inputs, fuel=response["fuel"],
                value_cap=response["value_cap"])
            work.append(seconds)
        tracer.end(parent)
        self.replays = {"schema": schema, "work": work}

    def layers(self):
        def p50_ms(kind, repeat=None):
            return harness.median([
                r.latency for r in self.requests
                if r.traced and r.kind == kind and r.latency is not None
                and (repeat is None or r.repeat == repeat)]) * 1e3

        miss = p50_ms("execute", repeat=False)
        schema = self.replays["schema"]
        schema_us = harness.mean(
            [seconds for kind in schema for seconds in schema[kind]]) * 1e6
        execute_schema_us = harness.median(schema["execute"]) * 1e6
        work_us = harness.median(self.replays["work"]) * 1e6
        return {
            "serve.execute_miss_p50_ms": miss,
            "serve.execute_hit_p50_ms": p50_ms("execute", repeat=True),
            "serve.sweep_p50_ms": p50_ms("sweep"),
            "serve.lint_p50_ms": p50_ms("lint"),
            "serve.explain_p50_ms": p50_ms("explain"),
            "serve.cache_hit_ratio": self.hit_ratio,
            "serve.schema_us_per_req": schema_us,
            "serve.execute_work_us": work_us,
            "serve.wait_ms": miss - (execute_schema_us + work_us) / 1e3,
        }
