"""Layer boundaries of the program, and the wrappers that time them.

Every wrapper sits in this benchmark's files, around a call into one
layer's public function; nothing inside ``repro`` is changed. A wrapped
call opens its layer on the :class:`speed.SegmentClock`, so its self
time is its duration minus the wrapped calls inside it.

Untraced iterations install exactly one wrapper, around
``Simulation.run``: it cuts the clock at entry and exit and passes the
probe observer to the run. Traced iterations add every layer below.
"""

#: Name of the one wrapper an untraced iteration installs.
RUN_WRAPPER = "Simulation.run"


class SetupComplete(BaseException):
    """Raised at the first ``Simulation.run`` call of a setup-only iteration.

    A ``BaseException`` so that no ``except Exception`` on the way up,
    such as the sweep's error collection, mistakes it for a failed run.
    """


def layer_table():
    """``(owner, attribute, layer, label)`` for every traced boundary.

    Imported lazily: the iteration calls this only after ``repro.cli``
    (and with it every module below) has been imported and timed.
    """
    import repro.cli
    from repro.catalog.generator import CatalogGenerator
    from repro.catalog.server import MetadataServer
    from repro.core.mbt import MobileBitTorrent
    from repro.exec import TraceSpec
    from repro.experiments import FIGURES
    from repro.sim.metrics import MetricsCollector
    from repro.sim.runner import Simulation

    table = [
        (repro.cli, "main", "cli", "repro.cli.main"),
        (repro.cli, "build_trace", "exec", "repro.exec.build_trace"),
        (TraceSpec, "build", "traces.build", "TraceSpec.build"),
        (Simulation, "__init__", "runner.setup", "Simulation.__init__"),
        (MobileBitTorrent, "handle_contacts", "mbt.contacts",
         "MobileBitTorrent.handle_contacts"),
        (MobileBitTorrent, "internet_sync", "mbt.sync", "MobileBitTorrent.internet_sync"),
        (MobileBitTorrent, "expire_all", "mbt.expire", "MobileBitTorrent.expire_all"),
        (MobileBitTorrent, "on_daily_batch", "mbt.publish", "MobileBitTorrent.on_daily_batch"),
        (MetadataServer, "search", "server.search", "MetadataServer.search"),
        (MetadataServer, "top_popular", "server.top_popular", "MetadataServer.top_popular"),
        (MetadataServer, "refresh_popularities", "server.refresh",
         "MetadataServer.refresh_popularities"),
        (CatalogGenerator, "generate_day", "generator.generate", "CatalogGenerator.generate_day"),
        (MetricsCollector, "result", "metrics.result", "MetricsCollector.result"),
    ]
    # The sweep command looks figure functions up in this registry.
    for name in sorted(FIGURES):
        table.append((FIGURES, name, "exec", f"FIGURES[{name!r}]"))
    return table


def _get(owner, attribute):
    return owner[attribute] if isinstance(owner, dict) else getattr(owner, attribute)


def _set(owner, attribute, value):
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


def installed_wrappers():
    """Labels of every benchmark wrapper now installed on the program."""
    from repro.sim.runner import Simulation

    boundaries = [(Simulation, "run")]
    boundaries += [(owner, attribute) for owner, attribute, __, __ in layer_table()]
    return [
        _get(owner, attribute).bench_label
        for owner, attribute in boundaries
        if hasattr(_get(owner, attribute), "bench_label")
    ]


class Instrumentation:
    """Installs the run wrapper (always) and layer wrappers (traced only).

    Collects what the iteration reports: every run result, the scaled
    setup time (entry of the first run) and the scaled time inside
    ``Simulation.run``; in traced mode also call counts, records
    returned by the metadata server and contacts of built traces.
    """

    def __init__(self, clock, traced, setup_only=False):
        from repro.sim.runner import Simulation

        self.clock = clock
        self.traced = traced
        self.setup_only = setup_only
        self.results = []
        self.setup_s = None
        self.run_s = 0.0
        self.calls = {}
        self.records_returned = 0
        self.trace_contacts = 0
        self._patch(Simulation, "run", RUN_WRAPPER, self._run_wrapper(Simulation.run))
        if traced:
            for owner, attribute, layer, label in layer_table():
                original = _get(owner, attribute)
                self._patch(owner, attribute, label, self._layer_wrapper(original, layer))

    @staticmethod
    def _patch(owner, attribute, label, wrapper):
        wrapper.bench_label = label
        _set(owner, attribute, wrapper)

    def _run_wrapper(self, original):
        bench = self
        clock = self.clock

        def run(sim, event_observer=None):
            clock.cut()
            if bench.setup_s is None:
                bench.setup_s = clock.total
            if bench.setup_only:
                raise SetupComplete()
            if bench.traced:
                # Turns on the phase timers of the existing profile=True
                # path; they are excluded from result fingerprints.
                sim.engine.perf.profile = True
            maybe_cut = clock.maybe_cut

            def observer(now, executed):
                if event_observer is not None:
                    event_observer(now, executed)
                maybe_cut()

            start = clock.total
            if bench.traced:
                bench.calls["engine"] = bench.calls.get("engine", 0) + 1
                clock.enter("engine")
            try:
                result = original(sim, observer)
            finally:
                if bench.traced:
                    clock.leave()
            clock.cut()
            bench.run_s += clock.total - start
            bench.results.append(result)
            return result

        return run

    def _layer_wrapper(self, original, layer):
        bench = self
        clock = self.clock
        calls = self.calls
        counts_records = layer in ("server.search", "server.top_popular")
        counts_contacts = layer == "traces.build"

        def wrapper(*args, **kwargs):
            calls[layer] = calls.get(layer, 0) + 1
            clock.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                clock.leave()
            if counts_records:
                bench.records_returned += len(result)
            elif counts_contacts:
                bench.trace_contacts += len(result)
            return result

        return wrapper
