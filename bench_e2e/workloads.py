"""The benchmark's workloads: the paper's §VI-A default runs, end to end.

Each workload is one ``repro`` command line, so ``wall_s`` runs from
interpreter start to the printed result, as a user sees it. The stored
digests of each workload are recorded from the equivalent library calls
(:func:`reference_results`), so every iteration also checks that the
command line and the library agree.
"""

#: Workload name -> (command-line arguments for a seed, why it was chosen).
WORKLOADS = {
    "dieselnet-paper": (
        lambda seed: ["run", "--trace", "dieselnet", "--scale", "paper",
                      "--protocol", "mbt", "--json", "--seed", str(seed)],
        "one MBT run on the 40-bus 20-day DieselNet trace: pair-wise contacts, "
        "handle_contacts is 93 % of the time",
    ),
    "fig3a-paper-sweep": (
        lambda seed: ["sweep", "fig3a", "--scale", "paper", "--seeds", str(seed),
                      "--jobs", "1", "--format", "json"],
        "Fig. 3(a) on the paper-scale NUS trace: 15 runs, classroom cliques, "
        "Internet sync and catalog search are 31 % of the time",
    ),
    "cli-nus-fast": (
        lambda seed: ["run", "--trace", "nus", "--seed", str(seed), "--json"],
        "the CLI's default run (NUS fast, all three variants): import and "
        "set-up are 35-40 % of the wall time",
    ),
}

#: Workload seeds with stored digests. A run is a closed loop whose k-th
#: iteration runs on :func:`stream_seed` ``(seed, k)``: ``--seed`` picks
#: where in the pool the stream starts, and every iteration is checked
#: against the stored digests of its own workload seed. A run that covers
#: several iterations thus covers several inputs, so the seed-to-seed cost
#: differences of the paper's workloads (up to 10 %) do not decide a
#: run's median. ``--seed 0`` is the development stream; ``--seed 7`` is
#: held out, for confirming a change on inputs not used while writing it.
SEED_POOL = tuple(range(10))


def stream_seed(seed, k):
    """Workload seed of the k-th iteration of a run started with ``--seed seed``."""
    return SEED_POOL[(seed + k) % len(SEED_POOL)]


def reference_results(name, seed):
    """Run ``name`` on ``seed`` through library calls; the results in run order.

    Used only to record the stored digests. Imports ``repro`` lazily, so
    the benchmark's own process never loads it.
    """
    from repro.exec import TraceSpec, build_trace
    from repro.experiments import fig3a
    from repro.experiments.workloads import (
        dieselnet_base_config,
        dieselnet_trace,
        nus_base_config,
        nus_trace,
    )
    from repro.core.mbt import ProtocolVariant
    from repro.sim.runner import Simulation

    if name == "dieselnet-paper":
        trace = build_trace(TraceSpec.of(dieselnet_trace, "paper", seed))
        return [Simulation(trace, dieselnet_base_config(seed)).run()]
    if name == "cli-nus-fast":
        trace = build_trace(TraceSpec.of(nus_trace, "fast", seed))
        config = nus_base_config(seed)
        return [
            Simulation(trace, config.with_variant(variant)).run()
            for variant in ProtocolVariant
        ]
    if name == "fig3a-paper-sweep":
        # The sweep returns only per-point means; collect each run's result.
        results = []
        original = Simulation.run

        def run(sim, event_observer=None):
            result = original(sim, event_observer)
            results.append(result)
            return result

        Simulation.run = run
        try:
            fig3a(scale="paper", seeds=(seed,), jobs=1)
        finally:
            Simulation.run = original
        return results
    raise ValueError(f"unknown workload {name!r}")
