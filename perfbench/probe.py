"""Set-up and kernel probes, each run in a fresh process.

    python3 perfbench/probe.py setup CONFIG...
        Import lcltflow and build each config's "system" with
        systems.load_system; nothing else.  The caller times the process.

    python3 perfbench/probe.py crossings CONFIG T N SEED OUT
        After building the system, time one single-worker call of
        sample_flow_integrals(system, T, N, SEED, field="ncross") and write
        {"crossings": total path-crossings, "seconds": wall} to OUT.
"""

import json
import sys
import time


def _systems(paths):
    from lcltflow.systems import load_system
    out = []
    for p in paths:
        with open(p) as fh:
            cfg = json.load(fh)
        if "system" in cfg:
            out.append(load_system(cfg["system"]))
    return out


def main(argv):
    import lcltflow  # noqa: F401  (set-up cost includes the package import)
    mode, *args = argv
    if mode == "setup":
        _systems(args)
        return 0
    if mode == "crossings":
        cfg, t, n, seed, out = args
        from lcltflow.montecarlo import sample_flow_integrals
        (system,) = _systems([cfg])
        t0 = time.perf_counter()
        ncross = sample_flow_integrals(system, float(t), int(n), int(seed),
                                       workers=1, field="ncross")
        seconds = time.perf_counter() - t0
        with open(out, "w") as fh:
            json.dump({"crossings": int(ncross.sum()), "seconds": seconds},
                      fh)
        return 0
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
