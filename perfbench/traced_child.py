"""Run one CLI job in-process with spans around each layer's public functions.

    PYTHONPATH=src python3 perfbench/traced_child.py SPANS.npz -- scan --preset fig2

The functions are wrapped where the caller binds them: the names that
``qtiming.cli`` imported from each layer module.  Calls a layer makes
internally are not wrapped, so their time falls into the self time of the
outermost wrapped call.  Classes such as
``GaussianSpectrum`` are not wrapped.  Spans stay in memory and are written
to SPANS.npz when the job ends.
"""

from __future__ import annotations

import sys

from spans import Tracer

LAYERS = ("distributions", "media", "oracle", "montecarlo")


def _points(args, kwargs, result, exc):
    if exc is not None:
        return {"points": int(getattr(exc, "points_used", 0) or 0)}
    return {"points": int(result.points_used), "max_rel_err": float(result.max_rel_err)}


def _normals(args, kwargs, result, exc):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"normals": int(cfg.n_samples) * int(cfg.n_photons)}


EXTRAS = {
    "oracle.verify_closed_form": _points,
    "montecarlo.sample_classical": _normals,
    "montecarlo.sample_quantum": _normals,
}


def instrument(module, tracer: Tracer) -> None:
    """Wrap the layer functions ``module`` imported from the package."""
    for attr, value in list(vars(module).items()):
        owner = getattr(value, "__module__", "") or ""
        layer = owner.rpartition(".")[2]
        if not owner.startswith("qtiming.") or layer not in LAYERS:
            continue
        if isinstance(value, type) or not callable(value):
            continue
        name = f"{layer}.{attr}"
        setattr(module, attr, tracer.wrap(value, name, EXTRAS.get(name)))


def main(argv: list[str]) -> int:
    spans_path, sep, *job_argv = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    import qtiming.cli as module

    tracer = Tracer()
    instrument(module, tracer)
    try:
        return tracer.call("cli.main", module.main, job_argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
