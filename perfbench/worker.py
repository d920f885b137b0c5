"""One benchmark sample in a fresh interpreter, as a CLI call pays for it.

    python3 perfbench/worker.py <config> <artifact-dir> <threads> <mode> [<trace-file>]

mode is one of
  setup  import snls, parse the config, print "parsed", exit;
  run    the same, then one ``snls.experiments.run`` call, then print one
         JSON line with its wall time and the interpreter's peak RSS;
  trace  as ``run``, with spans and counters installed around the public
         functions of snls (see tracer.py); the spans and per-layer
         figures go to <trace-file>.

Nothing but the standard library is imported before ``import snls``, so
the parent can time set-up from process start to the "parsed" line.
"""

import sys
import time


def main(argv):
    config, artifact_dir, threads, mode = argv[1:5]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install_fft_hooks()
    t0 = time.perf_counter()
    import snls
    import snls.config
    import snls.experiments

    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install(snls)
    t2 = time.perf_counter()
    cfg = snls.config.parse_config(config)
    t3 = time.perf_counter()
    sys.stdout.write("parsed\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0

    start = time.perf_counter()
    snls.experiments.run(cfg, output_dir=artifact_dir, threads=int(threads))
    wall = time.perf_counter() - start

    import json
    import resource

    result = {
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "snls_file": snls.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.write(
            argv[5], import_s=t1 - t0, parse_s=t3 - t2, artifact_dir=artifact_dir
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
