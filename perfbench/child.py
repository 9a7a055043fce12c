"""One benchmark operation: a wavedamp command in this fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the checkout's `src` directory, the config file, the
command's argv and where to write the result.  Set-up ends once
`wavedamp.cli` is imported and the config is parsed and validated; the
command itself is `wavedamp.cli.main(argv)`.  With `setup_only` the
interpreter stops after set-up; with `trace` the layer spans are recorded.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    t_import = time.monotonic()
    sys.path.insert(0, src)
    import wavedamp.cli
    from wavedamp.config import load_config

    result = {"import_s": time.monotonic() - t_import}
    if not os.path.abspath(wavedamp.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"wavedamp was imported from {wavedamp.cli.__file__}, not {src}")
    config = load_config(spec["config"])
    result["setup_end"] = time.monotonic()

    if not spec["setup_only"]:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, here)
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result["rc"] = wavedamp.cli.main(spec["argv"])
        except Exception:
            result["rc"] = -1
            result["error"] = traceback.format_exc()
        result["op_s"] = time.perf_counter() - t0
        result["op_cpu_s"] = time.process_time() - cpu0
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # below: outside the timed region and after the peak-memory reading
        if tracer is not None:
            from tracing import time_step_kernel

            result["spans"] = list(tracer.spans)
            result["step_us"] = time_step_kernel(config)
        if spec["argv"][0] == "verify":
            import wavedamp.inverse_source
            from checks import convolve_closed_form_defect

            result["closed_form_defect"] = convolve_closed_form_defect(wavedamp.inverse_source)

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
