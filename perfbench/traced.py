"""Run one lcltflow command under the span recorder.

    python3 perfbench/traced.py SPANS RUN_ID lcltflow CLI-ARGS...
    python3 perfbench/traced.py SPANS RUN_ID SCRIPT SCRIPT-ARGS...

The first form calls ``lcltflow.cli.main`` with CLI-ARGS, the second runs
SCRIPT as ``__main__``; either way the spans are written to SPANS (JSON)
when the command ends, and the command's exit code is returned.
"""

import runpy
import sys

import spans


def main(argv):
    out, run_id, target, *args = argv
    recorder = spans.Recorder(run_id)
    spans.install(recorder)
    try:
        if target == "lcltflow":
            import lcltflow.cli
            return lcltflow.cli.main(args)
        sys.argv = [target, *args]
        try:
            runpy.run_path(target, run_name="__main__")
        except SystemExit as e:
            return e.code
        return 0
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
