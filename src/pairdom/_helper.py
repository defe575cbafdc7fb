"""A helper process for montecarlo.run_rejection_experiment.

Run as ``python -m pairdom._helper``. It writes a pickled True to stdout
once it is ready, then reads pickled (ExperimentConfig, replications)
shares from stdin and writes each share's dominance-test tally, or the
exception that the share raised, to stdout. It exits when stdin closes.
"""

import pickle
import signal
import sys


def main() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is for the parent to handle
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not reach the pipe
    from .montecarlo import _stwj_share

    reply = True  # ready
    while True:
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()
        try:
            cfg, replications = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = _stwj_share(cfg, replications)
        except Exception as exc:  # raised again in the parent
            reply = exc


if __name__ == "__main__":
    main()
