"""Print the time from a fresh interpreter to a ready CLI, at reference speed.

Run from the checkout root by ``run.py``, once per launch.  The timed region
is ``import hopfsmith.cli`` plus ``build_parser()``, which every CLI call
pays.  The speed probe of ``child.py`` runs only after the timed region, so
nothing it imports is loaded before the CLI is.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, "src")
    import hopfsmith.cli
    hopfsmith.cli.build_parser()
    elapsed = time.perf_counter() - start

    from child import REFERENCE_PROBE_S, probe
    rate = sum(1 / probe() for _ in range(5)) / 5
    print(elapsed * rate * REFERENCE_PROBE_S)


if __name__ == "__main__":
    main()
