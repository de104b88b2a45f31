"""Set-up probe: import the CLI, load each config, build its grid and state.

    python3 bench/setup_probe.py <kind> <config> [<kind> <config> ...]

The benchmark times this process from spawn to exit, which covers
interpreter start up to the state the first time step starts from.
"""

import sys

from wavestrip.cli import build_state, load_config


def main(argv) -> int:
    for kind, path in zip(argv[::2], argv[1::2]):
        config = load_config(path, kind)
        grid = config.make_grid()
        grid.nodes, grid.k, grid.xi, grid.dealias_mask
        build_state(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
