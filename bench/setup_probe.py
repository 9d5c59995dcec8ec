"""Set-up as a fresh `lightcone` process pays it, for the set-up timing.

Usage: python3 setup_probe.py SRC_DIR SCENARIO

Imports the command line, parses the scenario and builds its chart,
observer and frame field once, then prints "ready".  The caller times the
interval from starting this interpreter to reading that line.
"""

import sys


def main():
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import lightcone.cli  # noqa: F401  (what every command imports)
    from lightcone.scenario import load_scenario

    scn = load_scenario(scenario)
    chart = scn.build_chart()
    curve = scn.build_observer(chart)
    scn.build_frames(chart, curve)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
