#!/usr/bin/env python3
"""Round-trip experiment: flat-space observer map against its closed form.

Maps a grid of observer coordinates forward through numerically integrated
light rays, inverts the images with the multistart Newton solver, and
writes per-point deviations to out/sr_splitting.csv.
"""

import argparse
from pathlib import Path

import numpy as np

from lightcone import Event, MultistartConfig, minkowski
from lightcone.observers import make_inertial_observer, standard_inertial_frame
from lightcone.splitting import ObservedEvent, invert_many, kinematic_observer_map


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--n", type=int, default=6, help="grid points per axis")
    args = parser.parse_args()

    chart = minkowski()
    curve = make_inertial_observer(chart, Event("minkowski", np.zeros(4)),
                                   [1, 0, 0, 0], interval=(-60, 60))
    frames = standard_inertial_frame(curve)

    taus = np.linspace(-4, 4, args.n)
    vals = np.linspace(-3, 3, args.n)
    pts = [(t, np.array([a, b, 1.5])) for t in taus for a in vals for b in vals]
    events = np.array([kinematic_observer_map(chart, frames, ObservedEvent(t, x)).coords
                       for t, x in pts])

    cfg = MultistartConfig(tau_range=(-10, 10), x_halfwidth=4.0,
                           n_tau=5, n_x=5, top_k=4)
    results = invert_many(chart, frames, events, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sr_splitting.csv"
    with open(path, "w") as fh:
        fh.write("tau_s,x1_m,x2_m,x3_m,forward_dev,inverse_dev\n")
        for (t, x), ev, res in zip(pts, events, results):
            closed = np.array([t - np.linalg.norm(x), *x])
            fdev = np.max(np.abs(ev - closed))
            idev = min(np.max(np.abs(np.array([p.tau, *p.x]) - np.array([t, *x])))
                       for p in res.preimages) if len(res) else float("nan")
            fh.write(f"{t:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g},"
                     f"{fdev:.17g},{idev:.17g}\n")
    print(f"wrote {path} ({len(pts)} points)")
    fdevs = [float(line.split(",")[4]) for line in path.read_text().splitlines()[1:]]
    print(f"worst forward deviation: {max(fdevs):.3e}")


if __name__ == "__main__":
    main()
