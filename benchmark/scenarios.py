"""Seeded scenario generator for the benchmark workloads.

Every workload is one `mb-rh` subcommand on a scenario JSON in the CLI
schema.  Seed 0 gives the acceptance desk scenario exactly; other seeds
jitter the boundary pulse (amplitude +-0.04, center +-0.1, width +-0.03)
and the center of the initial-polarization bump (+-0.05).  Those ranges
keep a(z) free of zeros in the upper half-plane and pass
`ScenarioData.validate()`.

    python3 benchmark/scenarios.py --seed 0 --write benchmark/scenarios

writes the committed seed-0 files.
"""

import argparse
import json
import os

import numpy as np

DESK_PULSE = {"amplitude": 0.8, "center": 3.0, "width": 0.7}
RHO0_CENTER = 0.7
JITTER = {"amplitude": 0.04, "center": 0.1, "width": 0.03, "rho0_center": 0.05}


def jitter(seed):
    """Offsets for one seed; seed 0 is the unperturbed desk scenario."""
    if seed == 0:
        return {k: 0.0 for k in JITTER}
    rng = np.random.default_rng(seed)
    return {k: float(rng.uniform(-r, r)) for k, r in JITTER.items()}


def _pulse(d):
    return {"pulse": "gaussian",
            "amplitude": DESK_PULSE["amplitude"] + d["amplitude"],
            "center": DESK_PULSE["center"] + d["center"],
            "width": DESK_PULSE["width"] + d["width"]}


def desk(seed, lam_window=None, lam_points=None):
    """T=10, L=5, Gaussian boundary pulse, empty medium, Lorentzian l=1."""
    cfg = {"T": 10.0, "L": 5.0, "E_in": _pulse(jitter(seed)),
           "E0": {"pulse": "zero"}, "rho0": None,
           "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1}}
    if lam_window is not None:
        cfg["lam_window"] = list(lam_window)
        cfg["lam_points"] = int(lam_points)
    return cfg


def excited(seed, lam_window=None, lam_points=None):
    """Desk pulse on L=2 with an initial field and a polarization bump."""
    d = jitter(seed)
    x = np.linspace(0.0, 2.0, 41)
    lam = np.linspace(-8.0, 8.0, 65)
    c = RHO0_CENTER + d["rho0_center"]
    re = 0.3 * np.exp(-((x[:, None] - c) / 0.25) ** 2) * np.exp(-lam[None, :] ** 2 / 2)
    cfg = {"T": 10.0, "L": 2.0, "E_in": _pulse(d),
           "E0": {"pulse": "gaussian", "amplitude": 0.3, "center": 1.0,
                  "width": 0.3},
           "rho0": {"x": x.tolist(), "lam": lam.tolist(), "re": re.tolist()},
           "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1}}
    if lam_window is not None:
        cfg["lam_window"] = list(lam_window)
        cfg["lam_points"] = int(lam_points)
    return cfg


# scenario file name -> function of the seed that makes it.  The direct
# route samples the detuning axis on lam_window; the contour route keeps
# its default [-20, 20] window, so each physical scenario has one file per
# route.
SCENARIOS = {
    "desk_rh": lambda seed: desk(seed),
    "desk_direct": lambda seed: desk(seed, (-16.0, 16.0), 257),
    "excited_rh": lambda seed: excited(seed),
    "excited_direct": lambda seed: excited(seed, (-16.0, 16.0), 257),
}


def write(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--write", required=True, help="output directory")
    args = ap.parse_args()
    os.makedirs(args.write, exist_ok=True)
    for name, build in SCENARIOS.items():
        write(build(args.seed), os.path.join(args.write, f"{name}.json"))


if __name__ == "__main__":
    main()
