#!/usr/bin/env python3
"""Decoder error probability vs blocklength for a compound scenario.

Runs ``ccdec simulate`` for several decoders over a range of blocklengths at
a fixed rate and emits a plot-ready CSV.  Each (decoder, n) point is one
``ccdec simulate`` run, so the input is the scenario's declared one, else
the capacity-achieving one.  The script exits with the first nonzero exit
code of a point (whose rows are left out), else 0.

Usage:
    python scripts/error_vs_blocklength.py --scenario builtin:bsc-quarter \
        --rate 0.1 --lengths 16,32,64 --decoders gmap,glrt,mmi --trials 500
"""

import argparse
import contextlib
import csv
import io
import json
import sys

from ccdec import cli
from ccdec.simulate import METHODS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="builtin:bsc-quarter")
    ap.add_argument("--rate", type=float, default=0.1, help="bits per symbol")
    ap.add_argument("--lengths", default="16,32,64")
    ap.add_argument("--decoders", default="gmap,glrt,mmi")
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--method", choices=METHODS, default="ensemble")
    ap.add_argument("--out", default="error_vs_blocklength.csv")
    args = ap.parse_args(argv)

    rows = []
    status = cli.EXIT_OK
    for name in (d.strip() for d in args.decoders.split(",")):
        for n in (int(x) for x in args.lengths.split(",")):
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                code = cli.main([
                    "simulate", "--scenario", args.scenario, "--decoder", name, "--n", str(n),
                    "--rate", str(args.rate), "--trials", str(args.trials), "--seed", str(args.seed),
                    "--method", args.method,
                ])
            if code != cli.EXIT_OK:
                print(f"{name} n={n}: ccdec simulate exited {code}", file=sys.stderr)
                status = status or code
                continue
            results = json.loads(report.getvalue())["results"]
            for k in range(sum(sec.startswith("channel[") for sec in results)):
                st = {key: cell["value"] for key, cell in results[f"channel[{k}]"].items()}
                err = st.get("mean_error_prob", st["error_rate"])
                rows.append([name, n, k, err, st["wilson_low"], st["wilson_high"]])
                print(
                    f"{name:5s} n={n:<4d} channel={k} "
                    f"error={err:.4e} [{st['wilson_low']:.4f}, {st['wilson_high']:.4f}]"
                )

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "n", "channel", "error", "wilson_low", "wilson_high"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
