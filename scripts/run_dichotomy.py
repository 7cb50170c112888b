"""First-digit compliance by layer family for one checkpoint.

Reads a safetensors file, prints a per-family MAD table plus the worst and
best individual tensors.  Norm and embedding tensors typically sit far from
the logarithmic digit law; the big linear maps sit close to it, which is
what makes the selective quantization policy work.
"""

import argparse

from benq.benford import model_report
from benq.io import read_container
from benq.quantizer import DEFAULT_POLICY


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("container", help="safetensors checkpoint")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--top", type=int, default=5,
                    help="how many extreme tensors to list")
    args = ap.parse_args()

    with read_container(args.container, stored16=True) as (_, tensors):
        report = model_report(tensors, DEFAULT_POLICY, source=args.container,
                              threads=args.threads)

    print(f"{args.container}: {len(report['per_tensor'])} tensors\n")
    print(f"{'family':<18} {'tensors':>7} {'mean MAD':>10} {'median MAD':>11}")
    for fam in report["per_family"]:
        print(f"{fam['family']:<18} {fam['n_tensors']:>7} "
              f"{fam['mean_mad']:>10.5f} {fam['median_mad']:>11.5f}")

    scored = [r for r in report["per_tensor"] if r["mad"] is not None]
    print("\nleast compliant:")
    for r in scored[:args.top]:
        print(f"  {r['mad']:.5f}  {r['name']}")
    print("most compliant:")
    for r in scored[-args.top:]:
        print(f"  {r['mad']:.5f}  {r['name']}")


if __name__ == "__main__":
    main()
