"""Build a small transformer-shaped synthetic checkpoint.

Linear layers get log-spread magnitudes, norm gains sit near 1, embeddings
are lognormal.  Output is a plain safetensors file the CLI can consume.
"""

import argparse

from benq import rng, synth
from benq.io import TensorSpec, write_container


def layer_specs(hidden, layers):
    d = hidden * hidden
    specs = {"model.embed_tokens.weight": f"lognormal(0,1,{4 * d})"}
    for i in range(layers):
        base = f"model.layers.{i}"
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            specs[f"{base}.self_attn.{proj}.weight"] = f"loguniform(5,{d})"
        specs[f"{base}.mlp.gate_proj.weight"] = f"loguniform(5,{2 * d})"
        specs[f"{base}.mlp.down_proj.weight"] = f"gaussian(0.02,{2 * d})"
        specs[f"{base}.input_layernorm.weight"] = f"lognormal(0,0.05,{hidden})"
        specs[f"{base}.post_attention_layernorm.weight"] = \
            f"lognormal(0,0.05,{hidden})"
    specs["model.norm.weight"] = f"lognormal(0,0.05,{hidden})"
    specs["lm_head.weight"] = f"gaussian(0.02,{4 * d})"
    return specs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="toy_model.safetensors")
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    parsed = {name: synth.parse_spec(text)
              for name, text in layer_specs(args.hidden, args.layers).items()}
    specs = [TensorSpec(name, (spec.n,), "F32") for name, spec in parsed.items()]
    # each tensor is generated a chunk at a time, as the writer reaches it
    write_container(args.out, specs,
                    (synth.synth_blocks(spec, rng.derive_seed(args.seed, name))
                     for name, spec in parsed.items()))
    total = sum(spec.n for spec in parsed.values())
    print(f"wrote {args.out}: {len(specs)} tensors, {total} parameters")


if __name__ == "__main__":
    main()
