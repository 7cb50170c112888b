"""The benchmark's three checkpoints and how each is built from a seed.

Tensor values come from ``benq.synth`` / ``benq.rng`` with the per-tensor
seed ``rng.derive_seed(seed, name)``, as in ``scripts/make_toy_model.py``.
The layout is repeated here rather than imported so that the inputs stay
fixed while the scripts change.  The benchmark writes the file itself
because the program only writes F32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from formats import bf16_from_f32, write_safetensors

EPSILON = 1e-7  # the program's default; the benchmark never passes --epsilon


def transformer_layout(hidden: int, layers: int) -> dict[str, tuple[str, bool]]:
    """``{name: (synth spec, quantized by the default policy)}``, make_toy_model's layout."""
    d = hidden * hidden
    specs = {"model.embed_tokens.weight": (f"lognormal(0,1,{4 * d})", False)}
    for i in range(layers):
        base = f"model.layers.{i}"
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            specs[f"{base}.self_attn.{proj}.weight"] = (f"loguniform(5,{d})", True)
        specs[f"{base}.mlp.gate_proj.weight"] = (f"loguniform(5,{2 * d})", True)
        specs[f"{base}.mlp.down_proj.weight"] = (f"gaussian(0.02,{2 * d})", True)
        specs[f"{base}.input_layernorm.weight"] = (f"lognormal(0,0.05,{hidden})", False)
        specs[f"{base}.post_attention_layernorm.weight"] = \
            (f"lognormal(0,0.05,{hidden})", False)
    specs["model.norm.weight"] = (f"lognormal(0,0.05,{hidden})", False)
    specs["lm_head.weight"] = (f"gaussian(0.02,{4 * d})", False)
    return specs


def single_layout(numel: int, hidden: int) -> dict[str, tuple[str, bool]]:
    """One broad matrix and one norm gain; both are quantized under --no-policy."""
    return {"model.layers.0.mlp.up_proj.weight": (f"loguniform(5,{numel})", True),
            "model.norm.weight": (f"lognormal(0,0.05,{hidden})", False)}


@dataclass(frozen=True)
class Workload:
    name: str
    layout: Callable[[bool], dict[str, tuple[str, bool]]]  # small -> tensors
    dtype: str
    schedule: str
    bits: int
    group_size: int
    threads: int
    no_policy: bool = False

    def quantize_args(self) -> list[str]:
        args = ["--bits", str(self.bits), "--group-size", str(self.group_size),
                "--schedule", self.schedule, "--threads", str(self.threads)]
        return args + (["--no-policy"] if self.no_policy else [])

    def compare_args(self) -> list[str]:
        return ["--bits", str(self.bits), "--group-size", str(self.group_size),
                "--threads", str(self.threads)]


WORKLOADS = {w.name: w for w in (
    # 4-bit log at G=8 is the paper's headline regime; the nearest-level
    # search dominates quantize and compare, and 24 tensors spread over 2 threads.
    Workload("toy-f32-log4",
             lambda small: transformer_layout(64, 2) if small else transformer_layout(640, 4),
             "F32", "log", 4, 8, threads=2),
    # Many small BF16 tensors: rtn quantize skips the search, so I/O and
    # per-tensor overhead dominate, while compare still runs a 256-level search.
    Workload("many-bf16-rtn8",
             lambda small: transformer_layout(32, 3) if small else transformer_layout(256, 32),
             "BF16", "rtn", 8, 128, threads=1),
    # One big tensor with a short tail group: tensor-level threads cannot
    # help, 3-bit codes pack into nibbles, and peak RSS is a multiple of the input.
    Workload("single-f32-linear3",
             lambda small: single_layout(4096 + 17, 64) if small else single_layout(2**23 + 17, 4096),
             "F32", "linear", 3, 32, threads=2, no_policy=True),
)}


def build_input(wl: Workload, seed: int, path: str, small: bool = False) -> None:
    """Write the workload's checkpoint for `seed`; tensors are made one at a time."""
    from benq import rng, synth

    layout = wl.layout(small)

    def arrays():
        for name, (spec, _) in layout.items():
            values = synth.synth_tensor(spec, rng.derive_seed(seed, name))
            yield bf16_from_f32(values) if wl.dtype == "BF16" else values

    shapes = {name: (wl.dtype, (synth.parse_spec(spec).n,))
              for name, (spec, _) in layout.items()}
    write_safetensors(path, shapes, arrays())


def expected_quantized(wl: Workload, small: bool = False) -> set[str]:
    """Names the program should quantize: the layout's linears, or all under --no-policy."""
    return {name for name, (_, linear) in wl.layout(small).items()
            if linear or wl.no_policy}
