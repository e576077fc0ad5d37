"""Layer-coverage self-check: does each workload stress the layers it is
meant to?

    python3 perfbench/layercheck.py [--seed N]

Runs one traced round of every workload through ``run.py`` and asserts the
stress matrix below from the per-layer metrics.  Exits 1 and lists the
violations when any assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen     # noqa: E402
import tracer  # noqa: E402

WORKLOADS = tuple(gen.WORKLOADS)

#: self-time metric -> the workload that must carry most of its total.
#: Three rows differ from a first guess that put them on batch: enumerate
#: spends more in them, because ``is_maximal`` re-checks every witness
#: through ``vset`` (which factors each listed prime or irreducible with
#: ``prime_factors`` / ``factor_monic``) and ``execute_query`` encodes every
#: listed ultrafilter.  See README.md.
MATRIX = {
    "scenario.parse_s": "batch",
    "scenario.execute_self_s": "enumerate",
    "scenario.render_s": "enumerate",
    "boolalg.enumerate_ultrafilters_s": "enumerate",
    "rings.maximal_ideals_up_to_s": "enumerate",
    "rings.prime_factors_s": "batch",
    "rings.vset_s": "enumerate",
    "fqpoly.irreducibles_up_to_s": "enumerate",
    "fqpoly.factor_monic_s": "enumerate",
    "fqpoly.is_irreducible_s": "batch",
    "products.is_maximal_s": "enumerate",
    "oracle.all_ideals_s": "verify",
    "oracle.maximal_ideals_s": "verify",
    "oracle.is_prime_ideal_s": "verify",
    "oracle.descriptor_elements_s": "verify",
    "valuations.valuation_compare_s": "batch",
    "valuations.ug_member_s": "batch",
    "valuations.ll_relation_s": "batch",
    "valuations.interpolate_chain_s": "batch",
    "properties.plus_witness_s": "batch",
    "properties.plusplus_witness_s": "batch",
}

#: a layer that does "about 0" work on a workload spends at most this much
NEGLIGIBLE_S = 0.001


def traced_metrics(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def violations(metrics):
    out = []
    expected = set(tracer.PER_LAYER) | {"trace.overhead_ratio"}
    for w in WORKLOADS:
        missing = expected - set(metrics[w])
        if missing:
            out.append(f"{w}: missing metrics {sorted(missing)}")
    for w in ("enumerate", "batch"):
        for name in tracer.PER_LAYER:
            if name.startswith("oracle.") and metrics[w][name] > (
                    NEGLIGIBLE_S if name.endswith("_s") else 0):
                out.append(f"{w}: {name} = {metrics[w][name]}, expected about 0")
    if metrics["verify"]["fqpoly.irreducibles_up_to_s"] > NEGLIGIBLE_S:
        out.append("verify: fqpoly.irreducibles_up_to_s is not about 0")
    if metrics["batch"]["rings.prime_factors_calls"] <= 0:
        out.append("batch: rings.prime_factors_calls is 0")
    for name, home in MATRIX.items():
        total = sum(metrics[w][name] for w in WORKLOADS)
        if not metrics[home][name] > total / 2:
            split = ", ".join(f"{w} {metrics[w][name]:.4f}" for w in WORKLOADS)
            out.append(f"{name}: most of it should be on {home}, measured {split}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = {w: traced_metrics(w, args.seed) for w in WORKLOADS}
    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in list(tracer.PER_LAYER) + ["trace.overhead_ratio"]:
        print(f"{name:34s}" + "".join(f"{metrics[w][name]:14.6g}" for w in WORKLOADS))
    problems = violations(metrics)
    for line in problems:
        print(f"VIOLATION {line}")
    print("layer coverage: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
