#!/usr/bin/env python3
"""Counting demo: how the ancilla size P trades off cost against precision.

For a fixed entangled state the script prints, per P: the case label, the
predicted vs simulated window mass, the majority estimate of t from 101
samples, and the worst-case error bound.
"""
from entgrover import (
    GoodSet,
    circuit_distribution,
    error_bound,
    moments,
    random_with_moments,
    run_count,
    window_probability,
)


def main():
    n_qubits, t = 5, 6
    good = GoodSet(tuple(range(t)))
    state = random_with_moments(
        n_qubits, 2, good,
        target_var_g=0.1, target_var_b=0.08,
        g_avg=[0.95, 0.1], b_avg=[0.9, 0.05],
        seed=777,
    )
    m = moments(state, good)
    n = state.n_states
    print(f"N={n}, D={state.data_dim}, true t={t}, theta={m.theta:.6f}")
    print(" P   case      W(pred)    W(circuit)  majority t~   |t~-t|   bound")
    for p_size in (8, 16, 32, 64):
        pred = window_probability(m, p_size)
        dist = circuit_distribution(state, good, p_size)
        circuit = sum(float(dist[mm]) for mm in pred.outcomes)
        report = run_count(state, good, p_size, repetitions=101, seed=41, dist=dist)
        print(
            f"{p_size:3d}  {pred.case:9s} {pred.mass:.6f}  {circuit:.6f}  "
            f"{report.majority_t:11.4f}  {abs(report.majority_t - t):7.4f}  "
            f"{error_bound(t, p_size, n):7.4f}"
        )


if __name__ == "__main__":
    main()
