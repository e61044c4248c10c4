# Renormalization bookkeeping at a subcritical intensity: at each scale r the
# annulus-crossing probability is compared against the union bound built from
# local crossings, long edges, and an optional mixing term, and the implied
# multiplicative constant is fitted per scale. A stable, unflagged table is
# the empirical signature used to rule out crossings at large scales.
#
# Run with `python3 demos/renorm_pipeline.py`.

from perco import catalog, renorm_table


if __name__ == "__main__":
    model = catalog(2)["boolean-fixed"]
    intensity = 0.7
    table = renorm_table(model, intensity, r_values=(1.2, 2.4), n=300, seed=23)
    print(f"model: constant radius 0.5, intensity={intensity}")
    print(
        f"{'r':>6s} {'cross(10r)':>10s} {'local':>8s} {'cross(r)':>9s} "
        f"{'long edge':>9s} {'mixing':>8s} {'fitted C':>9s} {'flagged':>7s}"
    )
    for row in table.rows:
        print(
            f"{row.r:6.2f} {row.lhs.p_hat:10.4f} {row.g_est.p_hat:8.4f} "
            f"{row.c_est.p_hat:9.4f} {row.f_est.p_hat:9.4f} {row.mixing_term:8.4f} "
            f"{row.fitted_C:9.4f} {str(row.flagged):>7s}"
        )
    print()
    print(f"stable across scales: {table.stable}")
    print(f"inclusion violations (10r crossing without the r-scale witnesses): {table.inclusion_violations}")
