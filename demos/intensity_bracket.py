# Bracketing the crossing transition: bisect on intensity until the annulus
# crossing probability at the probe scale straddles the 0.5 threshold. The
# printout shows the bisection path and the final bracket; the point budget
# keeps each evaluation window affordable.
#
# Run with `python3 demos/intensity_bracket.py`.

from perco import bracket_crossing_intensity, catalog


if __name__ == "__main__":
    model = catalog(2)["boolean-fixed"]
    # a small probe radius keeps each evaluation window cheap; the default
    # picks the largest scale the point budget can afford, which is overkill
    # for a quick look
    res = bracket_crossing_intensity(
        model, lam_min=0.5, lam_max=4.0, r_probe=2.0, n=100, seed=29, k_max=5,
    )
    print(f"probe radius: {res.r_probe:.3f}  threshold: {res.threshold}")
    print(f"{'intensity':>10s} {'p_hat':>8s} {'ci_low':>8s} {'ci_high':>8s}")
    for lam, est in res.evaluations:
        print(f"{lam:10.4f} {est.p_hat:8.4f} {est.ci_low:8.4f} {est.ci_high:8.4f}")
    print()
    print(f"bracket: [{res.lam_lo:.4f}, {res.lam_hi:.4f}]")
    if res.note:
        print(f"note: {res.note}")
