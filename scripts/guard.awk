# Neutrality-guard comparator of the Makefile's bench-guard. Reads
# `go test -bench` output for a guard benchmark shaped
# Benchmark<X>Guard/<workload>/<mode>-N with modes off (feature absent),
# disabled (attached but inert) and on (fully enabled). The Make target
# runs the whole off/disabled/on pass several times and
# concatenates the output; this script pairs the i-th off sample with the
# i-th disabled sample (same pass, seconds apart, comparable machine
# conditions), computes the per-pass overhead ratio, and judges the BEST
# pass: an inert feature must be free, so at least one pass must show
# the disabled path within `pct` percent of off. Real overhead shows up
# in every pass; machine-throughput drift between passes does not.
# Comparing mode minimums taken across passes — the previous scheme —
# breaks under drift, because each mode's minimum can come from a
# different pass run under different conditions. The on path is
# reported informationally from the best pass.
#
# Usage: awk -v pct=2 -v guard=bench-guard -f scripts/guard.awk bench.txt
/^Benchmark[A-Za-z_]*Guard\// {
    split($1, parts, "/"); wl = parts[2]; mode = parts[3];
    sub(/-[0-9]+$/, "", mode);
    ns = $3 + 0;
    key = wl "/" mode;
    n = ++count[key];
    sample[key "/" n] = ns;
    if (mode == "off" || mode == "disabled" || mode == "on") seen[wl] = 1;
}
END {
    fail = 0;
    for (wl in seen) {
        passes = count[wl "/off"];
        if (passes == 0) { printf "%s: no off baseline for %s\n", guard, wl; fail = 1; continue }
        if (count[wl "/disabled"] < passes) passes = count[wl "/disabled"];
        bestd = ""; bestoff = 0; bestdis = 0;
        for (i = 1; i <= passes; i++) {
            off = sample[wl "/off/" i]; dis = sample[wl "/disabled/" i];
            if (off <= 0) continue;
            d = 100 * (dis - off) / off;
            if (bestd == "" || d < bestd) { bestd = d; bestoff = off; bestdis = dis; besti = i }
        }
        if (bestd == "") { printf "%s: no usable pass for %s\n", guard, wl; fail = 1; continue }
        on = sample[wl "/on/" besti];
        opct = bestoff > 0 && on > 0 ? 100 * (on - bestoff) / bestoff : 0;
        printf "%s: %-8s best pass %d/%d: off=%.0fns disabled=%.0fns (%+.2f%%) on=%.0fns (%+.2f%% informational)\n", \
            guard, wl, besti, passes, bestoff, bestdis, bestd, on, opct;
        if (bestd > pct) {
            printf "%s: FAIL %s disabled-path overhead %.2f%% > %s%% in every pass\n", guard, wl, bestd, pct; fail = 1;
        }
    }
    if (fail) exit 1;
    printf "%s: PASS (disabled-path overhead within %s%%)\n", guard, pct;
}
