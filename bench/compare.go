package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// spread is the distance between the first and third quartile as a share of
// the median (the full range for fewer than four values).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / median(s)
}

// quantile interpolates the way Python's statistics.quantiles (exclusive
// method) does, so the spread printed here is the one the driver computes.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	i := min(max(int(pos), 0), len(sorted)-2)
	frac := min(max(pos-float64(i), 0), 1)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// verdict compares one metric's runs in A (the base) and B.
func verdict(d metricDef, a, b []float64) (string, float64) {
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (median(b) - median(a)) / median(a)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && len(a) > 1 && len(b) > 1:
		return "better", change
	case max(spread(a), spread(b)) > d.Bound:
		return "unresolved", change
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	}
	return "same", change
}

// compareMain prints one row per (workload, metric) of two collected
// reports, applying each metric's bound; any "worse" row, or a failure
// ratio above the base's, exits non-zero.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: eend-bench compare A.json B.json")
		return 2
	}
	var a, b collected
	for i, dst := range []*collected{&a, &b} {
		if err := readJSON(args[i], dst); err != nil {
			fmt.Fprintln(os.Stderr, "eend-bench compare:", err)
			return 2
		}
	}
	values := func(c collected, w, metric string) (v []float64) {
		if wr := c.Workloads[w]; wr != nil {
			for _, r := range wr.Runs {
				if p := r.Metrics[metric]; p != nil {
					v = append(v, *p)
				}
			}
		}
		return v
	}
	status := 0
	fmt.Printf("%-18s %-14s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-18s %-14s missing from one side\n", w.name, d.Name)
				status = 1
				continue
			}
			v, change := verdict(d, va, vb)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-18s %-14s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n", w.name, d.Name,
				median(va), median(vb), 100*change, 100*max(spread(va), spread(vb)), 100*d.Bound, v)
		}
		fa, fb := values(a, w.name, "fail_ratio"), values(b, w.name, "fail_ratio")
		v := "same"
		if median(fb) > median(fa) {
			v, status = "worse", 1
		}
		fmt.Printf("%-18s %-14s %12.5g %12.5g %8s %8s %6.0f%%  %s\n", w.name, "fail_ratio", median(fa), median(fb), "", "", 0.0, v)
	}
	return status
}
