package main

import (
	"fmt"
	"io"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// timedValues collects, per workload, every timed run's value of every
// end-to-end metric.
func timedValues(f *resultsFile) map[string]map[string][]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for _, name := range endToEnd {
			vals[r.Workload][name] = append(vals[r.Workload][name], r.Metrics[name].Value)
		}
	}
	return vals
}

// compareFiles prints, for every workload and end-to-end metric, both
// sides' medians and quartile spreads, the change from A to B, the
// bound, and a verdict. A metric whose spread on either side exceeds
// its bound is unresolved, not unchanged. It reports whether any
// metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	va, vb := timedValues(&a), timedValues(&b)
	fmt.Fprintf(w, "%-17s %-18s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, def := range workloads {
		for _, name := range endToEnd {
			xa, xb := va[def.name][name], vb[def.name][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			spread := max(quartileSpread(xa), quartileSpread(xb))
			change := ratio(mb-ma, ma) // every end-to-end metric is lower-is-better
			bound := metricSpecs[name].Bound
			verdict := "unchanged"
			switch {
			case spread > bound:
				verdict = "unresolved"
			case change > bound:
				verdict, regressed = "regressed", true
			case -change > spread:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-17s %-18s %12.4f %6.2f%% %12.4f %6.2f%% %+7.2f%% %5.1f%%  %s\n",
				def.name, name, ma, 100*quartileSpread(xa), mb, 100*quartileSpread(xb), 100*change, 100*bound, verdict)
		}
	}
	// A host-speed change must leave the model alone: at the same seed
	// the virtual time is the same number, not a close one.
	for _, def := range workloads {
		same, pairs := 0, 0
		for _, ra := range a.Runs {
			for _, rb := range b.Runs {
				if ra.Trace == 0 && rb.Trace == 0 && ra.Workload == def.name && rb.Workload == def.name && ra.Seed == rb.Seed {
					pairs++
					if ra.Metrics["virt_us_per_unit"] == rb.Metrics["virt_us_per_unit"] {
						same++
					}
				}
			}
		}
		if pairs > 0 {
			fmt.Fprintf(w, "%-17s virt_us_per_unit identical in %d of %d same-seed pairs\n", def.name, same, pairs)
		}
	}
	return regressed, nil
}
