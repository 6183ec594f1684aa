package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestTinyPass runs every workload once timed and once traced at tiny
// sizes and checks the shape of what comes out: names, the split into
// end-to-end and per-layer, CPU shares summing to one, and agreement
// with BENCHMARK.json.
func TestTinyPass(t *testing.T) {
	var spec benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d; want 2 to 8 and equal", n, len(workloads))
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	wantE2E, wantLayer := map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = true
		if s := metricSpecs[m.Name]; !s.E2E || s.Unit != m.Unit || s.Better != m.Better || s.Bound != m.Bound {
			t.Errorf("BENCHMARK.json end_to_end %+v disagrees with metrics.go %+v", m, s)
		}
	}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = true
		if s := metricSpecs[m.Name]; s.E2E || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("BENCHMARK.json per_layer %+v disagrees with metrics.go %+v", m, s)
		}
	}
	if len(wantE2E)+len(wantLayer) != len(metricSpecs) {
		t.Errorf("BENCHMARK.json lists %d metrics, metrics.go %d", len(wantE2E)+len(wantLayer), len(metricSpecs))
	}
	if len(endToEnd) != len(wantE2E) {
		t.Errorf("endToEnd lists %d metrics, BENCHMARK.json %d", len(endToEnd), len(wantE2E))
	}

	for i, def := range workloads {
		if spec.Workloads[i].Name != def.name || spec.Workloads[i].Why != def.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the binary's is %q (or their reasons differ)", i, spec.Workloads[i].Name, def.name)
		}
		for _, traced := range []bool{false, true} {
			// The traced pass needs a few hundred ms for the CPU
			// profile to hold samples at all.
			d := time.Duration(0)
			if traced {
				d = 600 * time.Millisecond
			}
			res, err := runWorkload(&def, 1, d, traced, true)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", def.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			var shares float64
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", def.name, name)
				}
				if !want[name] {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not list there", def.name, traced, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", def.name, name, m.Value)
				}
				if strings.HasSuffix(name, ".cpu_share") {
					shares += m.Value
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s is missing", def.name, traced, name)
				}
			}
			if traced && math.Abs(shares-1) > 0.005 {
				t.Errorf("%s: cpu shares sum to %v", def.name, shares)
			}
			if traced && (len(res.TopSelf) == 0 || len(res.Spans) == 0) {
				t.Errorf("%s: traced run kept %d self-time lines and %d spans", def.name, len(res.TopSelf), len(res.Spans))
			}
			if !traced {
				for _, name := range endToEnd {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v; an end-to-end metric is never 0", def.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestOutputCheckBites corrupts one expected value and wants the unit
// to fail every operation: the check is known to bite.
func TestOutputCheckBites(t *testing.T) {
	r := setupOrderedSmall(1, true)
	if out := r.unit(&unitEnv{seed: 1}); out.failed != 0 || out.ops == 0 {
		t.Fatalf("clean unit: %d of %d failed (%s)", out.failed, out.ops, out.err)
	}
	w := r.(*facadeWorkload)
	want := bytes.Clone(w.colls[0].want[3])
	want[len(want)/2] ^= 1
	w.colls[0].want[3] = want
	if out := r.unit(&unitEnv{seed: 1}); out.failed != out.ops || !strings.Contains(out.err, "wrong output") {
		t.Fatalf("corrupted unit: %d of %d failed (%q); want all, for a wrong output", out.failed, out.ops, out.err)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Fatalf("spread of one value = %v, want 0", got)
	}
}

// TestCompareVerdicts feeds -compare two sets in which one metric each
// is improved, unchanged, regressed and unresolved.
func TestCompareVerdicts(t *testing.T) {
	set := func(unitMs, cpuMs, allocs []float64) *resultsFile {
		f := &resultsFile{}
		for i := range unitMs {
			r := &runResult{Workload: "ordered_small", Seed: 1, Metrics: map[string]metric{}}
			for _, name := range endToEnd {
				r.put(name, 1)
			}
			r.put("unit_ms_p50", unitMs[i])
			r.put("cpu_ms_per_unit", cpuMs[i])
			r.put("allocs_per_unit", allocs[i])
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeResults(a, set([]float64{100, 101, 99, 100}, []float64{100, 101, 99, 100}, []float64{100, 130, 70, 100})); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(b, set([]float64{80, 81, 79, 80}, []float64{140, 141, 139, 140}, []float64{100, 130, 70, 100})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("no regression reported:\n%s", out.String())
	}
	for metric, verdict := range map[string]string{
		"unit_ms_p50": "improved", "cpu_ms_per_unit": "regressed", "allocs_per_unit": "unresolved", "peak_rss_mb": "unchanged",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s", metric, f[len(f)-1], verdict)
				}
			}
		}
		if !found {
			t.Errorf("%s: no row in\n%s", metric, out.String())
		}
	}
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("a set against itself: regressed=%v err=%v", regressed, err)
	}
}
