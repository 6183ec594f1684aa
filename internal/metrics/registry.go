package metrics

import (
	"bytes"
	"encoding/json"
)

// Registry is the process-wide metrics surface: named counters
// (monotone int64 totals), gauges (instantaneous float64 readings),
// and histograms (sample series summarized by nearest-rank
// percentiles). core, prim, and fabric publish into one registry via
// System.Metrics(); the canonical JSON dump is deterministic (sorted
// keys, exact integer counters), so committed metrics artifacts
// regenerate as no-op diffs.
//
// The zero value is not ready to use; call NewRegistry.
type Registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Series),
	}
}

// SetCounter sets a counter to an absolute total.
func (r *Registry) SetCounter(name string, v int64) { r.counters[name] = v }

// AddCounter adds delta to a counter, creating it at zero first.
func (r *Registry) AddCounter(name string, delta int64) { r.counters[name] += delta }

// Counter reads a counter (0 if absent).
func (r *Registry) Counter(name string) int64 { return r.counters[name] }

// Histogram returns the named sample series, creating it on first use.
func (r *Registry) Histogram(name string) *Series {
	h, ok := r.hists[name]
	if !ok {
		h = &Series{Name: name}
		r.hists[name] = h
	}
	return h
}

// histSummary is the canonical JSON shape of one histogram: sample
// count plus nearest-rank percentiles, all observed values.
type histSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// registryJSON is the canonical JSON shape of the registry.
// encoding/json marshals maps with sorted keys, which is the whole
// determinism argument.
type registryJSON struct {
	Counters   map[string]int64       `json:"counters"`
	Gauges     map[string]float64     `json:"gauges"`
	Histograms map[string]histSummary `json:"histograms"`
}

// MarshalJSON implements the canonical deterministic encoding.
func (r *Registry) MarshalJSON() ([]byte, error) {
	out := registryJSON{
		Counters:   r.counters,
		Gauges:     r.gauges,
		Histograms: make(map[string]histSummary, len(r.hists)),
	}
	for name, h := range r.hists {
		out.Histograms[name] = histSummary{
			N:    h.Len(),
			Mean: h.Mean(),
			P50:  h.Percentile(50),
			P95:  h.Percentile(95),
			P99:  h.Percentile(99),
			Max:  h.Percentile(100),
		}
	}
	return json.Marshal(out)
}

// DumpCanonical renders the registry as indented canonical JSON with a
// trailing newline — the bytes `trainbench -fig trace` writes to
// metrics.json and the determinism gate compares.
func (r *Registry) DumpCanonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
