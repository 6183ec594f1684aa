package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// TestTraceFig runs the full flight-recorder scenario: the trace row
// itself enforces the byte/span reconciliation, chaos-mark, and
// determinism gates, so the test only needs to assert it succeeds and
// wrote both artifacts.
func TestTraceFig(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := figTrace(&out, Opts{Out: dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.json", "metrics.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("empty artifact %s", name)
		}
	}
	t.Log(out.String())
}

// TestTraceOverheadCells pins the observer effect: installing the
// recorder must not move the virtual timeline by a single nanosecond.
func TestTraceOverheadCells(t *testing.T) {
	cells, err := TraceOverheadCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no traceoverhead cells")
	}
	for _, c := range cells {
		if c.TraceOverheadNs != 0 {
			t.Errorf("%s/%s: trace overhead %dns, want 0", c.Kind, c.Algo, c.TraceOverheadNs)
		}
	}
}

// BenchmarkTraceProbe_NilRecorder pins the recording-free launch path:
// with Config.Recorder nil every executor pays one nil check per
// primitive and nothing else, so this benchmark's allocs/op is the
// pre-recorder baseline — any growth here means the nil path started
// allocating.
func BenchmarkTraceProbe_NilRecorder(b *testing.B) {
	b.ReportAllocs()
	var e2e sim.Duration
	var err error
	for i := 0; i < b.N; i++ {
		e2e, err = TraceProbe(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e2e)/1000, "e2e-us")
}

// BenchmarkTraceProbe_WithRecorder is the same run with the flight
// recorder installed: allocs/op rises (span/send appends), but e2e-us
// must match the nil-recorder run exactly — recording happens outside
// virtual time.
func BenchmarkTraceProbe_WithRecorder(b *testing.B) {
	b.ReportAllocs()
	var e2e sim.Duration
	var err error
	for i := 0; i < b.N; i++ {
		e2e, err = TraceProbe(&trace.Recorder{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e2e)/1000, "e2e-us")
}
