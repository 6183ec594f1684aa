package bench

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dfccl/internal/chaos"
)

// trainbench is cmd/trainbench's main on a command line: the same flag
// definitions, then Run.
func trainbench(args string) (string, error) {
	var o Opts
	fs := flag.NewFlagSet("trainbench", flag.ContinueOnError)
	fig := fs.String("fig", "10", "")
	o.Flags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	err := Run(&buf, *fig, o)
	return buf.String(), err
}

// slowRows take over a second and are skipped by -short: Fig. 12's
// four 16-GPU ViT trainings (~2 s) and the a2a row's 4×4 bandwidth-
// dominated congestion sweep (~3 s, ~1 min under -race).
var slowRows = []string{"12", "a2a"}

// aloneRows measure the test process itself — the cluster gate counts
// goroutines, and collbench runs it again and counts allocations — so
// they run with nothing beside them, as do the rows that write files
// (in a temporary working directory); every other row runs in parallel
// once those are done.
var aloneRows = []string{"cluster", "collbench"}

// committed names the artifact each regenerating row writes, relative
// to this package: the file its Smoke -out gets must equal the
// committed one byte for byte, allocs_per_op aside (the race detector's
// own allocations move it; `make smoke` regenerates without -race and
// pins it).
var committed = map[string]string{
	"tune":      filepath.Join("..", "tune", "default_table.json"),
	"collbench": filepath.Join("..", "..", "BENCH.json"),
}

// allocsField matches BENCH.json's allocs_per_op value.
var allocsField = regexp.MustCompile(`"allocs_per_op": \d+`)

// TestExperiments runs every row at its Smoke arguments: the gate must
// pass and the figure must be, byte for byte, what the golden file
// holds. The goldens of the rows that were command lines before the
// table existed were recorded from those binaries (cmd/collbench,
// deadlocksim, dlprevent, overhead and the old trainbench), so they
// also pin that moving the print code changed no output.
func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && slices.Contains(slowRows, e.Name) {
				t.Skip("slow row")
			}
			golden, err := filepath.Abs(filepath.Join("testdata", "golden", e.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			artifact, regenerates := committed[e.Name]
			if regenerates {
				if artifact, err = filepath.Abs(artifact); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case strings.Contains(e.Smoke, "-out "):
				t.Chdir(t.TempDir())
			case !slices.Contains(aloneRows, e.Name):
				t.Parallel()
			}
			got, err := trainbench("-fig " + e.Name + " " + e.Smoke)
			if err != nil {
				t.Fatalf("trainbench -fig %s %s: %v\n%s", e.Name, e.Smoke, err, got)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v; the row printed:\n%s", err, got)
			}
			if got != string(want) {
				t.Errorf("trainbench -fig %s %s differs from %s\n--- got\n%s--- want\n%s", e.Name, e.Smoke, golden, got, want)
			}
			if !regenerates {
				return
			}
			wrote, err := os.ReadFile(filepath.Base(artifact))
			if err != nil {
				t.Fatal(err)
			}
			want, err = os.ReadFile(artifact)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(allocsField.ReplaceAll(wrote, nil), allocsField.ReplaceAll(want, nil)) {
				t.Errorf("trainbench -fig %s %s wrote a %s that differs from the committed %s; after a deliberate change regenerate it with `make bench` / `make tune`",
					e.Name, e.Smoke, filepath.Base(artifact), artifact)
			}
		})
	}
}

// TestTableIsHonest checks what the drivers of the table assume of it.
func TestTableIsHonest(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Name == "help" || seen[e.Name] {
			t.Errorf("row name %q is empty, reserved or used twice", e.Name)
		}
		seen[e.Name] = true
		if e.Doc == "" || e.Run == nil {
			t.Errorf("row %q lacks a Doc or a Run", e.Name)
		}
		if (e.Iters > 0) != strings.Contains(e.Smoke, "-iters ") {
			t.Errorf("row %q: default -iters %d but Smoke %q — a row that takes -iters smokes at a reduced one, a row that takes none is not given one", e.Name, e.Iters, e.Smoke)
		}
	}
	for _, name := range slices.Concat(slowRows, aloneRows) {
		if !seen[name] {
			t.Errorf("slowRows or aloneRows names %q, which is not a row", name)
		}
	}
	help, err := trainbench("-fig help")
	if err != nil || strings.Count(help, "\n") != len(Experiments) {
		t.Errorf("-fig help: %v, %d lines for %d rows", err, strings.Count(help, "\n"), len(Experiments))
	}
}

// TestDocsListEveryRow holds TESTING.md's artifact table — the one
// artifact → command index — to the experiment table, both ways.
func TestDocsListEveryRow(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "TESTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## Reproduce the paper's artifacts, one command each\n"
	_, section, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("TESTING.md has no %q section", strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`trainbench -fig ([a-z0-9-]+)`).FindAllStringSubmatch(section, -1) {
		listed[m[1]] = true
	}
	for _, e := range Experiments {
		if !listed[e.Name] {
			t.Errorf("TESTING.md's artifact table does not list `trainbench -fig %s`", e.Name)
		}
		delete(listed, e.Name)
	}
	for name := range listed {
		t.Errorf("TESTING.md's artifact table lists `-fig %s`, which is not a row", name)
	}
}

// TestOptsRejected: a flag value no row can run with is an error naming
// the flag, and -iters 0 is the row's default. Unchecked, these were a
// hang (-min 0 doubles 0 forever), panics (-gpus 0, and a reduce-scatter
// count the ranks do not divide), a divide by zero (-iters 0) and failed
// gates, so a command line that is still running after 2 s takes the
// test binary down instead of stalling it.
func TestOptsRejected(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-fig 8 -min 0", "-min 0"},
		{"-fig 8 -min 2048 -max 1024", "-max 1024"},
		{"-fig 8 -gpus 0", "-gpus 0"},
		{"-fig 8 -coll all-to-all", "-coll"},
		{"-fig 8 -coll reduce-scatter -gpus 6", "-gpus 6"},
		{"-fig 8 -coll reduce-scatter -gpus 3 -min 4 -max 8", "-gpus 3"},
		{"-fig 8 -coll reduce-scatter -gpus 3 -min 13 -max 52", "-gpus 3"}, // 3, 6, then 13 elements
		{"-fig moe -trials -1", "-trials -1"},
		{"-fig table1 -iters 10 -filter no-such-config", "-filter"},
		{"-fig chaos -iters 1", "-iters 1"},
		{"-fig 14", "unknown -fig"},
		{"-fig 8b -iters 0 -max 1024", ""},
		{"-fig 8 -iters -3 -gpus 1 -min 1 -max 2", ""},
	} {
		guard := time.AfterFunc(2*time.Second, func() { panic("trainbench " + c.args + ": still running after 2 s") })
		out, err := trainbench(c.args)
		guard.Stop()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("trainbench %s: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("trainbench %s: error %v, want one naming %q", c.args, err, c.want)
		case c.want != "" && out != "":
			t.Errorf("trainbench %s printed before it rejected its flags:\n%s", c.args, out)
		}
	}
	if got := SizeSweep(1<<62, math.MaxInt); !slices.Equal(got, []int{1 << 62}) {
		t.Errorf("SizeSweep up to MaxInt = %v: the doubling overflowed", got)
	}
}

// TestChaosMinIters holds chaosMinIters to the schedules: below it the
// row refuses with ErrTooFewIters (TestExperiments runs it at the
// floor), and it is the floor — one iteration fewer and some scenario
// ends with a scheduled event still pending.
func TestChaosMinIters(t *testing.T) {
	if _, err := trainbench(fmt.Sprintf("-fig chaos -iters %d", chaosMinIters-1)); !errors.Is(err, ErrTooFewIters) {
		t.Errorf("-iters %d: %v, want ErrTooFewIters", chaosMinIters-1, err)
	}
	pending := 0
	for _, sc := range chaosScenarios(chaosMinIters - 1) {
		rep, err := chaos.Run(sc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		pending += len(sc.cfg.Schedule) - rep.KillsApplied - rep.RevivesApplied
	}
	if pending == 0 {
		t.Errorf("every scheduled event lands within %d iterations: chaosMinIters can be lowered", chaosMinIters-1)
	}
}
