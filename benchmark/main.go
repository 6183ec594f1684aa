// Command benchmark is the host-time benchmark of the DFCCL simulator.
// See README.md in this directory for the workloads, the metrics and
// how the two clocks (host and virtual) are kept apart.
//
//	go run -C benchmark . --workload W --seed N --seconds T --trace 0|1
//	go run -C benchmark . -seeds 1,1,1 -out results.json
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu"`
	Seconds   int          `json:"seconds"`
	Runs      []*runResult `json:"runs"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process and print the driver's result line; empty runs all five, each in a child process")
	seed := flag.Int64("seed", 1, "workload seed (1 is the default; 2 is held out for confirming claims)")
	seconds := flag.Int("seconds", 15, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "write the results (and, beside them, the traced runs' spans) to this file")
	seeds := flag.String("seeds", "", "full run only: comma-separated seeds, one timed and one traced run of every workload per entry (default: -seed)")
	compare := flag.Bool("compare", false, "compare two results files given as arguments; exit 1 if any metric regressed")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *out)
	default:
		if *seeds == "" {
			*seeds = strconv.FormatInt(*seed, 10)
		}
		err = runAll(*seeds, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, in this process. The last
// line of standard output is the result object.
func runOne(name string, seed int64, seconds int, traced bool, out string) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(def, seed, time.Duration(seconds)*time.Second, traced, false)
	if err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", name+":", e)
	}
	if out != "" {
		if err := writeResults(out, &resultsFile{Seconds: seconds, Runs: []*runResult{res}}); err != nil {
			return err
		}
	} else {
		for _, line := range res.TopSelf {
			fmt.Fprintln(os.Stderr, "self time", line)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a child process of its own — so that
// peak memory and garbage-collector state are per workload — once timed
// and once traced per seed, prints every metric by name and unit, and
// fails if any output check failed.
func runAll(seedList string, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", "bench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
	}
	all := &resultsFile{Seconds: seconds}
	var failed []string
	for _, s := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		for _, def := range workloads {
			for trace := 0; trace <= 1; trace++ {
				part := filepath.Join(tmp, fmt.Sprintf("run%d.json", len(all.Runs)))
				cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part)
				cmd.Stderr = os.Stderr
				runErr := cmd.Run()
				var got resultsFile
				if err := readJSON(part, &got); err != nil {
					return fmt.Errorf("%s: %v (%v)", def.name, runErr, err)
				}
				if runErr != nil {
					failed = append(failed, def.name)
				}
				all.Runs = append(all.Runs, got.Runs...)
				if out != "" && trace == 1 {
					dst := fmt.Sprintf("%s.spans.%s.seed%d.json", strings.TrimSuffix(out, ".json"), def.name, seed)
					if err := os.Rename(spansPath(part), dst); err != nil {
						return err
					}
				}
				printRun(got.Runs[0])
			}
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("output checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

func printRun(r *runResult) {
	fmt.Printf("\n%s  seed %d  trace %d  units %d  attempted %d  failed %d\n", r.Workload, r.Seed, r.Trace, r.Units, r.Attempted, r.Failed)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		clock := "host"
		switch {
		case strings.Contains(name, "virt_"):
			clock = "virt"
		case metricSpecs[name].Model:
			clock = "model"
		}
		fmt.Printf("  %-34s %14.4f %-6s %s\n", name, m.Value, m.Unit, clock)
	}
	for _, line := range r.TopSelf {
		fmt.Printf("  self time %s\n", line)
	}
}

func spansPath(out string) string {
	return strings.TrimSuffix(out, ".json") + ".spans.json"
}

// writeResults writes the results file, and the spans of traced runs to
// a file beside it so the results stay small enough to commit.
func writeResults(path string, f *resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f.GoVersion, f.NumCPU = runtime.Version(), runtime.NumCPU()
	var spans []span
	for _, r := range f.Runs {
		spans = append(spans, r.Spans...)
		r.Spans = nil
	}
	if len(spans) > 0 {
		if err := writeJSON(spansPath(path), spans); err != nil {
			return err
		}
	}
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
