// Command perfbench is vliwq's end-to-end benchmark: one process that drives
// four named workloads against the real public entry points (the vliwd
// service, the vliwgate gateway, the exp figure harness, the /batch
// endpoint), checks every output off the clock, and prints every metric by
// name and unit. README.md in this directory documents the workloads, the
// metrics and which layer each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-verify --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
// --trace 0 it carries the end-to-end metrics; with --trace 1 the per-layer
// metrics of a separate traced run. The exit code is non-zero when any
// output check failed or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	testdata string // directory holding the expected figures output
	traceOut string // directory the traced run writes its spans to
}

// report is what a workload run produces: the output-check counts, the
// metrics of the requested kind, and human-readable lines printed before
// the JSON result.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	spans     *tracer
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed output check with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		r.note("CHECK FAILED: "+format, args...)
	}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config) (*report, error){
	"cold-verify":  runCold,
	"warm-gateway": runWarm,
	"figures":      runFigures,
	"batch-tiered": runBatch,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: cold-verify, warm-gateway, figures or batch-tiered")
		seed     = fs.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "timed phase length in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		testdata = fs.String("testdata", filepath.Join("perfbench", "testdata"), "directory of expected outputs")
		traceOut = fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes spans to")
		writeExp = fs.Bool("write-expected", false, "write the figures output for --seed into --testdata and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		testdata: *testdata,
		traceOut: *traceOut,
	}
	if *writeExp {
		if err := writeExpectedFigures(cfg); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep, err := drive(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.spans != nil {
		name := fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)
		if err := rep.spans.writeFile(filepath.Join(cfg.traceOut, name)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, line := range rep.spans.selfTimeTable() {
			fmt.Fprintln(stdout, line)
		}
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out, err := result(rep, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range want {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", m.name, rep.metrics[m.name], m.unit)
	}
	fmt.Fprintln(stdout, out)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// result renders the final JSON line. Every metric of the requested kind
// must be present: a missing one is a bug in the workload driver.
func result(rep *report, want []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = value{Value: v, Unit: m.unit}
	}
	if rep.attempted < 1 {
		return "", fmt.Errorf("no output was checked")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms})
	return string(b), err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
