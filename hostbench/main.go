// Command hostbench is the layered host-time benchmark of the artifact
// pipeline and the simulation service. It drives one workload through the
// public APIs of the experiments, runner, store and simd packages, checks
// every output it gets back, and prints one JSON result line.
//
//	bash hostbench/run.sh --workload suite-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run, and the spans are
// written to <out>/trace/. NOTES.md says why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// suiteScale is the one problem scale both suites regenerate at.
const suiteScale = 0.05

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and output checks.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// problems lists every output check that did not hold.
	problems []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	nproc   int
	// work is a private scratch directory, removed when the run ends.
	work string
	tr   *tracer
}

// host names the machine and build a number was taken on.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

var benchWorkloads = map[string]func(config, *report) error{
	"suite-cold": func(c config, r *report) error { return runSuite(c, r, false) },
	"suite-warm": func(c config, r *report) error { return runSuite(c, r, true) },
	"serve":      runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "suite-cold, suite-warm or serve")
		seed    = flag.Int64("seed", 1, "seed of the serve request deck (the suites are deterministic)")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for scratch stores and trace files")
	)
	flag.Parse()
	run, ok := benchWorkloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: hostbench --workload suite-cold|suite-warm|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	h := host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
		Workload:   *name,
		Seed:       *seed,
		Traced:     *trace == 1,
	}
	c := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		nproc:   h.Nproc,
		work:    work,
	}
	if c.traced {
		c.tr = newTracer()
	}
	rep := newReport()
	err = run(c, rep)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if c.traced {
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := c.tr.write(path, h); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "hostbench: spans written to", path)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "hostbench: check failed:", p)
	}
	meta, _ := json.Marshal(map[string]any{"host": h})
	fmt.Println(string(meta))
	line, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
