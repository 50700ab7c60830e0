// Command perfbench is the end-to-end benchmark of the DynFD constraint
// service: a runtime behind httpapi on a loopback listener (plus a
// replication follower on the replicated workload), driven in process with
// internal/datagen histories.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --workload all runs every workload in turn, each with its own table and
// result line.
//
// With --trace 0 it runs the workload untraced, entering only through
// HTTP, and reports the end-to-end metrics. With --trace 1 it replays the
// same batch sequence once per layer entry point and reports the
// per-layer metrics. Either way it checks the service's outputs and exits
// non-zero when they are wrong. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metric is one reported number; n is its sample count (0 when the value
// is not a percentile or a median over samples).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	problems          []string // output check failures
	notes             []string // informational lines for the table
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string  // directory for data and span files
	scale    float64 // datagen scale; tests shrink the histories
	// setup_s is the median of at least setups set-ups, more while their
	// summed time is below setupSeconds.
	setups       int
	setupSeconds float64
}

func main() {
	var (
		name    = flag.String("workload", "", `workload name, or "all" to run every workload in turn`)
		seed    = flag.Int64("seed", -1, "workload seed: relabels the generated values (negative sends them as generated)")
		seconds = flag.Float64("seconds", 25, "length of the measured write window")
		trace   = flag.Int("trace", 0, "1 runs the per-layer traced replay")
		out     = flag.String("out", ".bench_build", "directory for data and span files")
	)
	flag.Parse()
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, err := workloadByName(*name); err == nil {
		run = []workload{w}
	}
	if run == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	correct := true
	for _, w := range run {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, scale: 1, setups: 5, setupSeconds: 3}
		rep, err := runWorkload(cfg, os.Stdout)
		if err == nil {
			err = printJSON(os.Stdout, rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		correct = correct && rep.correct
	}
	if !correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its table to log.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	in, err := buildInputs(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "data-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{correct: true}
	if cfg.trace {
		err = runTraced(cfg, in, dir, rep)
	} else {
		err = runUntraced(cfg, in, dir, rep)
	}
	if err != nil {
		return nil, err
	}
	printTable(log, cfg, in, rep)
	return rep, nil
}

func printTable(log io.Writer, cfg config, in *inputs, rep *report) {
	w := cfg.workload
	mode := "closed loop, 1 writer"
	if w.openLoop {
		mode = fmt.Sprintf("open loop, %g batches/s offered, %g reads/s against the follower", w.writeRate, w.readRate)
	}
	fmt.Fprintf(log, "workload %s: %s profile seed %d, workload seed %d, %d columns, %d initial rows, %d batches of %d, %s\n",
		w.name, w.dataset, in.profile.Seed, in.seed, len(in.columns), len(in.initial), len(in.batches), w.batchSize, mode)
	for _, m := range rep.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("(n=%d)", m.n)
		}
		fmt.Fprintf(log, "  %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, n)
	}
	for _, s := range rep.notes {
		fmt.Fprintln(log, "  "+s)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(log, "  OUTPUT CHECK FAILED: "+p)
	}
	fmt.Fprintf(log, "  attempted %d, failed %d, correct %v\n", rep.attempted, rep.failed, rep.correct)
}

// printJSON writes the result line. Only the metrics that BENCHMARK.json
// lists for the run's mode go into it; the table carries the rest.
func printJSON(out io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	for _, m := range rep.metrics {
		if !m.hidden() {
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ms[m.name] = value{v, m.unit}
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

// tableOnly lists end-to-end metrics that only the replicated workload
// produces, or that read 0 on a healthy run. They are printed in the
// table but kept out of the result line, whose metrics every workload
// must report with a non-zero value.
var tableOnly = []string{"read_p50_ms", "read_p90_ms", "follower_lag_p50_ms", "follower_lag_p90_ms", "fail_ratio"}

func (m metric) hidden() bool {
	for _, n := range tableOnly {
		if m.name == n {
			return true
		}
	}
	return false
}
