package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the runs must honour.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, w workload, trace bool) config {
	return config{workload: w, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), scale: 0.05, setups: 2}
}

// TestSmoke runs every workload at tiny scale in both modes and requires
// every metric BENCHMARK.json names to print with its unit, in the table
// and in the result line. claims-serve is not in BENCHMARK.json but must
// report the same metrics.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var table, line bytes.Buffer
			rep, err := runWorkload(tinyConfig(t, w, trace), &table)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct || rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, rep.correct, rep.attempted, rep.failed, table.String())
			}
			if err := printJSON(&line, rep); err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &out); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, line.String(), err)
			}
			if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
				t.Fatalf("%s: result line lacks a key: %s", w.name, line.String())
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line has %d metrics, BENCHMARK.json lists %d", w.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(table.String(), m.Name) {
					t.Errorf("%s trace=%v: table does not print %s", w.name, trace, m.Name)
				}
			}
			if !trace && w.follower {
				for _, name := range tableOnly {
					if !strings.Contains(table.String(), name) {
						t.Errorf("%s: table does not print %s", w.name, name)
					}
				}
			}
		}
	}
}

// TestOutputCheckFails corrupts the outputs of a real run and requires
// the output check to reject each corruption.
func TestOutputCheckFails(t *testing.T) {
	for _, name := range []string{"disease-update", "claims-serve"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig(t, w, false)
		in, err := buildInputs(w, cfg.seed, cfg.scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runE2E(w, in, e2eOpts{seconds: 1, setups: 1, entry: viaHTTP, dir: cfg.out})
		if err != nil {
			t.Fatal(err)
		}
		check := func() *report {
			rep := &report{correct: true}
			checkWrites(rep, "write", in, res)
			if err := checkFinal(rep, in, res); err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if rep := check(); !rep.correct {
			t.Fatalf("%s: untouched run fails the check: %v", name, rep.problems)
		}

		p := res.passes[0]
		p.acks[1].ids[0]++
		if rep := check(); rep.correct || rep.failed != 1 {
			t.Errorf("%s: wrong inserted_ids passed the check (failed=%d)", name, rep.failed)
		}
		p.acks[1].ids[0]--

		for fd := range p.fds {
			delete(p.fds, fd)
			if rep := check(); rep.correct {
				t.Errorf("%s: FD set missing %s passed the check", name, fd)
			}
			p.fds[fd] = true
			break
		}
		p.fds["0->0"] = true // trivial, so never a reported FD
		if rep := check(); rep.correct {
			t.Errorf("%s: FD set with an extra FD passed the check", name)
		}
	}
}
