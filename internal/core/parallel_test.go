package core

import (
	"runtime"
	"testing"

	"dynfd/internal/fd"
	"dynfd/internal/stream"
)

func TestResolveWorkers(t *testing.T) {
	t.Parallel()
	if got := resolveWorkers(0); got != 0 {
		t.Errorf("resolveWorkers(0) = %d, want 0 (serial)", got)
	}
	if got := resolveWorkers(3); got != 3 {
		t.Errorf("resolveWorkers(3) = %d", got)
	}
	if got := resolveWorkers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(-1) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

// parallelConfig returns the paper's configuration with a worker budget.
func parallelConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// TestParallelPaperBatch replays the paper's Table 1 batch on a parallel
// engine and checks it lands on the same covers as the serial engine,
// and that the fan-out actually engaged (ParallelLevels telemetry).
func TestParallelPaperBatch(t *testing.T) {
	t.Parallel()
	batch := stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}}
	serial := mustBootstrap(t, DefaultConfig())
	if _, err := serial.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		par := mustBootstrap(t, parallelConfig(workers))
		if _, err := par.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got, want := par.FDs(), serial.FDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: FDs = %v, want %v", workers, got, want)
		}
		if got, want := par.NonFDs(), serial.NonFDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: NonFDs = %v, want %v", workers, got, want)
		}
		if err := par.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		// workers < 0 resolves to GOMAXPROCS, which may be 1 on a
		// single-CPU machine — judge fan-out by the effective count.
		if resolveWorkers(workers) >= 2 {
			if par.Stats().ParallelLevels == 0 {
				t.Errorf("workers=%d: no level fanned out", workers)
			}
		} else if par.Stats().ParallelLevels != 0 {
			t.Errorf("workers=%d: ParallelLevels = %d on a single-worker engine",
				workers, par.Stats().ParallelLevels)
		}
	}
	if serial.Stats().ParallelLevels != 0 {
		t.Errorf("serial engine reported ParallelLevels = %d", serial.Stats().ParallelLevels)
	}
}

// TestWorkersSurviveSnapshot checks the knob round-trips through
// snapshot/restore like every other config field.
func TestWorkersSurviveSnapshot(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, parallelConfig(4))
	restored, err := Restore(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Config().Workers; got != 4 {
		t.Errorf("restored Workers = %d, want 4", got)
	}
	if restored.workers != 4 {
		t.Errorf("restored effective workers = %d, want 4", restored.workers)
	}
}

// TestParallelEngineRepeatedBatches runs a longer alternating
// insert/delete workload on a parallel engine purely for -race coverage
// of the scan/merge pipeline (correctness is covered by the oracle-backed
// workloads and the equivalence property test).
func TestParallelEngineRepeatedBatches(t *testing.T) {
	t.Parallel()
	runWorkload(t, parallelConfig(4), 11, 5, 20, 10, 8, 3)
}

// TestInsertSweepGetsTouchedClusterWalk checks that the serial, inline
// and pipelined engines all leave the store with a new-cluster list
// stamped with the batch's pre-batch horizon — the minNewID their insert
// sweeps validate with — so cluster-pruned validations walk only the
// pivot clusters the batch touched (DESIGN.md §17).
func TestInsertSweepGetsTouchedClusterWalk(t *testing.T) {
	t.Parallel()
	batch := stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}}
	for _, workers := range []int{0, 1, 2} {
		e := mustBootstrap(t, parallelConfig(workers))
		from := e.store.NextID()
		if _, err := e.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < e.numAttrs; a++ {
			if _, ok := e.store.Index(a).NewClusters(from); !ok {
				t.Errorf("workers=%d: attr %d has no touched-cluster list for horizon %d", workers, a, from)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
