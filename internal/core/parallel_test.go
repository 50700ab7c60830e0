package core

import (
	"runtime"
	"testing"
	"time"

	"dynfd/internal/datagen"
	"dynfd/internal/fd"
	"dynfd/internal/pli"
	"dynfd/internal/stream"
	"dynfd/internal/validate"
)

func TestResolveWorkers(t *testing.T) {
	t.Parallel()
	if got := resolveWorkers(0); got != 1 {
		t.Errorf("resolveWorkers(0) = %d, want 1 (inline)", got)
	}
	if got := resolveWorkers(1); got != 1 {
		t.Errorf("resolveWorkers(1) = %d, want 1 (inline)", got)
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

// TestParallelPaperBatch replays the paper's Table 1 batch on engines with
// background workers and checks they land on the same covers as the
// inline engine.
func TestParallelPaperBatch(t *testing.T) {
	t.Parallel()
	inline := mustBootstrap(t, DefaultConfig())
	if _, err := inline.ApplyBatch(paperTable1Batch()); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		par := mustBootstrap(t, parallelConfig(workers))
		if _, err := par.ApplyBatch(paperTable1Batch()); err != nil {
			t.Fatal(err)
		}
		if got, want := par.FDs(), inline.FDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: FDs = %v, want %v", workers, got, want)
		}
		if got, want := par.NonFDs(), inline.NonFDs(); !fd.Equal(got, want) {
			t.Errorf("workers=%d: NonFDs = %v, want %v", workers, got, want)
		}
		if err := par.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// paperTable1Batch is the paper's Table 1 batch over paperRelation: one
// delete and two inserts.
func paperTable1Batch() stream.Batch {
	return stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
		{Kind: stream.Insert, Values: []string{"Marie", "Gray", "14469", "Potsdam"}},
	}}
}

// TestInlineMaintenanceBeforeValidation pins the Figure 1 phase timers of
// the single-slot scheduler: with no background workers there is no
// overlap to gain, so every attribute's Pli maintenance must run before
// the first validation of a batch, and its time must already sit in
// StructureTime then rather than land in the sweeps. The maintenance hook
// sleeps a millisecond per attribute, so the structure timer must have
// grown by at least that much when the first validation starts. The
// batches are datagen disease updates, each a delete plus an insert, so
// both sweeps validate.
//
// Not parallel: both hooks are process-wide.
func TestInlineMaintenanceBeforeValidation(t *testing.T) {
	p, err := datagen.ByName("disease")
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(p.Scaled(0.03))
	if err != nil {
		t.Fatal(err)
	}
	const attrSleep = time.Millisecond
	batches := stream.FixedBatches(d.Changes, 25)[:4]
	var (
		e                        *Engine
		structBefore, structSeen time.Duration
		maintained, firstSeen    int
		validations              int
	)
	pli.SetApplyAttrTestHook(func(int) {
		time.Sleep(attrSleep)
		maintained++
	})
	defer pli.SetApplyAttrTestHook(nil)
	validate.SetTestHook(func(validate.Request) {
		if validations == 0 {
			firstSeen = maintained
			structSeen = e.stats.StructureTime - structBefore
		}
		validations++
	})
	defer validate.SetTestHook(nil)
	for _, workers := range []int{0, 1} {
		if e, err = Bootstrap(d.Relation, parallelConfig(workers)); err != nil {
			t.Fatal(err)
		}
		validated := 0
		for i, b := range batches {
			maintained, firstSeen, validations = 0, 0, 0
			structBefore = e.stats.StructureTime
			if _, err := e.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if validations == 0 {
				continue
			}
			validated++
			if firstSeen != e.numAttrs || maintained != e.numAttrs {
				t.Errorf("workers=%d batch %d: first validation after %d of %d attribute maintenances (%d in total)",
					workers, i, firstSeen, e.numAttrs, maintained)
			}
			if want := time.Duration(e.numAttrs) * attrSleep; structSeen < want {
				t.Errorf("workers=%d batch %d: StructureTime grew %v before the first validation, want >= %v",
					workers, i, structSeen, want)
			}
		}
		if validated == 0 {
			t.Fatalf("workers=%d: no batch ran a validation", workers)
		}
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
	if got := restored.pool.Workers(); got != 4 {
		t.Errorf("restored effective workers = %d, want 4", got)
	}
}

// TestParallelEngineRepeatedBatches runs a longer alternating
// insert/delete workload on a parallel engine purely for -race coverage
// of the pipelined scheduler (correctness is covered by the oracle-backed
// workloads and the equivalence property test).
func TestParallelEngineRepeatedBatches(t *testing.T) {
	t.Parallel()
	runWorkload(t, parallelConfig(4), 11, 5, 20, 10, 8, 3)
}

// TestInsertSweepGetsTouchedClusterWalk checks that the inline (0, 1)
// and pipelined engines all leave the store with a new-cluster list
// stamped with the batch's pre-batch horizon — the minNewID their insert
// sweeps validate with — so cluster-pruned validations walk only the
// pivot clusters the batch touched (DESIGN.md §17).
func TestInsertSweepGetsTouchedClusterWalk(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 2} {
		e := mustBootstrap(t, parallelConfig(workers))
		from := e.store.NextID()
		if _, err := e.ApplyBatch(paperTable1Batch()); err != nil {
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
