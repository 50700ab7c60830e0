package core

import (
	"sync"
	"testing"

	"dynfd/internal/datagen"
	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/stream"
	"dynfd/internal/ucc"
	"dynfd/internal/validate"
)

// tailChecks collects the verdicts of validate's new-tail cross-check hook.
type tailChecks struct {
	mu       sync.Mutex
	checks   int
	mismatch []error
}

func (c *tailChecks) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if err != nil && len(c.mismatch) < 5 {
		c.mismatch = append(c.mismatch, err)
	}
}

// take returns and resets the collected checks.
func (c *tailChecks) take() (int, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, m := c.checks, c.mismatch
	c.checks, c.mismatch = 0, nil
	return n, m
}

// TestInsertSweepTailMatchesTable checks that every pruned validation the
// engines issue meets the new-tail precondition (the candidate held before
// the batch's inserts). With validate's cross-check hook installed, each
// new-tail check also runs the table kernel on the same pivot cluster and
// any difference in verdict or witness fails the test. The replays cover
// the inline scheduler (workers 0 and 1) and the pipelined scheduler with
// speculation (workers 2) and delta pruning over datagen's
// insert-heavy, update-heavy and insert-only histories, and the UCC
// engine over the two narrower ones. Covers must also agree across worker
// counts.
//
// Not parallel: the hook is process-wide, so no other validation may run
// while it is installed.
func TestInsertSweepTailMatchesTable(t *testing.T) {
	var got tailChecks
	validate.SetTailCheckTestHook(got.record)
	defer validate.SetTailCheckTestHook(nil)
	for _, name := range []string{"single", "disease", "claims"} {
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := datagen.Generate(p.Scaled(0.03))
		if err != nil {
			t.Fatal(err)
		}
		batches := stream.FixedBatches(d.Changes, 25)
		var inline []fd.FD
		for _, workers := range []int{0, 1, 2} {
			e, err := Bootstrap(d.Relation, parallelConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if _, err := e.ApplyBatch(b); err != nil {
					t.Fatalf("%s workers=%d batch %d: %v", name, workers, i, err)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			checks, mismatches := got.take()
			for _, m := range mismatches {
				t.Errorf("%s workers=%d: %v", name, workers, m)
			}
			if checks == 0 {
				t.Errorf("%s workers=%d: the insert sweep never took the new-tail path", name, workers)
			}
			if workers == 0 {
				inline = e.FDs()
			} else if !fd.Equal(e.FDs(), inline) {
				t.Errorf("%s workers=%d: FDs differ from the workers=0 engine", name, workers)
			}
		}
		if name == "single" {
			continue // 26 columns: the UCC lattice is too wide for a unit test
		}
		// With the key split over two columns the minimal unique spans
		// both, so the UCC engine's validations reach the new-tail path.
		rel, changes := splitKeyColumn(d)
		u, err := ucc.Bootstrap(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range stream.FixedBatches(changes, 25) {
			if _, err := u.ApplyBatch(b); err != nil {
				t.Fatalf("%s ucc batch %d: %v", name, i, err)
			}
		}
		checks, mismatches := got.take()
		for _, m := range mismatches {
			t.Errorf("%s ucc: %v", name, m)
		}
		if checks == 0 {
			t.Errorf("%s ucc: the insert sweep never took the new-tail path", name)
		}
	}
}

// splitKeyColumn returns d's relation and history with the serial key
// datagen puts in column 0 split into two columns, all but its last digit
// and that digit, so the key becomes a two-column unique.
func splitKeyColumn(d *datagen.Dataset) (*dataset.Relation, []stream.Change) {
	split := func(row []string) []string {
		k := row[0]
		return append([]string{k[:len(k)-1], k[len(k)-1:]}, row[1:]...)
	}
	rel := dataset.New(d.Relation.Name, split(d.Relation.Columns))
	for _, row := range d.Relation.Rows {
		rel.Rows = append(rel.Rows, split(row))
	}
	changes := make([]stream.Change, len(d.Changes))
	for i, c := range d.Changes {
		changes[i] = c
		if c.Values != nil {
			changes[i].Values = split(c.Values)
		}
	}
	return rel, changes
}
