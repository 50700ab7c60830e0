package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynfd/internal/dataset"
	"dynfd/internal/fd"
	"dynfd/internal/oracle"
	"dynfd/internal/stream"
)

func TestSnapshotRoundTrip(t *testing.T) {
	t.Parallel()
	e := mustBootstrap(t, DefaultConfig())
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 2},
		{Kind: stream.Insert, Values: []string{"Marie", "Scott", "14467", "Potsdam"}},
	}}); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	e2, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Equal(e.FDs(), e2.FDs()) || !fd.Equal(e.NonFDs(), e2.NonFDs()) {
		t.Fatal("covers differ after restore")
	}
	if e.NumRecords() != e2.NumRecords() {
		t.Fatal("record counts differ")
	}
	if err := e2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Identical evolution afterwards, including identical new ids.
	batch := stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"Zoe", "King", "1", "X"}},
	}}
	r1, err := e.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("post-restore batches diverge: %+v vs %+v", r1, r2)
	}
}

func TestSnapshotPreservesNextIDAcrossDeletes(t *testing.T) {
	t.Parallel()
	// If the newest records were deleted, the restored engine must not
	// reuse their ids.
	e := mustBootstrap(t, DefaultConfig())
	res, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"A", "B", "C", "D"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	newest := res.InsertedIDs[0]
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: newest},
	}}); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Insert, Values: []string{"E", "F", "G", "H"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.InsertedIDs[0] <= newest {
		t.Errorf("restored engine reused id %d (newest deleted was %d)", res2.InsertedIDs[0], newest)
	}
}

func TestRestoreRejectsInvalidSnapshots(t *testing.T) {
	t.Parallel()
	if _, err := Restore(&Snapshot{NumAttrs: 0}); err == nil {
		t.Error("zero attrs accepted")
	}
	if _, err := Restore(&Snapshot{NumAttrs: 2, Records: []RecordSnapshot{
		{ID: 5, Values: []string{"a", "b"}},
		{ID: 3, Values: []string{"c", "d"}},
	}}); err == nil {
		t.Error("non-ascending ids accepted")
	}
	if _, err := Restore(&Snapshot{NumAttrs: 2, FDs: []FDSnapshot{{Lhs: []int{9}, Rhs: 0}}}); err == nil {
		t.Error("out-of-range FD attribute accepted")
	}
	if _, err := Restore(&Snapshot{NumAttrs: 2, NonFDs: []NonFDSnapshot{{Lhs: []int{-1}, Rhs: 0}}}); err == nil {
		t.Error("negative attribute accepted")
	}
	// Non-dual covers.
	if _, err := Restore(&Snapshot{
		NumAttrs: 2,
		FDs:      []FDSnapshot{{Lhs: nil, Rhs: 1}},
		NonFDs:   []NonFDSnapshot{{Lhs: []int{0}, Rhs: 1}},
	}); err == nil {
		t.Error("non-dual covers accepted")
	}
}

// TestSnapshotMidWorkload snapshots at random points of a random workload
// and verifies the restored engine stays exact.
func TestSnapshotMidWorkload(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(77))
	const attrs = 4
	cols := make([]string, attrs)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	rel := dataset.New("t", cols)
	for i := 0; i < 12; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(3))
		}
		_ = rel.Append(row)
	}
	e, err := Bootstrap(rel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	for i := 0; i < 12; i++ {
		live = append(live, int64(i))
	}
	for step := 0; step < 6; step++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(3))
		}
		res, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
			{Kind: stream.Insert, Values: row},
			{Kind: stream.Delete, ID: live[r.Intn(len(live))]},
		}})
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the live-id list from the engine.
		live = live[:0]
		for id := int64(0); id < e.store.NextID(); id++ {
			if _, ok := e.Record(id); ok {
				live = append(live, id)
			}
		}
		_ = res
		e2, err := Restore(e.Snapshot())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !fd.Equal(e.FDs(), e2.FDs()) {
			t.Fatalf("step %d: covers diverge", step)
		}
		if err := e2.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// legacySnapshotJSON is an engine snapshot as earlier releases wrote it:
// its config still carries the retired StealChunk and DisableStealing
// knobs, and Workers 0, which used to select a serial engine.
const legacySnapshotJSON = `{"num_attrs":3,"next_id":4,
"records":[{"id":0,"values":["1","x","p"]},{"id":1,"values":["1","x","q"]},{"id":2,"values":["2","y","p"]},{"id":3,"values":["3","y","q"]}],
"fds":[{"lhs":[1,2],"rhs":0},{"lhs":[0],"rhs":1}],
"non_fds":[{"lhs":[1],"rhs":0,"witness":[2,3],"has_pair":true},{"lhs":[2],"rhs":0,"witness":[0,2],"has_pair":true},{"lhs":[2],"rhs":1,"witness":[0,2],"has_pair":true},{"lhs":[0,1],"rhs":2,"witness":[0,1],"has_pair":true}],
"config":{"ClusterPruning":true,"ViolationSearch":true,"ValidationPruning":true,"DepthFirstSearch":true,"DeltaPruning":true,"EfficiencyThreshold":0.1,"DFSSampleRate":0.1,"Seed":0,"KeyColumns":null,"UpdateColumnPruning":false,"Workers":0,"StealChunk":1,"DisableStealing":true}}`

// TestRestoreLegacyConfigKeys restores a snapshot that still names the
// retired config knobs: the unknown keys are ignored, Workers 0 runs the
// inline scheduler, and a batch afterwards lands on the oracle's covers.
func TestRestoreLegacyConfigKeys(t *testing.T) {
	t.Parallel()
	var snap Snapshot
	if err := json.Unmarshal([]byte(legacySnapshotJSON), &snap); err != nil {
		t.Fatal(err)
	}
	e, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.pool.Workers(); got != 1 {
		t.Fatalf("legacy Workers 0 resolved to %d slots, want 1 (inline)", got)
	}
	if _, err := e.ApplyBatch(stream.Batch{Changes: []stream.Change{
		{Kind: stream.Delete, ID: 3},
		{Kind: stream.Update, ID: 0, Values: []string{"2", "y", "q"}},
		{Kind: stream.Insert, Values: []string{"1", "x", "r"}},
	}}); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{{"1", "x", "q"}, {"2", "y", "p"}, {"2", "y", "q"}, {"1", "x", "r"}}
	if got, want := e.FDs(), oracle.MinimalFDs(rows, 3); !fd.Equal(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	if got, want := e.NonFDs(), oracle.MaximalNonFDs(rows, 3); !fd.Equal(got, want) {
		t.Errorf("NonFDs = %v, want %v", got, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
