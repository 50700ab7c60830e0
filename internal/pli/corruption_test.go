package pli

import (
	"strings"
	"testing"
)

// These tests tamper with the store's internals and assert that
// CheckConsistency pinpoints each class of corruption — the checker is
// what the engine's invariant tests and the snapshot loader lean on.

func corruptibleStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(2)
	for _, row := range [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}} {
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	return s
}

func TestDetectsDanglingClusterMember(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Add a ghost id to a cluster without a backing record.
	cid, _ := s.Index(0).ClusterOf("a")
	c := s.Index(0).Cluster(cid)
	c.IDs = append(c.IDs, 999)
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsUnsortedCluster(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	cid, _ := s.Index(0).ClusterOf("a")
	c := s.Index(0).Cluster(cid)
	c.IDs[0], c.IDs[1] = c.IDs[1], c.IDs[0]
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsWrongClusterPointer(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	rec, _ := s.Record(0)
	rec[0] = rec[0] + 100 // point at a non-existent cluster
	if err := s.CheckConsistency(); err == nil {
		t.Error("wrong cluster pointer not detected")
	}
}

func TestDetectsInvertedIndexDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	ix := s.Index(1)
	// Rename a value in the inverted index so it no longer matches its
	// cluster's Value.
	cid, _ := ix.ClusterOf("1")
	delete(ix.inverted, "1")
	ix.inverted["ghost"] = cid
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsEmptyCluster(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	ix := s.Index(0)
	cid, _ := ix.ClusterOf("b")
	ix.clusters[cid].IDs = nil
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// Arity drift is structurally impossible in the paged arena (records are
// fixed-width slab rows), so the former arity checks are replaced by the
// arena bookkeeping invariants below.

func TestDetectsPageLiveCountDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	s.pageN[0]++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "live count") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsRecordCountDrift(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	s.numRecs++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "record count") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsLiveBitBeyondHorizon(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Resurrect a slot past nextID and patch the counters so only the
	// horizon check can catch it.
	slot := s.nextID + 5
	s.live[0][slot>>6] |= 1 << (slot & 63)
	s.pageN[0]++
	s.numRecs++
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsUnfreedEmptyPage(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Kill all live bits but keep the slab allocated: an empty page must
	// have been freed by Delete/ApplyBatch.
	n := s.pageN[0]
	clear(s.live[0])
	s.pageN[0] = 0
	s.numRecs -= n
	for a := range s.shards {
		ix := s.shards[a].ix
		ix.clusters = map[int32]*Cluster{}
		ix.inverted = map[string]int32{}
	}
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "not freed") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

func TestDetectsDeadClusterMember(t *testing.T) {
	t.Parallel()
	s := corruptibleStore(t)
	// Tombstone a record in the arena without removing it from its
	// clusters: the membership sweep must flag the dead member.
	slot := int64(0)
	s.live[0][slot>>6] &^= 1 << (slot & 63)
	s.pageN[0]--
	s.numRecs--
	err := s.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("CheckConsistency = %v", err)
	}
}

// batchedStore returns a store bulk-loaded and then grown by one batch, so
// every attribute carries a valid new-cluster list with several entries.
func batchedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(2)
	var ins []BatchInsert
	for i, row := range [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}} {
		ins = append(ins, BatchInsert{ID: int64(i), Values: row})
	}
	if err := s.ApplyBatch(nil, ins, 0); err != nil {
		t.Fatal(err)
	}
	from := s.NextID()
	ins = []BatchInsert{{ID: from, Values: []string{"c", "9"}}, {ID: from + 1, Values: []string{"a", "1"}}, {ID: from + 2, Values: []string{"c", "8"}}}
	if err := s.ApplyBatch([]int64{1}, ins, 0); err != nil {
		t.Fatal(err)
	}
	if cids, ok := s.Index(0).NewClusters(from); !ok || len(cids) != 2 {
		t.Fatalf("precondition: new clusters %v ok=%v, want 2 valid entries", cids, ok)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	return s
}

func TestDetectsNewClusterListDrift(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		corrupt func(ix *Index)
		want    string
	}{
		{"duplicate", func(ix *Index) { ix.newCids = append(ix.newCids, ix.newCids[0]) }, "twice"},
		{"missing", func(ix *Index) { ix.newCids = ix.newCids[:1] }, "misses"},
		{"order", func(ix *Index) { ix.newCids[0], ix.newCids[1] = ix.newCids[1], ix.newCids[0] }, "order"},
		{"stale", func(ix *Index) {
			cid, _ := ix.ClusterOf("d") // untouched by the batch
			ix.newCids = append(ix.newCids, cid)
		}, "no member"},
		{"stamp", func(ix *Index) { ix.newFrom-- }, "misses"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := batchedStore(t)
			tc.corrupt(s.Index(0))
			err := s.CheckConsistency()
			if err == nil || !strings.Contains(err.Error(), "new-cluster list") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckConsistency = %v, want a new-cluster list error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestDetectsValueDeltaDrift(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		corrupt func(ix *Index)
		want    string
	}{
		{"count", func(ix *Index) { ix.born = ix.born[:1] }, "generations"},
		{"stamp", func(ix *Index) { ix.deltaGen-- }, "generations"},
		{"born", func(ix *Index) { ix.born[0] = "ghost" }, "born value"},
		{"died", func(ix *Index) { ix.died[0] = "1" }, "still present"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := batchedStore(t)
			// Attribute 1's batch killed "2" and created "9" and "8".
			ix := s.Index(1)
			if born, died, ok := ix.ValueDelta(ix.deltaGen); !ok || len(born) != 2 || len(died) != 1 {
				t.Fatalf("precondition: delta born=%v died=%v ok=%v", born, died, ok)
			}
			tc.corrupt(ix)
			err := s.CheckConsistency()
			if err == nil || !strings.Contains(err.Error(), "value delta") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckConsistency = %v, want a value delta error mentioning %q", err, tc.want)
			}
		})
	}
}
