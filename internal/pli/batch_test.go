package pli

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynfd/internal/fanout"
)

// equalStores asserts s1 and s2 are fully identical: counters, record
// arena contents, and per-attribute cluster structure including cluster
// ids. ApplyBatch is specified as bit-identical to deletes-then-inserts
// single-element application, so raw cluster ids must match, not just the
// value partitioning.
func equalStores(t *testing.T, label string, s1, s2 *Store) {
	t.Helper()
	if s1.NumAttrs() != s2.NumAttrs() || s1.NumRecords() != s2.NumRecords() || s1.NextID() != s2.NextID() {
		t.Fatalf("%s: shape differs: attrs %d/%d records %d/%d next %d/%d", label,
			s1.NumAttrs(), s2.NumAttrs(), s1.NumRecords(), s2.NumRecords(), s1.NextID(), s2.NextID())
	}
	s1.ForEachRecord(func(id int64, rec Record) bool {
		rec2, ok := s2.Record(id)
		if !ok {
			t.Fatalf("%s: record %d missing from second store", label, id)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("%s: record %d differs: %v vs %v", label, id, rec, rec2)
		}
		return true
	})
	for a := 0; a < s1.NumAttrs(); a++ {
		ix1, ix2 := s1.Index(a), s2.Index(a)
		if ix1.NumClusters() != ix2.NumClusters() {
			t.Fatalf("%s: attr %d cluster counts differ: %d vs %d", label, a, ix1.NumClusters(), ix2.NumClusters())
		}
		ix1.ForEachCluster(func(cid int32, c *Cluster) bool {
			c2 := ix2.Cluster(cid)
			if c2 == nil {
				t.Fatalf("%s: attr %d cluster %d missing from second store", label, a, cid)
			}
			if c.Value != c2.Value || !reflect.DeepEqual(c.IDs, c2.IDs) {
				t.Fatalf("%s: attr %d cluster %d differs: %q%v vs %q%v", label, a, cid, c.Value, c.IDs, c2.Value, c2.IDs)
			}
			return true
		})
	}
}

// TestApplyBatchEquivalence is the maintenance counterpart of the PR 1
// validation equivalence property: random insert/update/delete streams
// applied through ApplyBatch — serially and with a worker pool — produce a
// store identical to one maintained by single-element Insert/Delete calls,
// and every intermediate state passes CheckConsistency. Run with -race
// this also proves the per-attribute fan-out shares no mutable state.
func TestApplyBatchEquivalence(t *testing.T) {
	t.Parallel()
	const seeds = 25
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)))
			attrs := 1 + r.Intn(5)
			single := NewStore(attrs)
			serial := NewStore(attrs)
			parallel := NewStore(attrs)
			var live []int64
			row := func() []string {
				vals := make([]string, attrs)
				for a := range vals {
					vals[a] = fmt.Sprint(r.Intn(3 + a*2))
				}
				return vals
			}
			for batchNo := 0; batchNo < 8; batchNo++ {
				// Random batch: delete a sample of live records (an update
				// is a delete plus an insert at this layer), insert fresh
				// tuples.
				var deletes []int64
				perm := r.Perm(len(live))
				nDel := r.Intn(len(live) + 1)
				for _, i := range perm[:nDel] {
					deletes = append(deletes, live[i])
				}
				var inserts []BatchInsert
				id := single.NextID()
				for n := r.Intn(12); n > 0; n-- {
					inserts = append(inserts, BatchInsert{ID: id, Values: row()})
					id++
				}

				for _, d := range deletes {
					if err := single.Delete(d); err != nil {
						t.Fatal(err)
					}
				}
				for _, ins := range inserts {
					if err := single.InsertWithID(ins.ID, ins.Values); err != nil {
						t.Fatal(err)
					}
				}
				if err := serial.ApplyBatch(deletes, inserts, 0); err != nil {
					t.Fatal(err)
				}
				if err := parallel.ApplyBatch(deletes, inserts, 4); err != nil {
					t.Fatal(err)
				}

				for name, s := range map[string]*Store{"single": single, "serial": serial, "parallel": parallel} {
					if err := s.CheckConsistency(); err != nil {
						t.Fatalf("batch %d %s: %v", batchNo, name, err)
					}
				}
				equalStores(t, fmt.Sprintf("batch %d serial", batchNo), single, serial)
				equalStores(t, fmt.Sprintf("batch %d parallel", batchNo), single, parallel)

				dead := make(map[int64]bool, len(deletes))
				for _, d := range deletes {
					dead[d] = true
				}
				kept := live[:0]
				for _, id := range live {
					if !dead[id] {
						kept = append(kept, id)
					}
				}
				live = kept
				for _, ins := range inserts {
					live = append(live, ins.ID)
				}
			}
		})
	}
}

// TestApplyBatchValidation exercises the up-front validation: every error
// case must leave the store untouched.
func TestApplyBatchValidation(t *testing.T) {
	t.Parallel()
	build := func(t *testing.T) *Store {
		s := NewStore(2)
		for _, row := range [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}} {
			if _, err := s.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	cases := []struct {
		name    string
		deletes []int64
		inserts []BatchInsert
	}{
		{"unknown delete", []int64{99}, nil},
		{"duplicate delete", []int64{1, 1}, nil},
		{"descending insert ids", nil, []BatchInsert{{ID: 4, Values: []string{"x", "y"}}, {ID: 3, Values: []string{"x", "y"}}}},
		{"insert id below next", nil, []BatchInsert{{ID: 2, Values: []string{"x", "y"}}}},
		{"bad arity", nil, []BatchInsert{{ID: 3, Values: []string{"x"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := build(t)
			want := build(t)
			if err := s.ApplyBatch(tc.deletes, tc.inserts, 2); err == nil {
				t.Fatal("invalid batch accepted")
			}
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("store inconsistent after rejected batch: %v", err)
			}
			equalStores(t, "rejected batch", want, s)
		})
	}
}

// TestApplyBatchClusterTurnover deletes an entire cluster and re-inserts
// its value in the same batch: the value must come back under a fresh
// cluster id with only the new member.
func TestApplyBatchClusterTurnover(t *testing.T) {
	t.Parallel()
	s := NewStore(2)
	for _, row := range [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}} {
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	oldCid, _ := s.Index(0).ClusterOf("a")
	err := s.ApplyBatch([]int64{0, 1}, []BatchInsert{{ID: 3, Values: []string{"a", "3"}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	cid, ok := s.Index(0).ClusterOf("a")
	if !ok {
		t.Fatal("value a lost")
	}
	if cid == oldCid {
		t.Fatalf("cluster id %d reused after full turnover", cid)
	}
	c := s.Index(0).Cluster(cid)
	if c.Size() != 1 || c.IDs[0] != 3 {
		t.Fatalf("cluster a = %v", c.IDs)
	}
}

// TestApplyBatchFreesPages deletes every record of a page in one batch and
// checks the arena slab is released.
func TestApplyBatchFreesPages(t *testing.T) {
	t.Parallel()
	s := NewStore(1)
	n := pageSize + 10
	ids := make([]int64, 0, pageSize)
	for i := 0; i < n; i++ {
		id, err := s.Insert([]string{fmt.Sprint(i % 7)})
		if err != nil {
			t.Fatal(err)
		}
		if id < pageSize {
			ids = append(ids, id)
		}
	}
	if s.pages[0] == nil {
		t.Fatal("page 0 not allocated")
	}
	if err := s.ApplyBatch(ids, nil, 2); err != nil {
		t.Fatal(err)
	}
	if s.pages[0] != nil || s.live[0] != nil {
		t.Error("page 0 not freed after all its records died")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := s.NumRecords(); got != 10 {
		t.Fatalf("NumRecords = %d, want 10", got)
	}
}

// TestAppendLookup checks the buffer-reusing lookup path against Lookup
// and verifies in-place filtering across reuse of the same buffer.
func TestAppendLookup(t *testing.T) {
	t.Parallel()
	s := NewStore(2)
	rows := [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}, {"a", "1"}, {"a", "1"}}
	for _, row := range rows {
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]int64, 0, 8)
	for _, tc := range []struct {
		vals []string
		want []int64
	}{
		{[]string{"a", "1"}, []int64{0, 3, 4}},
		{[]string{"a", "2"}, []int64{1}},
		{[]string{"b", "2"}, nil},
		{[]string{"zz", "1"}, nil},
	} {
		got, err := s.Lookup(tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Lookup(%v) = %v, want %v", tc.vals, got, tc.want)
		}
		app, err := s.AppendLookup(buf[:0], tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(app) != len(tc.want) {
			t.Errorf("AppendLookup(%v) = %v, want %v", tc.vals, app, tc.want)
		}
		for i := range tc.want {
			if app[i] != tc.want[i] {
				t.Errorf("AppendLookup(%v) = %v, want %v", tc.vals, app, tc.want)
				break
			}
		}
	}
	// Appending after existing content must leave the prefix alone.
	pre := []int64{42}
	out, err := s.AppendLookup(pre, []string{"a", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int64{42, 0, 3, 4}) {
		t.Errorf("AppendLookup with prefix = %v", out)
	}
	if testing.AllocsPerRun(20, func() {
		buf, _ = s.AppendLookup(buf[:0], rows[0])
	}) != 0 {
		t.Error("AppendLookup allocates with a warm buffer")
	}
}

// TestApplyBatchWorkerPanicSurfacesAsError injects a panic into one
// attribute's fan-out slot and asserts ApplyBatch returns the captured
// panic as an error instead of crashing the process.
func TestApplyBatchWorkerPanicSurfacesAsError(t *testing.T) {
	for _, workers := range []int{0, 4} {
		s := NewStore(3)
		SetApplyAttrTestHook(func(a int) {
			if a == 1 {
				panic("index boom")
			}
		})
		err := s.ApplyBatch(nil, []BatchInsert{{ID: 0, Values: []string{"a", "b", "c"}}}, workers)
		SetApplyAttrTestHook(nil)
		var pe *fanout.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *fanout.PanicError", workers, err)
		}
		if pe.Value != "index boom" {
			t.Errorf("workers=%d: Value = %v", workers, pe.Value)
		}
	}
}

// TestNewClustersLifecycle pins the new-cluster list contract: a batch
// records the clusters it grew in first-new-member order under its
// pre-batch horizon, the staged form records the same list, a mismatched
// horizon makes it unavailable, and a later small batch releases the
// relation-sized list a bulk load left behind. (The single-record
// mutators' invalidation is pinned by validate's TestTouchedWalkFallbacks.)
func TestNewClustersLifecycle(t *testing.T) {
	t.Parallel()
	const n = 2000
	bulk := make([]BatchInsert, n)
	for i := range bulk {
		bulk[i] = BatchInsert{ID: int64(i), Values: []string{fmt.Sprint(i), fmt.Sprint(i % 7)}}
	}
	build := func() *Store {
		s := NewStore(2)
		if err := s.ApplyBatch(nil, bulk, 2); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	if cids, ok := s.Index(0).NewClusters(0); !ok || len(cids) != n {
		t.Fatalf("bulk load: %d new clusters ok=%v, want %d", len(cids), ok, n)
	}

	from := s.NextID()
	batch := []BatchInsert{
		{ID: from, Values: []string{"5", "new"}},
		{ID: from + 1, Values: []string{"3", "1"}},
		{ID: from + 2, Values: []string{"5", "2"}},
	}
	want0 := []string{"5", "3"}
	want1 := []string{"new", "1", "2"}
	check := func(label string, s *Store) {
		t.Helper()
		for a, want := range [][]string{want0, want1} {
			ix := s.Index(a)
			cids, ok := ix.NewClusters(from)
			if !ok {
				t.Fatalf("%s: attr %d list unavailable after batch", label, a)
			}
			var got []string
			for _, cid := range cids {
				got = append(got, ix.Cluster(cid).Value)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: attr %d new clusters %v, want %v", label, a, got, want)
			}
			if cap(cids) > newCidsKeepCap {
				t.Errorf("%s: attr %d list capacity %d still pins the bulk load", label, a, cap(cids))
			}
			if _, ok := ix.NewClusters(from - 1); ok {
				t.Errorf("%s: attr %d list served for a foreign horizon", label, a)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if err := s.ApplyBatch([]int64{7, 8}, batch, 2); err != nil {
		t.Fatal(err)
	}
	check("ApplyBatch", s)

	staged := build()
	if err := staged.StageBatch([]int64{7, 8}, batch); err != nil {
		t.Fatal(err)
	}
	for a := 1; a >= 0; a-- {
		staged.RunAttr(a)
	}
	if err := staged.Finish(); err != nil {
		t.Fatal(err)
	}
	check("staged", staged)
}

// TestValueDeltaLifecycle pins the value delta contract: a batch records
// the values it removed and created under its pre-batch generation (a
// value may die and be born again in one batch), the staged form records
// the same delta, a mismatched stamp or a single-record mutation makes it
// unavailable, and a later small batch releases the relation-sized lists a
// bulk load left behind.
func TestValueDeltaLifecycle(t *testing.T) {
	t.Parallel()
	const n = 2000
	bulk := make([]BatchInsert, n)
	for i := range bulk {
		bulk[i] = BatchInsert{ID: int64(i), Values: []string{fmt.Sprint(i), fmt.Sprint(i % 7)}}
	}
	build := func() *Store {
		s := NewStore(2)
		if err := s.ApplyBatch(nil, bulk, 2); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	if born, died, ok := s.Index(0).ValueDelta(0); !ok || len(born) != n || len(died) != 0 {
		t.Fatalf("bulk load: delta %d born %d died ok=%v, want %d born", len(born), len(died), ok, n)
	}

	// Record 7 holds the only "7" of attribute 0: deleting it and inserting
	// "7" again kills and re-creates the value in one batch.
	from := s.NextID()
	batch := []BatchInsert{
		{ID: from, Values: []string{"7", "new"}},
		{ID: from + 1, Values: []string{"fresh", "1"}},
	}
	want := [][2][]string{
		{{"7", "fresh"}, {"7", "8"}},
		{{"new"}, nil},
	}
	check := func(label string, s *Store, gens []uint64) {
		t.Helper()
		for a, w := range want {
			ix := s.Index(a)
			born, died, ok := ix.ValueDelta(gens[a])
			if !ok {
				t.Fatalf("%s: attr %d delta unavailable after batch", label, a)
			}
			if !slices.Equal(born, w[0]) || !slices.Equal(died, w[1]) {
				t.Errorf("%s: attr %d delta born=%v died=%v, want born=%v died=%v", label, a, born, died, w[0], w[1])
			}
			if cap(born) > newCidsKeepCap || cap(died) > newCidsKeepCap {
				t.Errorf("%s: attr %d delta capacity %d/%d still pins the bulk load", label, a, cap(born), cap(died))
			}
			if _, _, ok := ix.ValueDelta(gens[a] - 1); ok {
				t.Errorf("%s: attr %d delta served for a foreign generation", label, a)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	gens := func(s *Store) []uint64 { return []uint64{s.Index(0).Gen(), s.Index(1).Gen()} }
	g := gens(s)
	if err := s.ApplyBatch([]int64{7, 8}, batch, 2); err != nil {
		t.Fatal(err)
	}
	check("ApplyBatch", s, g)

	staged := build()
	g = gens(staged)
	if err := staged.StageBatch([]int64{7, 8}, batch); err != nil {
		t.Fatal(err)
	}
	for a := 1; a >= 0; a-- {
		staged.RunAttr(a)
	}
	if err := staged.Finish(); err != nil {
		t.Fatal(err)
	}
	check("staged", staged, g)

	for name, mutate := range map[string]func(s *Store) error{
		"Insert":    func(s *Store) error { _, err := s.Insert([]string{"x", "y"}); return err },
		"Delete":    func(s *Store) error { return s.Delete(0) },
		"SetNextID": func(s *Store) error { return s.SetNextID(s.NextID() + 1) },
	} {
		s := build()
		if err := mutate(s); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 2; a++ {
			// 0 is the bulk load's stamp, valid until the mutation.
			if _, _, ok := s.Index(a).ValueDelta(0); ok {
				t.Errorf("%s: attr %d delta still served", name, a)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
