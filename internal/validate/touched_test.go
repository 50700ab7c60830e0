package validate

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/oracle"
	"dynfd/internal/pli"
)

// storeRows returns the live records' values in id order plus their ids.
func storeRows(t *testing.T, s *pli.Store) (ids []int64, rows [][]string) {
	t.Helper()
	s.ForEachRecord(func(id int64, _ pli.Record) bool {
		vals, ok := s.Values(id)
		if !ok {
			t.Fatalf("record %d unreadable", id)
		}
		ids = append(ids, id)
		rows = append(rows, vals)
		return true
	})
	return ids, rows
}

// insertTwin rebuilds s record by record through InsertWithID: same ids,
// same values, but no new-cluster lists, so every pruned validation on the
// twin takes the full-scan fallback.
func insertTwin(t *testing.T, s *pli.Store) *pli.Store {
	t.Helper()
	twin := pli.NewStore(s.NumAttrs())
	ids, rows := storeRows(t, s)
	for i, id := range ids {
		if err := twin.InsertWithID(id, rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.SetNextID(s.NextID()); err != nil {
		t.Fatal(err)
	}
	return twin
}

// batchedRandomStore bulk-loads n random rows and appends one batch of
// 20 more through ApplyBatch, returning the store and the batch's
// pre-batch horizon, for which the touched-cluster walk is available.
func batchedRandomStore(t *testing.T, seed int64, n, attrs, domain int) (*pli.Store, int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var ins []pli.BatchInsert
	for i := 0; i < n+20; i++ {
		ins = append(ins, pli.BatchInsert{ID: int64(i), Values: randomRow(r, attrs, domain)})
	}
	s := pli.NewStore(attrs)
	if err := s.ApplyBatch(nil, ins[:n], 0); err != nil {
		t.Fatal(err)
	}
	from := s.NextID()
	if err := s.ApplyBatch(nil, ins[n:], 0); err != nil {
		t.Fatal(err)
	}
	return s, from
}

func randomRow(r *rand.Rand, attrs, domain int) []string {
	row := make([]string, attrs)
	for a := range row {
		row[a] = fmt.Sprint(r.Intn(domain))
	}
	return row
}

// applyRandomBatch applies a random batch of deletes and inserts to s,
// through ApplyBatch or through the staged StageBatch+RunAttr+Finish form
// (attributes maintained in a shuffled order), and returns the pre-batch
// id horizon.
func applyRandomBatch(t *testing.T, r *rand.Rand, s *pli.Store, domain int, staged bool) int64 {
	t.Helper()
	ids, _ := storeRows(t, s)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	deletes := ids[:r.Intn(len(ids)/4+1)]
	from := s.NextID()
	var inserts []pli.BatchInsert
	for i, n := 0, 1+r.Intn(8); i < n; i++ {
		inserts = append(inserts, pli.BatchInsert{ID: from + int64(i), Values: randomRow(r, s.NumAttrs(), domain)})
	}
	applyBatch(t, r, s, deletes, inserts, staged)
	return from
}

// applyBatch applies deletes and inserts to s through ApplyBatch (with a
// random worker count) or through the staged StageBatch+RunAttr+Finish
// form, attributes maintained in a shuffled order.
func applyBatch(t *testing.T, r *rand.Rand, s *pli.Store, deletes []int64, inserts []pli.BatchInsert, staged bool) {
	t.Helper()
	if !staged {
		if err := s.ApplyBatch(deletes, inserts, r.Intn(3)); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := s.StageBatch(deletes, inserts); err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Perm(s.NumAttrs()) {
		s.RunAttr(a)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestTouchedWalkMatchesFullScan checks the touched-cluster walk of
// Scratch.FD and Scratch.Unique over randomized batch histories built
// through ApplyBatch and through the staged maintenance form. After every
// batch the walk is available for the pre-batch horizon, and with that
// minNewID both kernels must agree with the full-scan fallback (run on an
// InsertWithID twin of the store) for every candidate; for candidates that
// held before the batch — where cluster pruning is sound — they must also
// agree with the brute-force oracle. Witnesses must really violate.
func TestTouchedWalkMatchesFullScan(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		attrs := 2 + r.Intn(4)
		domain := 2 + r.Intn(6)
		staged := seed%2 == 0
		s := pli.NewStore(attrs)
		bulk := make([]pli.BatchInsert, 5+r.Intn(30))
		for i := range bulk {
			bulk[i] = pli.BatchInsert{ID: int64(i), Values: randomRow(r, attrs, domain)}
		}
		if err := s.ApplyBatch(nil, bulk, 1); err != nil {
			t.Fatal(err)
		}
		sc, twinSc := NewScratch(), NewScratch()
		reqs := allRequests(attrs)
		for round := 0; round < 6; round++ {
			_, before := storeRows(t, s)
			from := applyRandomBatch(t, r, s, domain, staged)
			label := fmt.Sprintf("seed %d staged=%v round %d", seed, staged, round)
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for a := 0; a < attrs; a++ {
				if _, ok := s.Index(a).NewClusters(from); !ok {
					t.Fatalf("%s: attr %d: touched-cluster walk unavailable after the batch", label, a)
				}
			}
			twin := insertTwin(t, s)
			for a := 0; a < attrs; a++ {
				if _, ok := twin.Index(a).NewClusters(from); ok {
					t.Fatalf("%s: attr %d: InsertWithID twin serves a new-cluster list", label, a)
				}
			}
			_, after := storeRows(t, s)
			for _, rq := range reqs {
				got, w := sc.FD(s, rq.Lhs, rq.Rhs, from)
				if want, _ := twinSc.FD(twin, rq.Lhs, rq.Rhs, from); got != want {
					t.Fatalf("%s: FD(%v->%d) walk=%v full scan=%v", label, rq.Lhs, rq.Rhs, got, want)
				}
				if !got {
					checkWitness(t, s, rq, w)
				}
				if oracle.Valid(before, rq.Lhs, rq.Rhs) && got != oracle.Valid(after, rq.Lhs, rq.Rhs) {
					t.Fatalf("%s: FD(%v->%d) walk=%v disagrees with the oracle", label, rq.Lhs, rq.Rhs, got)
				}
				cols := rq.Lhs.With(rq.Rhs)
				uniq, uw := sc.Unique(s, cols, from)
				if want, _ := twinSc.Unique(twin, cols, from); uniq != want {
					t.Fatalf("%s: Unique(%v) walk=%v full scan=%v", label, cols, uniq, want)
				}
				if !uniq {
					checkCollision(t, s, cols, uw)
				}
				if bruteUnique(before, cols) && uniq != bruteUnique(after, cols) {
					t.Fatalf("%s: Unique(%v) walk=%v disagrees with brute force", label, cols, uniq)
				}
			}
		}
	}
}

// checkCollision asserts that w is a pair of distinct live records that
// agree on every column of cols.
func checkCollision(t *testing.T, s *pli.Store, cols attrset.Set, w Witness) {
	t.Helper()
	ra, okA := s.Record(w.A)
	rb, okB := s.Record(w.B)
	if !okA || !okB || w.A == w.B || !cols.IsSubsetOf(AgreeSet(ra, rb)) {
		t.Fatalf("Unique(%v): bad collision witness %v", cols, w)
	}
}

// TestTouchedWalkFallbacks pins when the walk must NOT be taken: after any
// single-record mutation (the UCC engine's Insert path, snapshot restore's
// InsertWithID + SetNextID, a Delete) and for any minNewID other than the
// batch's horizon, including NoPruning. The fallback must still give the
// right answer: a violation introduced by a single Insert is found.
func TestTouchedWalkFallbacks(t *testing.T) {
	t.Parallel()
	mutators := []struct {
		name string
		op   func(s *pli.Store) error
	}{
		{"Insert", func(s *pli.Store) error { _, err := s.Insert([]string{"k0", "clash"}); return err }},
		{"InsertWithID", func(s *pli.Store) error { return s.InsertWithID(s.NextID()+2, []string{"k0", "clash"}) }},
		{"Delete", func(s *pli.Store) error { return s.Delete(0) }},
		{"SetNextID", func(s *pli.Store) error { return s.SetNextID(s.NextID() + 5) }},
	}
	for _, m := range mutators {
		s := pli.NewStore(2)
		var ins []pli.BatchInsert
		for i := 0; i < 6; i++ {
			ins = append(ins, pli.BatchInsert{ID: int64(i), Values: []string{fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i%3)}})
		}
		if err := s.ApplyBatch(nil, ins, 0); err != nil {
			t.Fatal(err)
		}
		from := s.NextID()
		if err := s.ApplyBatch(nil, []pli.BatchInsert{{ID: from, Values: []string{"k1", "v1"}}}, 0); err != nil {
			t.Fatal(err)
		}
		for _, other := range []int64{NoPruning, 0, from - 1, from + 1} {
			if _, ok := s.Index(0).NewClusters(other); ok {
				t.Errorf("walk served for minNewID %d, batch horizon %d", other, from)
			}
		}
		if _, ok := s.Index(0).NewClusters(from); !ok {
			t.Fatal("precondition: walk unavailable after the batch")
		}
		next := s.NextID()
		if err := m.op(s); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for a := 0; a < 2; a++ {
			for _, h := range []int64{from, next} {
				if _, ok := s.Index(a).NewClusters(h); ok {
					t.Errorf("%s: attr %d walk still served for horizon %d", m.name, a, h)
				}
			}
		}
		valid, _ := FD(s, attrset.Of(0), 1, next)
		wantValid := m.name != "Insert" && m.name != "InsertWithID"
		if valid != wantValid {
			t.Errorf("%s: pruned FD(0->1) = %v after the mutation, want %v", m.name, valid, wantValid)
		}
	}
}
