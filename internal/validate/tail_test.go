package validate

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/oracle"
	"dynfd/internal/pli"
)

// tailCoverage records which new-tail shapes a test exercised.
type tailCoverage struct {
	tailLen map[int]bool // tail lengths seen, 1..maxTail+1 (longer folded in)
	allNew  bool         // a cluster whose every member is new
	width   [3]bool      // rest widths 0, 1 and >= 2
	broken  [2]bool      // a cluster the batch broke: FD, unique
}

func (c *tailCoverage) note(size, tail, k int) {
	c.tailLen[min(tail, maxTail+1)] = true
	c.allNew = c.allNew || tail == size
	c.width[min(k, 2)] = true
}

// tailRow returns a row of the new-tail test schema. Attribute 0 is the
// pivot of most candidates (3 bulk values); 3 = f(0) and 4 = f(0, 1) give
// FDs of rest width 0, 1 and >= 2; 5 and 6 split the record id so {5, 6}
// is unique. With probability noise the dependent and key columns take
// random values, so a batch can break FDs and uniques.
func tailRow(r *rand.Rand, id int64, a0 int, noise float64) []string {
	a1, a2 := r.Intn(2), r.Intn(2)
	a3, a4, a5, a6 := a0%2, a0*2+a1, int(id/4), int(id%4)
	if r.Float64() < noise {
		a3, a4 = r.Intn(3), r.Intn(8)
	}
	if r.Float64() < noise {
		a5, a6 = r.Intn(int(id/4)+1), r.Intn(4)
	}
	return []string{fmt.Sprint(a0), fmt.Sprint(a1), fmt.Sprint(a2), fmt.Sprint(a3),
		fmt.Sprint(a4), fmt.Sprint(a5), fmt.Sprint(a6)}
}

// tailStore bulk-loads 10-40 noise-free rows and applies one batch of
// inserts (plus a few deletes) through ApplyBatch or the staged form. The
// batch's pivot values follow mode: 0 puts every insert into pivot cluster
// 0 (a tail of exactly inserts records), 1 opens one all-new cluster, 2
// spreads them over old and new clusters. It returns the store and the
// pre-batch horizon.
func tailStore(t *testing.T, r *rand.Rand, inserts, mode int, staged bool) (*pli.Store, int64) {
	t.Helper()
	s := pli.NewStore(7)
	bulk := make([]pli.BatchInsert, 10+r.Intn(31))
	for i := range bulk {
		bulk[i] = pli.BatchInsert{ID: int64(i), Values: tailRow(r, int64(i), r.Intn(3), 0)}
	}
	if err := s.ApplyBatch(nil, bulk, 1); err != nil {
		t.Fatal(err)
	}
	ids, _ := storeRows(t, s)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	from := s.NextID()
	ins := make([]pli.BatchInsert, inserts)
	for i := range ins {
		a0 := [3]int{0, 3, r.Intn(4)}[mode]
		ins[i] = pli.BatchInsert{ID: from + int64(i), Values: tailRow(r, from+int64(i), a0, 0.15)}
	}
	applyBatch(t, r, s, ids[:r.Intn(len(ids)/8+1)], ins, staged)
	return s, from
}

// oldRows returns the values of s's live records with id < from: the
// relation a pruned validation with bound from assumes the candidate held
// on.
func oldRows(t *testing.T, s *pli.Store, from int64) [][]string {
	t.Helper()
	ids, rows := storeRows(t, s)
	return rows[:tailFrom(ids, from)]
}

// TestTailKernelMatchesTable checks the new-tail kernels against the table
// kernels over randomized batch histories (ApplyBatch and staged). For
// every FD and unique candidate that holds on the batch's surviving old
// records (the pruning precondition), each pivot
// cluster the pruned validation visits must get exactly the same verdict
// and witness from fdTail / uniqueTail as from the table kernels
// (fdCheckWholeCluster, fdCheckSingle, fdCheckTuple through fdTable's
// rest-width switch, and uniqueCheckCluster), and
// Scratch.FD / Scratch.Unique must match the brute-force oracle. Tail
// lengths 1 through maxTail+1, all-new clusters, rest widths 0, 1 and >= 2,
// and clusters that the batch broke must all occur.
func TestTailKernelMatchesTable(t *testing.T) {
	t.Parallel()
	cov := tailCoverage{tailLen: map[int]bool{}}
	sc, table := NewScratch(), NewScratch()
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		for inserts := 1; inserts <= maxTail+1; inserts++ {
			mode, staged := (inserts+int(seed))%3, (seed+int64(inserts))%2 == 0
			s, from := tailStore(t, r, inserts, mode, staged)
			before := oldRows(t, s, from)
			_, after := storeRows(t, s)
			label := fmt.Sprintf("seed %d inserts %d mode %d staged=%v", seed, inserts, mode, staged)
			for mask := 1; mask < 1<<s.NumAttrs(); mask++ {
				lhs := maskSet(mask, s.NumAttrs())
				for rhs := 0; rhs < s.NumAttrs(); rhs++ {
					if !lhs.Contains(rhs) && oracle.Valid(before, lhs, rhs) {
						checkTailFD(t, label, s, sc, table, lhs, rhs, from, &cov)
						if got, _ := sc.FD(s, lhs, rhs, from); got != oracle.Valid(after, lhs, rhs) {
							t.Fatalf("%s: FD(%v->%d) = %v disagrees with the oracle", label, lhs, rhs, got)
						}
					}
				}
				if bruteUnique(before, lhs) {
					checkTailUnique(t, label, s, sc, table, lhs, from, &cov)
					if got, _ := sc.Unique(s, lhs, from); got != bruteUnique(after, lhs) {
						t.Fatalf("%s: Unique(%v) = %v disagrees with brute force", label, lhs, got)
					}
				}
			}
		}
	}
	for n := 1; n <= maxTail+1; n++ {
		if !cov.tailLen[n] {
			t.Errorf("no pivot cluster with a new tail of length %d", n)
		}
	}
	if !cov.allNew {
		t.Error("no all-new pivot cluster")
	}
	if !cov.broken[0] || !cov.broken[1] {
		t.Errorf("no batch broke an FD (%v) or a unique (%v) on a checked cluster", cov.broken[0], cov.broken[1])
	}
	for k, seen := range cov.width {
		if !seen {
			t.Errorf("rest width %d (2 means >= 2) never checked", k)
		}
	}
}

// maskSet returns the attribute set whose members are the set bits of
// mask below n.
func maskSet(mask, n int) attrset.Set {
	var s attrset.Set
	for a := 0; a < n; a++ {
		if mask&(1<<a) != 0 {
			s = s.With(a)
		}
	}
	return s
}

// tailFrom returns the position of the first id >= minNewID.
func tailFrom(ids []int64, minNewID int64) int {
	return sort.Search(len(ids), func(i int) bool { return ids[i] >= minNewID })
}

// checkTailFD compares fdTail with the table kernel on every pivot cluster
// the pruned validation of lhs -> rhs visits.
func checkTailFD(t *testing.T, label string, s *pli.Store, sc, table *Scratch, lhs attrset.Set, rhs int, minNewID int64, cov *tailCoverage) {
	t.Helper()
	pivot := pickPivot(s, lhs)
	k := sc.setRestBySelectivity(s, lhs.Without(pivot))
	table.setRestBySelectivity(s, lhs.Without(pivot))
	forEachPivotCluster(s.Index(pivot), minNewID, func(c *pli.Cluster) bool {
		if c.Size() < 2 {
			return true
		}
		from := tailFrom(c.IDs, minNewID)
		cov.note(c.Size(), c.Size()-from, k)
		gotV, gotW := sc.fdTail(s, c.IDs, from, k, rhs)
		wantV, wantW := table.fdTable(s, c, k, rhs)
		cov.broken[0] = cov.broken[0] || !wantV
		if gotV != wantV || gotW != wantW {
			t.Fatalf("%s: FD(%v->%d) cluster %v tail from %d: new-tail %v %v, table %v %v",
				label, lhs, rhs, c.IDs, from, gotV, gotW, wantV, wantW)
		}
		return true
	})
}

// checkTailUnique compares uniqueTail with uniqueCheckCluster on every
// pivot cluster the pruned validation of cols visits (rest width >= 1;
// width 0 always runs the table kernel).
func checkTailUnique(t *testing.T, label string, s *pli.Store, sc, table *Scratch, cols attrset.Set, minNewID int64, cov *tailCoverage) {
	t.Helper()
	pivot := pickPivot(s, cols)
	k := sc.setRestBySelectivity(s, cols.Without(pivot))
	table.setRestBySelectivity(s, cols.Without(pivot))
	if k == 0 {
		return
	}
	forEachPivotCluster(s.Index(pivot), minNewID, func(c *pli.Cluster) bool {
		if c.Size() < 2 {
			return true
		}
		from := tailFrom(c.IDs, minNewID)
		cov.note(c.Size(), c.Size()-from, k)
		gotU, gotW := sc.uniqueTail(s, c.IDs, from)
		wantU, wantW := table.uniqueCheckCluster(s, c, k)
		cov.broken[1] = cov.broken[1] || !wantU
		if gotU != wantU || gotW != wantW {
			t.Fatalf("%s: Unique(%v) cluster %v tail from %d: new-tail %v %v, table %v %v",
				label, cols, c.IDs, from, gotU, gotW, wantU, wantW)
		}
		return true
	})
}

// TestTailStart pins the dispatch between the new-tail path and the table
// kernels: no pruning and tails longer than maxTail take the table.
func TestTailStart(t *testing.T) {
	t.Parallel()
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(2 * i)
	}
	for _, tc := range []struct {
		minNewID int64
		from     int
		ok       bool
	}{
		{NoPruning, 0, false},
		{ids[39] + 1, 40, true},               // no new record
		{ids[39], 39, true},                   // one new record
		{ids[39] - 1, 39, true},               // bound between ids
		{ids[40-maxTail], 40 - maxTail, true}, // exactly maxTail new
		{ids[40-maxTail-1], 0, false},         // maxTail+1 new
		{0, 0, false},                         // all new, longer than maxTail
	} {
		from, ok := tailStart(ids, tc.minNewID)
		if from != tc.from || ok != tc.ok {
			t.Errorf("tailStart(minNewID=%d) = %d, %v; want %d, %v", tc.minNewID, from, ok, tc.from, tc.ok)
		}
	}
	if from, ok := tailStart(ids[:3], 0); from != 0 || !ok {
		t.Errorf("tailStart on an all-new short cluster = %d, %v; want 0, true", from, ok)
	}
}

// TestRestOrderedBySelectivity pins the rest ordering of Scratch.FD: most
// clusters first, ties by ascending attribute index.
func TestRestOrderedBySelectivity(t *testing.T) {
	t.Parallel()
	// Cluster counts: attr 0: 1, attr 1: 4, attr 2: 2, attr 3: 4.
	s := buildStore(t, [][]string{
		{"a", "1", "x", "p"},
		{"a", "2", "x", "q"},
		{"a", "3", "y", "r"},
		{"a", "4", "y", "s"},
	}, 4)
	sc := NewScratch()
	sc.setRestBySelectivity(s, attrset.Of(0, 1, 2, 3))
	if want := []int{1, 3, 2, 0}; fmt.Sprint(sc.rest) != fmt.Sprint(want) {
		t.Errorf("rest order = %v, want %v", sc.rest, want)
	}
}
