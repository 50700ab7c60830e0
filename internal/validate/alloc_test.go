package validate

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// TestFDZeroAllocs pins the zero-allocation contract of the validation
// kernel (DESIGN.md §9): with a warm Scratch, Scratch.FD performs no
// allocations per call, across all three rest-width kernels and the
// unpruned, pruned-scan, touched-cluster-walk and new-tail paths.
func TestFDZeroAllocs(t *testing.T) {
	s := randomStore(t, 3, 500, 6, 4)
	walked, from := batchedRandomStore(t, 3, 500, 6, 4)
	sc := NewScratch()
	tailed, tailFrom := tailStore(t, rand.New(rand.NewSource(3)), 4, 0, false)
	requireTailPath(t, tailed, 0, tailFrom)
	for _, lhs := range []attrset.Set{attrset.Of(0), attrset.Of(0, 1), attrset.Of(0, 1, 2)} {
		sc.FD(tailed, lhs, 3, tailFrom)
		if allocs := testing.AllocsPerRun(50, func() { sc.FD(tailed, lhs, 3, tailFrom) }); allocs != 0 {
			t.Errorf("new tail over %v: %v allocs/op, want 0", lhs, allocs)
		}
	}
	for _, lhs := range []attrset.Set{attrset.Of(0), attrset.Of(0, 1), attrset.Of(0, 1, 2)} {
		sc.FD(walked, lhs, 5, from)
		if allocs := testing.AllocsPerRun(50, func() { sc.FD(walked, lhs, 5, from) }); allocs != 0 {
			t.Errorf("walk over %v: %v allocs/op, want 0", lhs, allocs)
		}
	}
	cases := []struct {
		name string
		lhs  attrset.Set
		rhs  int
	}{
		{"rest=0", attrset.Of(0), 1},
		{"rest=1", attrset.Of(0, 1), 2},
		{"rest=2", attrset.Of(0, 1, 2), 3},
		{"rest=4", attrset.Of(0, 1, 2, 3, 4), 5},
	}
	for _, tc := range cases {
		for _, minNewID := range []int64{NoPruning, s.NextID() - 1} {
			sc.FD(s, tc.lhs, tc.rhs, minNewID) // warm up the buffers
			allocs := testing.AllocsPerRun(50, func() {
				sc.FD(s, tc.lhs, tc.rhs, minNewID)
			})
			if allocs != 0 {
				t.Errorf("%s minNewID=%d: %v allocs/op, want 0", tc.name, minNewID, allocs)
			}
		}
	}
}

// TestUniqueZeroAllocs pins the same contract for Scratch.Unique, on the
// full scan, the touched-cluster walk and the new-tail path.
func TestUniqueZeroAllocs(t *testing.T) {
	s := randomStore(t, 5, 500, 6, 4)
	walked, from := batchedRandomStore(t, 5, 500, 6, 4)
	sc := NewScratch()
	tailed, tailFrom := tailStore(t, rand.New(rand.NewSource(5)), 4, 2, false)
	requireTailPath(t, tailed, 5, tailFrom)
	for _, cols := range []attrset.Set{attrset.Of(5, 6), attrset.Of(1, 5, 6)} {
		sc.Unique(tailed, cols, tailFrom)
		if allocs := testing.AllocsPerRun(50, func() { sc.Unique(tailed, cols, tailFrom) }); allocs != 0 {
			t.Errorf("new tail Unique(%v): %v allocs/op, want 0", cols, allocs)
		}
	}
	for _, cols := range []attrset.Set{attrset.Of(0), attrset.Of(0, 1), attrset.Of(0, 1, 2)} {
		for _, c := range []struct {
			s        *pli.Store
			minNewID int64
		}{{s, NoPruning}, {walked, from}} {
			sc.Unique(c.s, cols, c.minNewID)
			allocs := testing.AllocsPerRun(50, func() {
				sc.Unique(c.s, cols, c.minNewID)
			})
			if allocs != 0 {
				t.Errorf("Unique(%v) minNewID=%d: %v allocs/op, want 0", cols, c.minNewID, allocs)
			}
		}
	}
}

// requireTailPath fails unless every pivot cluster of attribute a that the
// batch with horizon from touched takes the new-tail path.
func requireTailPath(t *testing.T, s *pli.Store, a int, from int64) {
	t.Helper()
	ix := s.Index(a)
	cids, ok := ix.NewClusters(from)
	if !ok || len(cids) == 0 {
		t.Fatalf("attr %d: no touched clusters for horizon %d", a, from)
	}
	for _, cid := range cids {
		if _, ok := tailStart(ix.Cluster(cid).IDs, from); !ok {
			t.Fatalf("attr %d cluster %d: new tail longer than %d", a, cid, maxTail)
		}
	}
}

// TestViolationsAllocs pins Scratch.Violations' documented allocation
// budget: a valid FD inspects with zero allocations, and a violating one
// allocates only the returned groups — one slice-header append plus one
// IDs slice per group (two allocations for a single-group violation; the
// deterministic cross-group sort only runs for two or more groups).
func TestViolationsAllocs(t *testing.T) {
	valid := buildStore(t, [][]string{
		{"k1", "a"}, {"k1", "a"}, {"k2", "b"}, {"k2", "b"}, {"k3", "a"},
	}, 2)
	sc := NewScratch()
	sc.Violations(valid, attrset.Of(0), 1, 0)
	allocs := testing.AllocsPerRun(50, func() {
		if g, _ := sc.Violations(valid, attrset.Of(0), 1, 0); len(g) != 0 {
			t.Fatal("expected a valid FD")
		}
	})
	if allocs != 0 {
		t.Errorf("valid FD: %v allocs/op, want 0", allocs)
	}

	violating := buildStore(t, [][]string{
		{"k1", "a"}, {"k1", "b"}, {"k2", "c"}, {"k2", "c"},
	}, 2)
	sc.Violations(violating, attrset.Of(0), 1, 0)
	allocs = testing.AllocsPerRun(50, func() {
		if g, _ := sc.Violations(violating, attrset.Of(0), 1, 0); len(g) != 1 {
			t.Fatal("expected one violation group")
		}
	})
	if allocs > 2 {
		t.Errorf("single violation group: %v allocs/op, want <= 2", allocs)
	}
}

// TestPickPivotDeterministicTieBreak asserts the pivot tie-break: among
// Lhs attributes with equal cluster counts, the lowest attribute index
// wins, making pivot choice — and therefore the grouping and witness
// pairs — a pure function of the store.
func TestPickPivotDeterministicTieBreak(t *testing.T) {
	t.Parallel()
	// attrs 0 and 1: two clusters each; attr 2: three clusters.
	s := buildStore(t, [][]string{
		{"a", "x", "1"},
		{"a", "x", "2"},
		{"b", "y", "3"},
		{"b", "y", "1"},
	}, 3)
	if got := pickPivot(s, attrset.Of(0, 1)); got != 0 {
		t.Errorf("pickPivot({0,1}) = %d, want 0 (tie breaks to lowest index)", got)
	}
	if got := pickPivot(s, attrset.Of(1, 2)); got != 2 {
		t.Errorf("pickPivot({1,2}) = %d, want 2 (more clusters wins)", got)
	}
	if got := pickPivot(s, attrset.Of(0, 1, 2)); got != 2 {
		t.Errorf("pickPivot({0,1,2}) = %d, want 2", got)
	}
	for i := 0; i < 100; i++ {
		if got := pickPivot(s, attrset.Of(0, 1)); got != 0 {
			t.Fatalf("pickPivot unstable on run %d: got %d", i, got)
		}
	}
}

// TestViolationsGroupIDsAscending asserts the kernel emits each group's
// IDs in ascending record-id order without sorting, which the pli.Cluster
// invariant (strictly ascending cluster ids) guarantees.
func TestViolationsGroupIDsAscending(t *testing.T) {
	t.Parallel()
	s := randomStore(t, 11, 300, 4, 3)
	for rhs := 0; rhs < 4; rhs++ {
		for a := 0; a < 4; a++ {
			if a == rhs {
				continue
			}
			groups, _ := Violations(s, attrset.Of(a), rhs, 0)
			for _, g := range groups {
				for i := 1; i < len(g.IDs); i++ {
					if g.IDs[i-1] >= g.IDs[i] {
						t.Fatalf("group IDs not strictly ascending: %v", g.IDs)
					}
				}
			}
		}
	}
}

// TestScratchReuseMatchesFresh guards against stale kernel state: a single
// Scratch reused across many different candidates must report exactly what
// a fresh Scratch reports for each.
func TestScratchReuseMatchesFresh(t *testing.T) {
	t.Parallel()
	s := randomStore(t, 17, 250, 5, 3)
	warm := NewScratch()
	for _, r := range allRequests(5) {
		gotValid, gotW := warm.FD(s, r.Lhs, r.Rhs, r.MinNewID)
		wantValid, _ := NewScratch().FD(s, r.Lhs, r.Rhs, r.MinNewID)
		if gotValid != wantValid {
			t.Fatalf("FD(%v -> %d): reused scratch = %v, fresh = %v",
				r.Lhs.Slice(), r.Rhs, gotValid, wantValid)
		}
		if !gotValid {
			checkWitness(t, s, r, gotW)
		}
	}
}

// TestKernelMatchesLegacyGrouping cross-checks the open-addressing kernel
// against a simple map-based reference grouping (the pre-kernel
// implementation) over many random stores and candidates.
func TestKernelMatchesLegacyGrouping(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		s := randomStore(t, 100+seed, 120, 5, 2+int(seed%3))
		sc := NewScratch()
		for _, r := range allRequests(5) {
			got, w := sc.FD(s, r.Lhs, r.Rhs, NoPruning)
			want := legacyFDValid(s, r.Lhs, r.Rhs)
			if got != want {
				t.Fatalf("seed %d: FD(%v -> %d) = %v, legacy = %v",
					seed, r.Lhs.Slice(), r.Rhs, got, want)
			}
			if !got {
				checkWitness(t, s, Request{Lhs: r.Lhs, Rhs: r.Rhs}, w)
			}
		}
	}
}

// legacyFDValid is the original map-and-byte-key grouping, kept as a test
// oracle for the kernel.
func legacyFDValid(s *pli.Store, lhs attrset.Set, rhs int) bool {
	if s.NumRecords() <= 1 {
		return true
	}
	if lhs.IsEmpty() {
		ok, _ := constantColumn(s, rhs)
		return ok
	}
	pivot := pickPivot(s, lhs)
	restAttrs := lhs.Without(pivot).Slice()
	valid := true
	s.Index(pivot).ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if c.Size() < 2 {
			return true
		}
		groups := make(map[string]int32)
		for _, id := range c.IDs {
			rec, _ := s.Record(id)
			key := ""
			for _, a := range restAttrs {
				key += fmt.Sprintf("%d,", rec[a])
			}
			if prev, ok := groups[key]; ok {
				if prev != rec[rhs] {
					valid = false
					return false
				}
				continue
			}
			groups[key] = rec[rhs]
		}
		return true
	})
	return valid
}

// randomStore builds a store with n records over attrs attributes drawn
// from a small value domain, so both valid and invalid candidates occur.
func randomStore(t testing.TB, seed int64, n, attrs, domain int) *pli.Store {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := pli.NewStore(attrs)
	for i := 0; i < n; i++ {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domain))
		}
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// allRequests enumerates every non-trivial candidate (lhs → rhs) with
// |lhs| <= 2 — enough to cover empty, singleton, and multi-attribute
// pivot/rest paths in FD.
func allRequests(attrs int) []Request {
	var reqs []Request
	for rhs := 0; rhs < attrs; rhs++ {
		reqs = append(reqs, Request{Lhs: attrset.Set{}, Rhs: rhs, MinNewID: NoPruning})
		for a := 0; a < attrs; a++ {
			if a == rhs {
				continue
			}
			reqs = append(reqs, Request{Lhs: attrset.Of(a), Rhs: rhs, MinNewID: NoPruning})
			for b := a + 1; b < attrs; b++ {
				if b == rhs {
					continue
				}
				reqs = append(reqs, Request{Lhs: attrset.Of(a, b), Rhs: rhs, MinNewID: NoPruning})
			}
		}
	}
	return reqs
}

// checkWitness verifies that w is a live record pair violating the request.
func checkWitness(t *testing.T, s *pli.Store, r Request, w Witness) {
	t.Helper()
	ra, okA := s.Record(w.A)
	rb, okB := s.Record(w.B)
	if !okA || !okB {
		t.Errorf("witness (%d,%d) for %v -> %d has dead records", w.A, w.B, r.Lhs.Slice(), r.Rhs)
		return
	}
	if !r.Lhs.IsSubsetOf(AgreeSet(ra, rb)) || ra[r.Rhs] == rb[r.Rhs] {
		t.Errorf("witness (%d,%d) does not violate %v -> %d", w.A, w.B, r.Lhs.Slice(), r.Rhs)
	}
}
