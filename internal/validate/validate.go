// Package validate implements the Pli-based FD validation primitive shared
// by the static HyFD algorithm and the dynamic DynFD engine (paper §3.1,
// §4.2). Given the Pli store, a candidate Lhs → Rhs is checked by using one
// Lhs attribute's Pli as a pivot index into the compressed records, grouping
// each pivot cluster by the remaining Lhs cluster ids, and probing the Rhs
// cluster ids of each group. The check terminates at the first violation
// and reports the violating record pair as a witness.
//
// The grouping runs on an allocation-free kernel over the int32 cluster-id
// tuples (scratch.go): hot callers hold a reusable Scratch (per validation
// worker, see Fan) and hit zero allocations per call; the package-level
// functions below borrow a pooled Scratch for cold call sites.
//
// The dynamic variant adds DynFD's cluster pruning: when only previously
// valid FDs are re-validated after inserts, a violation must involve at
// least one newly inserted record, so pivot clusters whose newest member
// predates the batch can be skipped wholesale. When minNewID is the
// horizon of the store's last batch, the kernels walk the pivot index's
// list of clusters that batch grew (pli.Index.NewClusters), so the work is
// proportional to the batch, not to the relation (DESIGN.md §17).
// Otherwise they scan every pivot cluster and skip the old ones; because
// cluster id slices are sorted and surrogate ids grow monotonically, that
// test is a single comparison against the cluster's last element.
//
// Inside each visited cluster the same argument goes one step further: the
// new records are the cluster's tail, and every violation pairs a tail
// record with some earlier one. The new-tail kernel (scratch.go, DESIGN.md
// §18) compares only the tail records against the rest of the cluster,
// with early exit and no hash table, whenever the tail holds at most
// maxTail records. Under the pruning precondition it returns exactly the
// table kernels' verdict and witness. Outside it, a pruned call may now
// miss a violation between two old records even inside a visited cluster,
// so a caller must not pass a minNewID for a candidate that did not hold
// before the records >= minNewID arrived.
package validate

import (
	"sort"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// Witness is a pair of record ids that violates a candidate FD.
type Witness struct {
	A, B int64
}

// NoPruning disables cluster pruning when passed as minNewID.
const NoPruning int64 = -1

// FD validates the candidate lhs → rhs against the store.
//
// If minNewID >= 0, cluster pruning is applied: only pivot clusters that
// contain a record with id >= minNewID are checked, and within them only
// the pairs involving such a record. This is sound exactly when the
// candidate was valid before the records with ids >= minNewID were
// inserted (paper §4.2); without that precondition the result may miss
// violations among older records. When minNewID is the pre-batch horizon
// of the store's last batch, those clusters are visited through the
// batch's new-cluster list, in the order their first new member arrived.
//
// On failure it returns valid == false and a violating record pair.
//
// This form borrows a pooled Scratch; hot paths should hold their own and
// call Scratch.FD, which performs zero allocations per call when warm.
func FD(s *pli.Store, lhs attrset.Set, rhs int, minNewID int64) (valid bool, w Witness) {
	sc := scratchPool.Get().(*Scratch)
	valid, w = sc.FD(s, lhs, rhs, minNewID)
	scratchPool.Put(sc)
	return valid, w
}

// constantColumn checks the empty-Lhs candidate ∅ → rhs, which holds iff
// the rhs column is constant over all records.
func constantColumn(s *pli.Store, rhs int) (bool, Witness) {
	ix := s.Index(rhs)
	if ix.NumClusters() <= 1 {
		return true, Witness{}
	}
	// Pick one representative from two different clusters as the witness.
	var a, b int64
	n := 0
	ix.ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if n == 0 {
			a = c.IDs[0]
		} else {
			b = c.IDs[0]
		}
		n++
		return n < 2
	})
	return false, Witness{A: a, B: b}
}

// pickPivot returns the lhs attribute with the most clusters. More clusters
// mean smaller clusters, hence cheaper grouping and better cluster pruning;
// this implements the "fixed ordering of attributes by their respective Pli
// sizes" of paper §4.2. Ties break to the lowest attribute index — the
// ascending scan only replaces the best on a strictly larger cluster count
// — so the pivot (and therefore the grouping and the reported witness
// pair) is a pure function of the store, stable across runs
// (TestPickPivotDeterministicTieBreak).
func pickPivot(s *pli.Store, lhs attrset.Set) int {
	best, bestClusters := -1, -1
	for a := lhs.First(); a >= 0; a = lhs.Next(a) {
		if n := s.Index(a).NumClusters(); n > bestClusters {
			best, bestClusters = a, n
		}
	}
	return best
}

// ViolationGroup is one set of records that agree on a candidate's Lhs but
// carry at least two distinct Rhs values — the concrete evidence an FD
// violation inspection reports.
type ViolationGroup struct {
	// IDs are the records of the group, ascending.
	IDs []int64
	// RhsValues counts the distinct Rhs cluster ids in the group.
	RhsValues int
}

// Violations collects up to max groups of records violating lhs → rhs
// (max <= 0 means all). It also returns the g3 error: the minimum fraction
// of records that must be removed for the FD to hold (Huhtala et al. 1999),
// which is the standard approximate-FD measure. A valid FD yields no
// groups and error 0.
//
// Group IDs are emitted in ascending record-id order directly — clusters
// keep their ids sorted (the pli.Cluster invariant), so no per-group sort
// is needed; only the cross-group ordering in trimGroups sorts.
func Violations(s *pli.Store, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	sc := scratchPool.Get().(*Scratch)
	groups, g3 = sc.Violations(s, lhs, rhs, max)
	scratchPool.Put(sc)
	return groups, g3
}

// trimGroups orders groups deterministically (by first record id) and
// applies the caller's cap. Groups originate from distinct Lhs projections,
// so first ids are unique and the order is total.
func trimGroups(groups []ViolationGroup, max int) []ViolationGroup {
	if len(groups) > 1 {
		sort.Slice(groups, func(i, j int) bool { return groups[i].IDs[0] < groups[j].IDs[0] })
	}
	if max > 0 && len(groups) > max {
		groups = groups[:max]
	}
	return groups
}

// Unique checks whether the column combination cols is unique: no two
// records agree on all of cols. Like FD it supports cluster pruning via
// minNewID (sound when cols was unique before the records with ids >=
// minNewID arrived; otherwise collisions among older records may be
// missed) and returns a colliding record pair on failure.
//
// This form borrows a pooled Scratch; hot paths should hold their own and
// call Scratch.Unique.
func Unique(s *pli.Store, cols attrset.Set, minNewID int64) (unique bool, w Witness) {
	sc := scratchPool.Get().(*Scratch)
	unique, w = sc.Unique(s, cols, minNewID)
	scratchPool.Put(sc)
	return unique, w
}

// AgreeSet returns the set of attributes on which the two compressed
// records hold equal values. Records encode equal values as equal cluster
// ids, so this is a plain element-wise comparison.
func AgreeSet(a, b pli.Record) attrset.Set {
	var s attrset.Set
	for i := range a {
		if a[i] == b[i] {
			s = s.With(i)
		}
	}
	return s
}
