// Allocation-free validation kernel (DESIGN.md §9).
//
// The original validation path grouped each pivot cluster through a
// map[string]... keyed by a byte-encoding of the rest-Lhs cluster ids,
// which allocated a key string per record and a fresh map per call. The
// kernel below replaces that with an open-addressing hash table probed
// directly over the int32 cluster-id tuples of the compressed records: no
// key encoding, no string allocation, no map. All working memory lives in
// a Scratch that is reused across calls, so a warm Scratch validates with
// zero allocations per call (pinned by TestFDZeroAllocs).
//
// Three kernels share the table machinery, specialized by rest width
// (rest = Lhs minus the pivot attribute):
//
//   - |rest| == 0: the pivot cluster is a single group — a linear scan
//     compares Rhs cluster ids directly, no table at all.
//   - |rest| == 1: groups are keyed by one cluster id — the table stores
//     single int32 keys and the probe is one comparison.
//   - |rest| >= 2: groups are keyed by the full rest tuple, stored
//     flattened in one backing slice.
//
// FD, Unique, and Violations all run on these kernels; Violations adds a
// second counting pass over the same table to derive per-group Rhs
// statistics (distinct values and plurality count) without its former
// map[int32]int per group.
//
// A fourth kernel, the new-tail path (DESIGN.md §18), serves the pruned
// FD and Unique calls. Cluster ids are ascending, so the records with id
// >= minNewID form the tail of each pivot cluster; when that tail holds at
// most maxTail records, each tail record is compared directly, with early
// exit, against the records before it, and no table is built. Under the
// pruning precondition (the candidate held before the records >= minNewID
// arrived) it returns exactly the table kernels' verdict and witness.
// Outside that precondition it may miss a violation between two old
// records, which the table kernels would have reported.
package validate

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

// Scratch holds the reusable working memory of the validation kernels.
// A Scratch may be used by one goroutine at a time; see Scratches for the
// per-worker ownership used by Fan. The zero value is ready to use and
// warms up (grows its buffers to the workload's cluster sizes) over the
// first few calls.
type Scratch struct {
	// Rest attributes of the current candidate: most clusters first for
	// FD and Unique (setRestBySelectivity), ascending for Violations.
	rest []int

	// Open-addressing table, shared by the grouping and counting passes.
	// slots[i] holds a group/pair index + 1, 0 means empty. The table is
	// sized per cluster to the next power of two >= 2*cluster size and
	// cleared up to that size only, so small clusters stay cheap even
	// after a huge cluster grew the backing array.
	slots []int32

	// Per-group storage, appended in first-occurrence order.
	keys []int32 // flattened rest tuples, |rest| entries per group
	grhs []int32 // Rhs cluster id of the group's first record (FD)
	rep  []int64 // the group's first record id (witness partner)

	// Violations state (see violationsCluster).
	gof   []int32 // per cluster position: group index
	rcid  []int32 // per cluster position: Rhs cluster id
	gsize []int32 // per group: member count
	gdist []int32 // per group: distinct Rhs values
	gmax  []int32 // per group: plurality Rhs count
	gout  []int32 // per group: output group index, -1 if not violating
	pairG []int32 // per (group, rhs) pair: group index
	pairR []int32 // per (group, rhs) pair: rhs cluster id
	pairN []int32 // per (group, rhs) pair: record count
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the package-level FD/Unique/Violations wrappers so
// cold call sites do not pay a fresh Scratch per call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// setRest loads the rest attributes into the scratch and returns their
// count. Iteration is an explicit loop (not attrset.ForEach) so the hot
// path carries no closure.
func (sc *Scratch) setRest(rest attrset.Set) int {
	sc.rest = sc.rest[:0]
	for a := rest.First(); a >= 0; a = rest.Next(a) {
		sc.rest = append(sc.rest, a)
	}
	return len(sc.rest)
}

// setRestBySelectivity is setRest with the rest attributes ordered by
// descending cluster count (ties by ascending index): two records then
// usually differ on the first attribute compared, so the new-tail path's
// early-exit compare stops after one lookup. Grouping depends only on
// tuple equality, not on attribute order, so no kernel's result changes.
func (sc *Scratch) setRestBySelectivity(s *pli.Store, rest attrset.Set) int {
	k := sc.setRest(rest)
	for i := 1; i < k; i++ {
		a, n := sc.rest[i], s.Index(sc.rest[i]).NumClusters()
		j := i
		for ; j > 0 && s.Index(sc.rest[j-1]).NumClusters() < n; j-- {
			sc.rest[j] = sc.rest[j-1]
		}
		sc.rest[j] = a
	}
	return k
}

// tableSize returns the open-addressing table size for a cluster of m
// records: the next power of two >= 2*m (load factor <= 0.5), at least 4.
func tableSize(m int) int {
	n := 1 << bits.Len(uint(2*m-1))
	if n < 4 {
		n = 4
	}
	return n
}

// table returns the cleared probe table of the given power-of-two size,
// growing the backing array if needed.
func (sc *Scratch) table(n int) []int32 {
	if cap(sc.slots) < n {
		sc.slots = make([]int32, n)
	}
	t := sc.slots[:n]
	clear(t)
	return t
}

// grow32 returns buf resized to n entries, reusing its backing array when
// possible. Contents are unspecified.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

const hashMul = 0x9E3779B185EBCA87 // 2^64 / φ, the usual Fibonacci constant

// hash1 hashes a single cluster id.
func hash1(cid int32) uint32 {
	return uint32((uint64(uint32(cid)) * hashMul) >> 32)
}

// hash2 hashes a (group index, cluster id) pair for the counting pass.
func hash2(g, cid int32) uint32 {
	h := (uint64(uint32(g))<<32 | uint64(uint32(cid))) * hashMul
	return uint32(h>>32) ^ uint32(h)
}

// hashRest hashes the rest-tuple of a compressed record.
func (sc *Scratch) hashRest(rec pli.Record) uint32 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, a := range sc.rest {
		h = (h ^ uint64(uint32(rec[a]))) * hashMul
	}
	return uint32(h>>32) ^ uint32(h)
}

// keyEqual reports whether group gi's stored rest tuple matches rec.
func (sc *Scratch) keyEqual(gi int32, rec pli.Record) bool {
	key := sc.keys[int(gi)*len(sc.rest):]
	for j, a := range sc.rest {
		if key[j] != rec[a] {
			return false
		}
	}
	return true
}

// FD validates lhs → rhs against the store using the scratch's buffers;
// it is the allocation-free form of the package-level FD function and
// shares its semantics (including cluster pruning via minNewID).
func (sc *Scratch) FD(s *pli.Store, lhs attrset.Set, rhs int, minNewID int64) (valid bool, w Witness) {
	if s.NumRecords() <= 1 {
		return true, Witness{}
	}
	if lhs.IsEmpty() {
		return constantColumn(s, rhs)
	}
	pivot := pickPivot(s, lhs)
	k := sc.setRestBySelectivity(s, lhs.Without(pivot))
	valid = true
	forEachPivotCluster(s.Index(pivot), minNewID, func(c *pli.Cluster) bool {
		valid, w = sc.fdCluster(s, c, k, rhs, minNewID)
		return valid
	})
	return valid, w
}

// forEachPivotCluster calls fn, until it returns false, for every pivot
// cluster a validation with bound minNewID must check: all clusters for
// NoPruning, otherwise only those holding a record with id >= minNewID
// (cluster pruning). When minNewID is the horizon of the store's last
// batch, those are exactly the clusters the batch grew, walked in
// first-new-member order; any other bound scans every cluster and skips
// the old ones.
func forEachPivotCluster(ix *pli.Index, minNewID int64, fn func(c *pli.Cluster) bool) {
	if cids, ok := ix.NewClusters(minNewID); ok {
		for _, cid := range cids {
			if !fn(ix.Cluster(cid)) {
				return
			}
		}
		return
	}
	ix.ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if minNewID >= 0 && c.MaxID() < minNewID {
			return true // no new record in this cluster
		}
		return fn(c)
	})
}

// maxTail is the longest new tail the new-tail path checks; a longer one
// (a bulk load, a batch crowding into one cluster) goes to the table
// kernels, whose cost does not grow with the tail. Thresholds of 4 to 64
// measured within 9% of each other on the single history, 1 was slowest
// (DESIGN.md §18).
const maxTail = 16

// tailStart returns the position of the first record with id >= minNewID
// in the ascending ids when the new-tail path applies: pruning is on and
// at most maxTail records are new. ok is false otherwise.
func tailStart(ids []int64, minNewID int64) (from int, ok bool) {
	if minNewID < 0 {
		return 0, false
	}
	from = len(ids)
	for from > 0 && ids[from-1] >= minNewID {
		if len(ids)-from == maxTail {
			return 0, false
		}
		from--
	}
	return from, true
}

// tailCheckHook, when set, makes every new-tail check re-run the table
// kernel on the same cluster (SetTailCheckTestHook).
var tailCheckHook atomic.Pointer[func(err error)]

// SetTailCheckTestHook installs h (nil clears) as the test-only new-tail
// cross-check: every pruned FD or Unique check that takes the new-tail
// path also runs the table kernel on the same pivot cluster and calls h
// with nil when both agree, or with an error describing the difference in
// verdict or witness. A difference means a caller passed a minNewID whose
// precondition does not hold. Tests that install a hook must clear it
// before returning; production code never sets it.
func SetTailCheckTestHook(h func(err error)) {
	if h == nil {
		tailCheckHook.Store(nil)
		return
	}
	tailCheckHook.Store(&h)
}

// crossCheck hands h the comparison of a new-tail result with the table
// kernel's on the same cluster.
func crossCheck(h *func(error), kernel string, c *pli.Cluster, from int, tail bool, tw Witness, table bool, w Witness) {
	var err error
	if tail != table || tw != w {
		err = fmt.Errorf("validate: %s new-tail check of a %d-record cluster (tail from %d) = %v %v, table kernel = %v %v",
			kernel, c.Size(), from, tail, tw, table, w)
	}
	(*h)(err)
}

// fdCluster checks one pivot cluster: through the new-tail path when it
// applies, otherwise through the table kernel for rest width k.
func (sc *Scratch) fdCluster(s *pli.Store, c *pli.Cluster, k, rhs int, minNewID int64) (bool, Witness) {
	if c.Size() < 2 {
		return true, Witness{} // a single record cannot violate anything
	}
	from, ok := tailStart(c.IDs, minNewID)
	if !ok {
		return sc.fdTable(s, c, k, rhs)
	}
	valid, w := sc.fdTail(s, c.IDs, from, k, rhs)
	if h := tailCheckHook.Load(); h != nil {
		tv, tw := sc.fdTable(s, c, k, rhs)
		crossCheck(h, "FD", c, from, valid, w, tv, tw)
	}
	return valid, w
}

// fdTail is the new-tail path for FDs: each record at or after position
// from is checked, in ascending order, against the first earlier record
// with an equal rest tuple (for k == 0, against IDs[0]). That record is
// the first member of the table kernels' group, and under the pruning
// precondition no old record conflicts with its group's first member, so
// the first conflict found here is the one the table kernels report.
func (sc *Scratch) fdTail(s *pli.Store, ids []int64, from, k, rhs int) (bool, Witness) {
	from = max(from, 1)
	if k == 0 {
		want := s.Rec(ids[0])[rhs]
		for _, id := range ids[from:] {
			if s.Rec(id)[rhs] != want {
				return false, Witness{A: ids[0], B: id}
			}
		}
		return true, Witness{}
	}
	for p := from; p < len(ids); p++ {
		rp := s.Rec(ids[p])
		if q := sc.firstEqualRest(s, ids[:p], rp); q >= 0 && s.Rec(ids[q])[rhs] != rp[rhs] {
			return false, Witness{A: ids[q], B: ids[p]}
		}
	}
	return true, Witness{}
}

// firstEqualRest returns the position of the first record in ids whose
// rest tuple equals rec's, or -1.
func (sc *Scratch) firstEqualRest(s *pli.Store, ids []int64, rec pli.Record) int {
next:
	for q, id := range ids {
		rq := s.Rec(id)
		for _, a := range sc.rest {
			if rq[a] != rec[a] {
				continue next
			}
		}
		return q
	}
	return -1
}

// fdTable checks one pivot cluster on the table kernel for rest width k.
func (sc *Scratch) fdTable(s *pli.Store, c *pli.Cluster, k, rhs int) (bool, Witness) {
	switch k {
	case 0:
		return fdCheckWholeCluster(s, c, rhs)
	case 1:
		return sc.fdCheckSingle(s, c, sc.rest[0], rhs)
	default:
		return sc.fdCheckTuple(s, c, rhs)
	}
}

// fdCheckWholeCluster handles |rest| == 0: the pivot cluster is one group,
// so the FD holds on it iff all members share one Rhs cluster id.
func fdCheckWholeCluster(s *pli.Store, c *pli.Cluster, rhs int) (bool, Witness) {
	first := c.IDs[0]
	want := s.Rec(first)[rhs]
	for _, id := range c.IDs[1:] {
		if s.Rec(id)[rhs] != want {
			return false, Witness{A: first, B: id}
		}
	}
	return true, Witness{}
}

// fdCheckSingle handles |rest| == 1: groups are keyed by one cluster id,
// probed without touching the tuple path.
func (sc *Scratch) fdCheckSingle(s *pli.Store, c *pli.Cluster, restAttr, rhs int) (bool, Witness) {
	slots := sc.table(tableSize(c.Size()))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.grhs, sc.rep = sc.keys[:0], sc.grhs[:0], sc.rep[:0]
	for _, id := range c.IDs {
		rec := s.Rec(id)
		cid := rec[restAttr]
		slot := hash1(cid) & mask
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				sc.keys = append(sc.keys, cid)
				sc.grhs = append(sc.grhs, rec[rhs])
				sc.rep = append(sc.rep, id)
				break
			}
			if gi := g - 1; sc.keys[gi] == cid {
				if sc.grhs[gi] != rec[rhs] {
					return false, Witness{A: sc.rep[gi], B: id}
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// fdCheckTuple handles |rest| >= 2: groups are keyed by the full rest
// tuple, stored flattened in sc.keys.
func (sc *Scratch) fdCheckTuple(s *pli.Store, c *pli.Cluster, rhs int) (bool, Witness) {
	slots := sc.table(tableSize(c.Size()))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.grhs, sc.rep = sc.keys[:0], sc.grhs[:0], sc.rep[:0]
	for _, id := range c.IDs {
		rec := s.Rec(id)
		slot := sc.hashRest(rec) & mask
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				for _, a := range sc.rest {
					sc.keys = append(sc.keys, rec[a])
				}
				sc.grhs = append(sc.grhs, rec[rhs])
				sc.rep = append(sc.rep, id)
				break
			}
			if gi := g - 1; sc.keyEqual(gi, rec) {
				if sc.grhs[gi] != rec[rhs] {
					return false, Witness{A: sc.rep[gi], B: id}
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// Unique checks column-combination uniqueness using the scratch's buffers;
// it is the allocation-free form of the package-level Unique function.
func (sc *Scratch) Unique(s *pli.Store, cols attrset.Set, minNewID int64) (unique bool, w Witness) {
	if s.NumRecords() <= 1 {
		return true, Witness{}
	}
	if cols.IsEmpty() {
		// ∅ is unique only for relations with at most one record.
		var a, b int64
		n := 0
		s.ForEachRecord(func(id int64, _ pli.Record) bool {
			if n == 0 {
				a = id
			} else {
				b = id
			}
			n++
			return n < 2
		})
		return false, Witness{A: a, B: b}
	}
	pivot := pickPivot(s, cols)
	k := sc.setRestBySelectivity(s, cols.Without(pivot))
	unique = true
	forEachPivotCluster(s.Index(pivot), minNewID, func(c *pli.Cluster) bool {
		unique, w = sc.uniqueCluster(s, c, k, minNewID)
		return unique
	})
	return unique, w
}

// uniqueCluster checks one pivot cluster: through the new-tail path when
// it applies and the rest is not empty, otherwise through the table
// kernel. For k == 0 the table kernel is O(1) already.
func (sc *Scratch) uniqueCluster(s *pli.Store, c *pli.Cluster, k int, minNewID int64) (bool, Witness) {
	from, ok := tailStart(c.IDs, minNewID)
	if !ok || k == 0 || c.Size() < 2 {
		return sc.uniqueCheckCluster(s, c, k)
	}
	unique, w := sc.uniqueTail(s, c.IDs, from)
	if h := tailCheckHook.Load(); h != nil {
		tv, tw := sc.uniqueCheckCluster(s, c, k)
		crossCheck(h, "Unique", c, from, unique, w, tv, tw)
	}
	return unique, w
}

// uniqueTail is the new-tail path for uniqueness (rest width >= 1): the
// first tail record whose rest tuple equals an earlier record's collides
// with the first such record. Under the pruning precondition the old
// records are pairwise distinct, so this is the table kernel's collision.
func (sc *Scratch) uniqueTail(s *pli.Store, ids []int64, from int) (bool, Witness) {
	for p := max(from, 1); p < len(ids); p++ {
		if q := sc.firstEqualRest(s, ids[:p], s.Rec(ids[p])); q >= 0 {
			return false, Witness{A: ids[q], B: ids[p]}
		}
	}
	return true, Witness{}
}

// uniqueCheckCluster probes the rest tuples of one pivot cluster (rest
// width k); any repeated tuple is a collision.
func (sc *Scratch) uniqueCheckCluster(s *pli.Store, c *pli.Cluster, k int) (bool, Witness) {
	if c.Size() < 2 {
		return true, Witness{}
	}
	if k == 0 {
		// The whole cluster agrees on cols = {pivot}: any two members
		// collide.
		return false, Witness{A: c.IDs[0], B: c.IDs[1]}
	}
	slots := sc.table(tableSize(c.Size()))
	mask := uint32(len(slots) - 1)
	sc.keys, sc.rep = sc.keys[:0], sc.rep[:0]
	single := len(sc.rest) == 1
	restAttr := sc.rest[0]
	for _, id := range c.IDs {
		rec := s.Rec(id)
		var slot uint32
		if single {
			slot = hash1(rec[restAttr]) & mask
		} else {
			slot = sc.hashRest(rec) & mask
		}
		for {
			g := slots[slot]
			if g == 0 {
				slots[slot] = int32(len(sc.rep)) + 1
				if single {
					sc.keys = append(sc.keys, rec[restAttr])
				} else {
					for _, a := range sc.rest {
						sc.keys = append(sc.keys, rec[a])
					}
				}
				sc.rep = append(sc.rep, id)
				break
			}
			gi := g - 1
			if single && sc.keys[gi] == rec[restAttr] || !single && sc.keyEqual(gi, rec) {
				return false, Witness{A: sc.rep[gi], B: id}
			}
			slot = (slot + 1) & mask
		}
	}
	return true, Witness{}
}

// Violations collects the violation groups of lhs → rhs using the
// scratch's buffers; it is the low-allocation form of the package-level
// Violations function. With a warm scratch it allocates only the returned
// groups: one slice header append plus one IDs slice per violating group,
// and the final deterministic ordering when more than one group is
// returned — a valid FD inspects with zero allocations (pinned by
// TestViolationsAllocs).
func (sc *Scratch) Violations(s *pli.Store, lhs attrset.Set, rhs int, max int) (groups []ViolationGroup, g3 float64) {
	n := s.NumRecords()
	if n <= 1 {
		return nil, 0
	}
	if lhs.IsEmpty() {
		return violationsEmptyLhs(s, rhs, max)
	}
	pivot := pickPivot(s, lhs)
	sc.setRest(lhs.Without(pivot))
	removals := 0
	s.Index(pivot).ForEachCluster(func(_ int32, c *pli.Cluster) bool {
		if c.Size() < 2 {
			return true
		}
		groups = sc.violationsCluster(s, c, rhs, groups, &removals)
		return true
	})
	return trimGroups(groups, max), float64(removals) / float64(n)
}

// violationsCluster appends the violation groups of one pivot cluster.
//
// Pass A assigns every cluster member to a rest-tuple group (same probing
// as the FD kernels, but every member is recorded instead of stopping at
// the first conflict). Pass B counts (group, Rhs value) pairs through a
// second probe over the same table, yielding each group's distinct-Rhs
// count and its plurality count (the g3 numerator). Pass C walks the
// cluster once more and emits the members of violating groups; cluster
// ids are ascending (the pli.Cluster invariant), so each group's IDs come
// out sorted without a copy or sort.
func (sc *Scratch) violationsCluster(s *pli.Store, c *pli.Cluster, rhs int, groups []ViolationGroup, removals *int) []ViolationGroup {
	m := c.Size()
	k := len(sc.rest)
	sc.gof = grow32(sc.gof, m)
	sc.rcid = grow32(sc.rcid, m)
	sc.gsize = sc.gsize[:0]

	// Pass A: group membership by rest tuple.
	if k == 0 {
		for pos, id := range c.IDs {
			sc.gof[pos] = 0
			sc.rcid[pos] = s.Rec(id)[rhs]
		}
		sc.gsize = append(sc.gsize, int32(m))
	} else {
		slots := sc.table(tableSize(m))
		mask := uint32(len(slots) - 1)
		sc.keys = sc.keys[:0]
		single := k == 1
		restAttr := sc.rest[0]
		for pos, id := range c.IDs {
			rec := s.Rec(id)
			sc.rcid[pos] = rec[rhs]
			var slot uint32
			if single {
				slot = hash1(rec[restAttr]) & mask
			} else {
				slot = sc.hashRest(rec) & mask
			}
			for {
				g := slots[slot]
				if g == 0 {
					gi := int32(len(sc.gsize))
					slots[slot] = gi + 1
					if single {
						sc.keys = append(sc.keys, rec[restAttr])
					} else {
						for _, a := range sc.rest {
							sc.keys = append(sc.keys, rec[a])
						}
					}
					sc.gsize = append(sc.gsize, 1)
					sc.gof[pos] = gi
					break
				}
				gi := g - 1
				if single && sc.keys[gi] == rec[restAttr] || !single && sc.keyEqual(gi, rec) {
					sc.gsize[gi]++
					sc.gof[pos] = gi
					break
				}
				slot = (slot + 1) & mask
			}
		}
	}

	// Pass B: per-group Rhs statistics via (group, rhs cid) pair counting.
	ng := len(sc.gsize)
	sc.gdist = grow32(sc.gdist, ng)
	sc.gmax = grow32(sc.gmax, ng)
	clear(sc.gdist)
	clear(sc.gmax)
	slots := sc.table(tableSize(m))
	mask := uint32(len(slots) - 1)
	sc.pairG, sc.pairR, sc.pairN = sc.pairG[:0], sc.pairR[:0], sc.pairN[:0]
	for pos := 0; pos < m; pos++ {
		g, rc := sc.gof[pos], sc.rcid[pos]
		slot := hash2(g, rc) & mask
		for {
			p := slots[slot]
			if p == 0 {
				slots[slot] = int32(len(sc.pairN)) + 1
				sc.pairG = append(sc.pairG, g)
				sc.pairR = append(sc.pairR, rc)
				sc.pairN = append(sc.pairN, 1)
				sc.gdist[g]++
				if sc.gmax[g] < 1 {
					sc.gmax[g] = 1
				}
				break
			}
			if pi := p - 1; sc.pairG[pi] == g && sc.pairR[pi] == rc {
				sc.pairN[pi]++
				if sc.pairN[pi] > sc.gmax[g] {
					sc.gmax[g] = sc.pairN[pi]
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Pass C: emit the violating groups (>= 2 distinct Rhs values).
	sc.gout = grow32(sc.gout, ng)
	base := len(groups)
	viol := 0
	for g := 0; g < ng; g++ {
		if sc.gdist[g] < 2 {
			sc.gout[g] = -1
			continue
		}
		sc.gout[g] = int32(viol)
		viol++
		*removals += int(sc.gsize[g] - sc.gmax[g])
		groups = append(groups, ViolationGroup{
			IDs:       make([]int64, 0, sc.gsize[g]),
			RhsValues: int(sc.gdist[g]),
		})
	}
	if viol == 0 {
		return groups
	}
	for pos, id := range c.IDs {
		if o := sc.gout[sc.gof[pos]]; o >= 0 {
			grp := &groups[base+int(o)]
			grp.IDs = append(grp.IDs, id)
		}
	}
	return groups
}

// violationsEmptyLhs handles the ∅ → rhs inspection: the whole relation is
// one group. This cold path keeps the simple map-based counting; the record
// arena iterates in ascending id order (the pli.Store.ForEachRecord
// guarantee), so the collected ids are already sorted.
func violationsEmptyLhs(s *pli.Store, rhs, max int) ([]ViolationGroup, float64) {
	n := s.NumRecords()
	ids := make([]int64, 0, n)
	rhsCounts := make(map[int32]int)
	s.ForEachRecord(func(id int64, rec pli.Record) bool {
		ids = append(ids, id)
		rhsCounts[rec[rhs]]++
		return true
	})
	if len(rhsCounts) < 2 {
		return nil, 0
	}
	largest := 0
	for _, c := range rhsCounts {
		if c > largest {
			largest = c
		}
	}
	groups := []ViolationGroup{{IDs: ids, RhsValues: len(rhsCounts)}}
	return trimGroups(groups, max), float64(n-largest) / float64(n)
}

// Scratches is a fixed set of per-worker scratches owned by one
// coordinator (the engine). Slot 0 serves the serial path; Fan hands slot
// w to worker w, so scratches are never shared between goroutines. Grow
// happens before any fan-out, on the coordinator's goroutine.
type Scratches struct {
	per []*Scratch
}

// grow ensures at least n scratches exist. Not safe for concurrent use;
// Fan calls it before spawning workers.
func (p *Scratches) grow(n int) {
	for len(p.per) < n {
		p.per = append(p.per, NewScratch())
	}
}

// Ensure grows the set to at least n scratches. It must run on the
// coordinator's goroutine before any concurrent At calls — the pipelined
// engine calls it once per session begin with the pool's worker count, so
// chunk tasks can call At(worker) from any slot without synchronization.
func (p *Scratches) Ensure(n int) { p.grow(n) }

// At returns the scratch of worker slot i.
func (p *Scratches) At(i int) *Scratch { return p.per[i] }

// Serial returns the slot-0 scratch used by serial validation call sites.
func (p *Scratches) Serial() *Scratch {
	p.grow(1)
	return p.per[0]
}
