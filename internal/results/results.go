// Package results implements the immutable result snapshots behind DynFD's
// lock-free read path (DESIGN.md §14). After every committed batch the
// engine publishes a Snapshot — the discovered minimal FDs, maximal
// non-FDs, a frozen view of the record arena, and the per-attribute value
// dictionaries — through an atomic pointer. Readers Load() the pointer and
// answer every query (covers, key checks, INDs, violations) from the
// snapshot alone, never touching the engine or its mutation lock.
//
// Snapshots are built copy-on-write from their predecessor: per-RHS cover
// slices are re-collected only for the right-hand sides named in the
// batch's FD diff, the frozen arena shares page slabs and liveness bitmaps
// with the live store (pli.Frozen), and each attribute's value dictionary
// is an O(1) view over a shared, append-only log of the values the batches
// created and removed since one full capture (DESIGN.md §19), so
// publishing a batch costs O(batch), not O(dictionary). A batch that
// changes nothing shares everything.
package results

import (
	"sync"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
)

// UnaryIND is a unary inclusion dependency between two attributes: every
// distinct value of Lhs also appears in Rhs.
type UnaryIND struct {
	Lhs, Rhs int
}

// ViolationGroup mirrors validate.ViolationGroup: a set of records that
// agree on a candidate's Lhs but disagree on its Rhs. IDs are ascending;
// RhsValues counts the distinct Rhs values in the group.
type ViolationGroup struct {
	IDs       []int64
	RhsValues int
}

// rebaseDiv bounds a dictionary log: Build extends a log only while the
// values appended since its full capture number at most len(base)/rebaseDiv,
// and takes a fresh full capture otherwise. A log's extra heap is thus at
// most 1/rebaseDiv of its base, and the capture cost amortizes to about
// rebaseDiv copied values per logged value.
const rebaseDiv = 8

// dictLog is the history shared by a chain of attrDicts: one full capture
// of an attribute's value set, plus the lengths of the born/died slices of
// the chain's newest attrDict (its tip). The slices themselves live in the
// attrDicts; every attrDict on the log views base plus a prefix of the same
// append-only backing arrays. Only Build reads or writes the lengths, under
// the store access it already requires.
type dictLog struct {
	base             []string
	bornLen, diedLen int
}

// attrDict is one attribute's distinct-value set at one dictionary
// generation (pli.Index.Gen): log.base plus the values created (born) and
// removed (died) since that capture. It is shared across snapshots while
// the generation is unchanged. A value's births and deaths strictly
// alternate, so it is present iff (1 if in base) + #born − #died is 1,
// whatever the order; the membership set for IND checks is materialized
// lazily, once, on first use.
type attrDict struct {
	gen        uint64
	count      int // number of distinct values present
	log        *dictLog
	born, died []string

	once sync.Once
	set  map[string]int32
}

// nextDict returns the dictionary of ix at its current generation, given
// the predecessor's dictionary p (nil when there is none from this store).
// An unchanged generation shares p; a generation moved by exactly the last
// batch's value delta extends p's log when p is the log's tip and the log
// stays within the rebase bound; anything else is a full capture. Appending
// only at the tip means the append never writes where another view reads:
// every other attrDict on the log views a shorter prefix.
func nextDict(p *attrDict, ix *pli.Index) *attrDict {
	gen := ix.Gen()
	if p != nil {
		if p.gen == gen {
			return p
		}
		l := p.log
		born, died, ok := ix.ValueDelta(p.gen)
		if ok && len(p.born) == l.bornLen && len(p.died) == l.diedLen &&
			l.bornLen+len(born)+l.diedLen+len(died) <= len(l.base)/rebaseDiv {
			d := &attrDict{
				gen:   gen,
				count: p.count + len(born) - len(died),
				log:   l,
				born:  append(p.born, born...),
				died:  append(p.died, died...),
			}
			l.bornLen, l.diedLen = len(d.born), len(d.died)
			return d
		}
	}
	base := ix.AppendValues(make([]string, 0, ix.NumClusters()))
	return &attrDict{gen: gen, count: len(base), log: &dictLog{base: base}}
}

// member returns the materialized value set. Births are counted before
// deaths, so no count dips below zero and a value whose count returns to
// zero is dropped on the spot.
func (d *attrDict) member() map[string]int32 {
	d.once.Do(func() {
		set := make(map[string]int32, len(d.log.base)+len(d.born))
		for _, v := range d.log.base {
			set[v]++
		}
		for _, v := range d.born {
			set[v]++
		}
		for _, v := range d.died {
			if set[v]--; set[v] == 0 {
				delete(set, v)
			}
		}
		d.set = set
	})
	return d.set
}

// Snapshot is one published, immutable result state. All methods are safe
// for unlimited concurrent callers; slices returned by accessor methods
// alias the snapshot and must not be modified.
type Snapshot struct {
	seq      uint64
	columns  []string
	numAttrs int
	numRecs  int

	// origin identifies the store this snapshot froze; Build only applies
	// copy-on-write sharing against a predecessor from the same store.
	origin *pli.Store
	frozen *pli.Frozen

	fds    []fd.FD   // all minimal FDs, fd.Sort order
	byRhs  [][]fd.FD // per-RHS slices of fds (fd.Sort is Rhs-major)
	nonFDs []fd.FD   // all maximal non-FDs, fd.Sort order
	dicts  []*attrDict

	// Memoized query caches, per snapshot: repeated HTTP queries for the
	// same column set or the IND listing hit the memo instead of
	// re-scanning. mu only guards the memo maps — never held during
	// publication or by the engine.
	mu      sync.Mutex
	keyMemo map[attrset.Set]bool
	inds    []UnaryIND
	indsSet bool
}

// Build constructs the snapshot for one committed batch. prev is the
// previous snapshot (nil for the first), touchedRhs the set of right-hand
// sides appearing in the batch's FD diff: those covers are re-collected
// from the live lattice, all others share prev's slices. nonFDs is called
// only when the cover changed (FD and non-FD covers are dual: one changes
// iff the other does). Build must run with read access to the store — the
// engine calls it right after a batch commits, before any further
// mutation.
func Build(prev *Snapshot, seq uint64, columns []string, store *pli.Store,
	cover *lattice.Cover, nonFDs func() []fd.FD, touchedRhs attrset.Set) *Snapshot {

	numAttrs := store.NumAttrs()
	s := &Snapshot{
		seq:      seq,
		columns:  columns,
		numAttrs: numAttrs,
		origin:   store,
		frozen:   store.Freeze(),
		keyMemo:  make(map[attrset.Set]bool),
	}
	s.numRecs = s.frozen.NumRecords()

	cow := prev != nil && prev.origin == store
	switch {
	case cow && touchedRhs.IsEmpty():
		// No FD changed: share the whole cover (and, by duality, the
		// non-FD cover) with the predecessor.
		s.fds, s.byRhs, s.nonFDs = prev.fds, prev.byRhs, prev.nonFDs
	default:
		s.byRhs = make([][]fd.FD, numAttrs)
		total := 0
		for rhs := 0; rhs < numAttrs; rhs++ {
			if cow && !touchedRhs.Contains(rhs) {
				s.byRhs[rhs] = prev.byRhs[rhs]
			} else {
				s.byRhs[rhs] = cover.AppendRhs(nil, rhs)
			}
			total += len(s.byRhs[rhs])
		}
		s.fds = make([]fd.FD, 0, total)
		for rhs := 0; rhs < numAttrs; rhs++ {
			s.fds = append(s.fds, s.byRhs[rhs]...)
		}
		s.nonFDs = nonFDs()
	}

	s.dicts = make([]*attrDict, numAttrs)
	for a := 0; a < numAttrs; a++ {
		var p *attrDict
		if cow {
			p = prev.dicts[a]
		}
		s.dicts[a] = nextDict(p, store.Index(a))
	}
	return s
}

// Seq returns the batch sequence number this snapshot reflects.
func (s *Snapshot) Seq() uint64 { return s.seq }

// NumRecords returns the tuple count at the snapshot's sequence.
func (s *Snapshot) NumRecords() int { return s.numRecs }

// NumAttrs returns the schema width.
func (s *Snapshot) NumAttrs() int { return s.numAttrs }

// Columns returns the schema's column names. Callers must not modify the
// returned slice.
func (s *Snapshot) Columns() []string { return s.columns }

// FDs returns all minimal, non-trivial FDs in deterministic (fd.Sort)
// order — identical to Engine.FDs at the same sequence.
func (s *Snapshot) FDs() []fd.FD { return s.fds }

// NonFDs returns all maximal non-FDs in deterministic order.
func (s *Snapshot) NonFDs() []fd.FD { return s.nonFDs }

// CoverOf returns the minimal FDs with the given right-hand side, in
// deterministic order.
func (s *Snapshot) CoverOf(rhs int) []fd.FD {
	if rhs < 0 || rhs >= s.numAttrs {
		return nil
	}
	return s.byRhs[rhs]
}

// Holds reports whether lhs → rhs held at the snapshot's sequence,
// mirroring Engine.Holds: trivial candidates always hold, any other holds
// iff some minimal FD generalizes it.
func (s *Snapshot) Holds(lhs attrset.Set, rhs int) bool {
	if lhs.Contains(rhs) {
		return true
	}
	if rhs < 0 || rhs >= s.numAttrs {
		return false
	}
	for _, m := range s.byRhs[rhs] {
		if m.Lhs.IsSubsetOf(lhs) {
			return true
		}
	}
	return false
}

// Open-addressing geometry, shared with internal/validate: power-of-two
// tables at most half full, Fibonacci multiplicative hashing.
const hashMul = 0x9E3779B185EBCA87

func tableSize(m int) int {
	size := 4
	for size < 2*m {
		size <<= 1
	}
	return size
}

// hashProj mixes the projection of rec onto cols.
func hashProj(rec pli.Record, cols []int) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, a := range cols {
		h = (h ^ uint64(uint32(rec[a]))) * hashMul
	}
	return h
}

func projEqual(a, b pli.Record, cols []int) bool {
	for _, c := range cols {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// Unique reports whether the records were pairwise distinct on the given
// column set at the snapshot's sequence — the key check. Results are
// memoized per column set. The semantics match validate.Unique: relations
// with at most one record are trivially unique, the empty column set is
// never unique beyond that.
func (s *Snapshot) Unique(cols attrset.Set) bool {
	if s.numRecs <= 1 {
		return true
	}
	if cols.IsEmpty() {
		return false
	}
	s.mu.Lock()
	u, ok := s.keyMemo[cols]
	s.mu.Unlock()
	if ok {
		return u
	}
	u = s.uniqueScan(cols)
	s.mu.Lock()
	s.keyMemo[cols] = u
	s.mu.Unlock()
	return u
}

func (s *Snapshot) uniqueScan(cols attrset.Set) bool {
	// Cover fast path: if cols → a fails for some attribute a outside the
	// set, a witness pair agrees on cols — the projection cannot be
	// unique. (The converse needs the scan: a superkey still admits exact
	// duplicate tuples.)
	for a := 0; a < s.numAttrs; a++ {
		if !cols.Contains(a) && !s.Holds(cols, a) {
			return false
		}
	}
	proj := cols.Slice()
	size := tableSize(s.numRecs)
	mask := uint64(size - 1)
	slots := make([]int64, size) // record id + 1; 0 = empty
	unique := true
	s.frozen.ForEachRecord(func(id int64, rec pli.Record) bool {
		i := (hashProj(rec, proj) * hashMul) & mask
		for {
			v := slots[i]
			if v == 0 {
				slots[i] = id + 1
				return true
			}
			if projEqual(rec, s.frozen.Rec(v-1), proj) {
				unique = false
				return false
			}
			i = (i + 1) & mask
		}
	})
	return unique
}

// INDs returns all unary inclusion dependencies between distinct
// attributes at the snapshot's sequence, in (Lhs, Rhs) column order —
// identical to a value-set scan over the live relation. The listing is
// computed once per snapshot and memoized.
func (s *Snapshot) INDs() []UnaryIND {
	s.mu.Lock()
	if s.indsSet {
		out := s.inds
		s.mu.Unlock()
		return out
	}
	s.mu.Unlock()

	var out []UnaryIND
	for i := 0; i < s.numAttrs; i++ {
		di := s.dicts[i]
		for j := 0; j < s.numAttrs; j++ {
			if i == j || di.count > s.dicts[j].count {
				continue
			}
			member := s.dicts[j].member()
			included := true
			for v := range di.member() {
				if _, ok := member[v]; !ok {
					included = false
					break
				}
			}
			if included {
				out = append(out, UnaryIND{Lhs: i, Rhs: j})
			}
		}
	}

	s.mu.Lock()
	if !s.indsSet {
		s.inds, s.indsSet = out, true
	}
	out = s.inds
	s.mu.Unlock()
	return out
}

// Violations explains why lhs → rhs did not hold at the snapshot's
// sequence: up to max groups of records that agree on lhs but differ on
// rhs (max <= 0 returns all), plus the g3 error — the minimum fraction of
// records whose removal would make the FD hold. The group contents,
// ordering, and g3 value are identical to validate.Scratch.Violations on
// the live store at the same sequence: group IDs ascending, groups ordered
// by first member id.
func (s *Snapshot) Violations(lhs attrset.Set, rhs int, max int) ([]ViolationGroup, float64) {
	n := s.numRecs
	if n <= 1 || rhs < 0 || rhs >= s.numAttrs {
		return nil, 0
	}
	proj := lhs.Slice()

	// Pass A: group the records by their lhs projection. Scanning in
	// ascending id order makes both each group's id list and the group
	// discovery order (= order of first member) ascending for free.
	size := tableSize(n)
	mask := uint64(size - 1)
	slots := make([]int32, size) // group index + 1; 0 = empty
	rep := make([]int64, 0, 16)  // group -> representative record id
	gof := make([]int32, 0, n)   // scan order -> group
	ids := make([]int64, 0, n)   // scan order -> record id
	s.frozen.ForEachRecord(func(id int64, rec pli.Record) bool {
		i := (hashProj(rec, proj) * hashMul) & mask
		for {
			v := slots[i]
			if v == 0 {
				slots[i] = int32(len(rep)) + 1
				gof = append(gof, int32(len(rep)))
				rep = append(rep, id)
				break
			}
			if projEqual(rec, s.frozen.Rec(rep[v-1]), proj) {
				gof = append(gof, v-1)
				break
			}
			i = (i + 1) & mask
		}
		ids = append(ids, id)
		return true
	})
	numG := len(rep)

	// Pass B: per group, count the distinct rhs cluster ids and the
	// plurality (most frequent rhs value) via a (group, rhs-cid) pair
	// table.
	gsize := make([]int32, numG)
	gdist := make([]int32, numG)
	gmax := make([]int32, numG)
	psize := tableSize(n)
	pmask := uint64(psize - 1)
	pslot := make([]int32, psize) // pair index + 1
	pairG := make([]int32, 0, 16)
	pairR := make([]int32, 0, 16)
	pairN := make([]int32, 0, 16)
	for k, id := range ids {
		g := gof[k]
		rcid := s.frozen.Rec(id)[rhs]
		gsize[g]++
		h := (uint64(uint32(g))*hashMul ^ uint64(uint32(rcid))) * hashMul
		i := h & pmask
		for {
			v := pslot[i]
			if v == 0 {
				pslot[i] = int32(len(pairG)) + 1
				pairG = append(pairG, g)
				pairR = append(pairR, rcid)
				pairN = append(pairN, 1)
				gdist[g]++
				if gmax[g] < 1 {
					gmax[g] = 1
				}
				break
			}
			if pairG[v-1] == g && pairR[v-1] == rcid {
				pairN[v-1]++
				if pairN[v-1] > gmax[g] {
					gmax[g] = pairN[v-1]
				}
				break
			}
			i = (i + 1) & pmask
		}
	}

	// Pass C: emit the violating groups (≥2 distinct rhs values) in group
	// order — already ascending by first member id — and accumulate the
	// removal count.
	removals := 0
	var out []ViolationGroup
	for g := 0; g < numG; g++ {
		if gdist[g] < 2 {
			continue
		}
		removals += int(gsize[g] - gmax[g])
		if max <= 0 || len(out) < max {
			out = append(out, ViolationGroup{
				IDs:       make([]int64, 0, gsize[g]),
				RhsValues: int(gdist[g]),
			})
		}
	}
	if removals == 0 {
		return nil, 0
	}
	// Fill the emitted groups' id lists in one ordered sweep.
	emitted := make(map[int32]int, len(out))
	k := 0
	for g := 0; g < numG; g++ {
		if gdist[g] >= 2 && k < len(out) {
			emitted[int32(g)] = k
			k++
		}
	}
	for k, id := range ids {
		if slot, ok := emitted[gof[k]]; ok {
			out[slot].IDs = append(out[slot].IDs, id)
		}
	}
	return out, float64(removals) / float64(n)
}
