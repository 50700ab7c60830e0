// Package pli implements DynFD's runtime representation of a relation
// (paper §3.1): one position list index (Pli, also known as a stripped
// partition) per attribute, an inverted value index per attribute that maps
// values to their Pli clusters, dictionary-encoded ("compressed") records,
// and a paged record arena from surrogate record ids to compressed records.
//
// Unlike the static setting, records are identified by a monotonically
// increasing surrogate key instead of a row number, so the structures stay
// valid while the relation grows and shrinks. All structures are updated
// incrementally on insert and delete, without re-reading the data.
//
// Record arena (DESIGN.md §10): because surrogate ids are dense and
// monotonic, compressed records live in fixed-size pages of a flat []int32
// slab indexed by id — page pages[id>>pageBits], offset (id&pageMask)*
// numAttrs — so the hot-path accessor Rec is two array loads instead of the
// former map[int64]Record probe. Liveness is a per-page bitmap; pages whose
// last record dies are freed, so long-running delete-heavy streams do not
// leak dead slab memory.
//
// Batch maintenance: ApplyBatch applies a whole batch of deletes and
// inserts at once. Per-attribute index updates are independent, so they fan
// out across a bounded worker pool (one worker owns an attribute's Index
// exclusively, no locks), and deletes compact each touched cluster in one
// sweep instead of splicing per record. Insert, InsertWithID, and Delete
// remain as single-element wrappers with their original semantics. Every
// batch also records, per attribute, the clusters it grew (NewClusters), so
// cluster-pruned validation can walk just those (DESIGN.md §17), and the
// values it created and removed (ValueDelta), so snapshot publish extends
// its dictionaries instead of re-reading them (DESIGN.md §19).
//
// Deviation from the paper: compressed records store a real cluster id for
// every value, including values that occur only once. The paper's "-1 for
// unique values" trick is an optimization for the static case; in the
// dynamic case a second occurrence of a formerly unique value must locate
// its cluster through the inverted index anyway. Validation obtains the
// same pruning by skipping size-1 pivot clusters (see DESIGN.md §2.3).
package pli

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"dynfd/internal/fanout"
)

// testApplyAttrHook, when set, runs at the start of every per-attribute
// batch application — a test-only injection point that lets failure-path
// tests drive a panicking worker through ApplyBatch's real fan-out.
var testApplyAttrHook atomic.Pointer[func(a int)]

// SetApplyAttrTestHook installs h (nil clears) as the test-only
// per-attribute maintenance hook. Tests that install a hook must clear it
// before returning; production code never sets it.
func SetApplyAttrTestHook(h func(a int)) {
	if h == nil {
		testApplyAttrHook.Store(nil)
		return
	}
	testApplyAttrHook.Store(&h)
}

// Record is a dictionary-encoded tuple: Record[a] is the id of the cluster
// in attribute a's Pli that contains this tuple. It aliases the store's
// record arena and must not be modified by callers.
type Record []int32

// Cluster is one equivalence class of a Pli: the ids of all current records
// that share Value in the Pli's attribute.
//
// Invariant: IDs are strictly ascending. Inserts append (surrogate ids grow
// monotonically, so an append preserves the order), single deletes splice,
// and batch deletes compact in place keeping the survivors' order, so the
// order holds at all times; CheckConsistency asserts it. The validation
// kernels in internal/validate rely on this to emit violation-group members
// in record-id order without copying or sorting, and MaxID reads the newest
// member in constant time.
type Cluster struct {
	Value string
	IDs   []int64
}

// Size returns the number of records in the cluster.
func (c *Cluster) Size() int { return len(c.IDs) }

// MaxID returns the largest (newest) record id in the cluster, or -1 if the
// cluster is empty. Because IDs are sorted this is a constant-time lookup —
// it drives the cluster pruning of paper §4.2.
func (c *Cluster) MaxID() int64 {
	if len(c.IDs) == 0 {
		return -1
	}
	return c.IDs[len(c.IDs)-1]
}

// Contains reports whether id is a member of the cluster.
func (c *Cluster) Contains(id int64) bool {
	i := sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= id })
	return i < len(c.IDs) && c.IDs[i] == id
}

// remove deletes id from the cluster and reports whether it was present.
func (c *Cluster) remove(id int64) bool {
	i := sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= id })
	if i >= len(c.IDs) || c.IDs[i] != id {
		return false
	}
	c.IDs = append(c.IDs[:i], c.IDs[i+1:]...)
	return true
}

// Index is the Pli of a single attribute plus its inverted value index.
type Index struct {
	clusters map[int32]*Cluster
	inverted map[string]int32
	next     int32

	// gen counts changes to the attribute's distinct-value set: it is
	// bumped once per value that appears (a cluster is created) and once
	// per value that vanishes (a cluster is deleted), never when an
	// existing cluster only gains or loses members. Snapshot builders use
	// it as a stamp: an unchanged gen shares the published dictionary, and
	// a gen that moved by exactly the last batch's value delta (ValueDelta)
	// extends it by that delta instead of re-capturing it.
	gen uint64

	// batchCids is the reusable touched-cluster scratch of ApplyBatch.
	// During a batch the owning maintenance worker uses it exclusively.
	batchCids []int32

	// newCids lists the clusters that gained a member in the last batch
	// application, in first-new-member order; newFrom is that batch's
	// pre-batch id horizon, so the list holds exactly the clusters whose
	// MaxID is >= newFrom. newOK is false while the list does not describe
	// the index: before the first batch and after any single-record
	// mutation (see NewClusters).
	newCids []int32
	newFrom int64
	newOK   bool

	// born and died list the values the last batch application created and
	// removed, in order; deltaGen is gen before that batch, so
	// len(born)+len(died) == gen-deltaGen. deltaOK follows newOK: false
	// before the first batch and after any single-record mutation (see
	// ValueDelta).
	born, died []string
	deltaGen   uint64
	deltaOK    bool
}

func newIndex() *Index {
	return &Index{
		clusters: make(map[int32]*Cluster),
		inverted: make(map[string]int32),
	}
}

// NumClusters returns the number of distinct values currently present.
func (ix *Index) NumClusters() int { return len(ix.clusters) }

// Cluster returns the cluster with the given id, or nil if it was deleted.
func (ix *Index) Cluster(cid int32) *Cluster { return ix.clusters[cid] }

// ClusterOf returns the cluster id for a value via the inverted index.
func (ix *Index) ClusterOf(value string) (int32, bool) {
	cid, ok := ix.inverted[value]
	return cid, ok
}

// ForEachCluster calls fn for every cluster. Iteration order is unspecified.
func (ix *Index) ForEachCluster(fn func(cid int32, c *Cluster) bool) {
	for cid, c := range ix.clusters {
		if !fn(cid, c) {
			return
		}
	}
}

// NewClusters returns the ids of the clusters that gained a member in the
// last batch application (ApplyBatch, or StageBatch+RunAttr), in the order
// their first new member arrived, when from equals that batch's pre-batch
// id horizon (the store's NextID before the batch). The list then holds
// exactly the clusters with MaxID >= from — the pivot clusters cluster
// pruning must visit — so a validation can walk it instead of the whole
// index. ok is false for any other from, before the first batch, and after
// Insert, InsertWithID, Delete or SetNextID; callers then fall back to a
// full scan. The returned slice aliases the index and must not be
// modified; it is valid until the attribute's next mutation.
func (ix *Index) NewClusters(from int64) (cids []int32, ok bool) {
	if !ix.newOK || from != ix.newFrom {
		return nil, false
	}
	return ix.newCids, true
}

// Gen returns the distinct-value generation counter (see the field comment).
func (ix *Index) Gen() uint64 { return ix.gen }

// ValueDelta returns the values the last batch application (ApplyBatch, or
// StageBatch+RunAttr) created (born) and removed (died), when fromGen
// equals the attribute's Gen before that batch. Deletes apply before
// inserts, so a value may die and be born again in one batch, never the
// reverse. ok follows the NewClusters contract: it is false for any other
// fromGen, before the first batch, and after Insert, InsertWithID, Delete
// or SetNextID; callers then capture the dictionary in full. The returned
// slices alias the index and must not be modified; they are valid until
// the attribute's next mutation.
func (ix *Index) ValueDelta(fromGen uint64) (born, died []string, ok bool) {
	if !ix.deltaOK || fromGen != ix.deltaGen {
		return nil, nil, false
	}
	return ix.born, ix.died, true
}

// AppendValues appends the attribute's distinct values to dst in
// unspecified order and returns the extended slice.
func (ix *Index) AppendValues(dst []string) []string {
	for v := range ix.inverted {
		dst = append(dst, v)
	}
	return dst
}

// add registers id under value and returns the cluster id used together
// with the cluster's previous newest member (-1 for a new cluster).
func (ix *Index) add(value string, id int64) (cid int32, prevMax int64) {
	cid, ok := ix.inverted[value]
	if !ok {
		cid = ix.next
		ix.next++
		ix.inverted[value] = cid
		ix.clusters[cid] = &Cluster{Value: value}
		ix.gen++
	}
	c := ix.clusters[cid]
	prevMax = c.MaxID()
	c.IDs = append(c.IDs, id) // ids are monotonic, order preserved
	return cid, prevMax
}

// drop removes id from cluster cid, deleting the cluster when it empties.
func (ix *Index) drop(cid int32, id int64) error {
	c, ok := ix.clusters[cid]
	if !ok {
		return fmt.Errorf("pli: cluster %d not found", cid)
	}
	if !c.remove(id) {
		return fmt.Errorf("pli: record %d not in cluster %d", id, cid)
	}
	if c.Size() == 0 {
		delete(ix.clusters, cid)
		delete(ix.inverted, c.Value)
		ix.gen++
	}
	return nil
}

// Record arena page geometry: pageSize records per page. 1024 records keeps
// a page at 4·numAttrs KiB — big enough to amortize allocation and make the
// page directory tiny, small enough that sparse stores (after heavy
// deletes) free memory at a useful granularity.
const (
	pageBits  = 10
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	liveWords = pageSize / 64
)

// shard is one attribute's slice of the store: its Index (Pli + inverted
// value dictionary) plus an epoch counting the staged batches fully applied
// to it. Everything a maintenance worker writes for attribute a — the
// shard's Index and the records' column a in the arena — lives behind this
// per-attribute ownership boundary, so staged maintenance needs no locks at
// all: distinct attributes never share mutable state, and readers of
// attribute a synchronize with its maintenance through the scheduler's
// readiness bits (internal/sched), not through the store.
type shard struct {
	ix    *Index
	epoch atomic.Uint64 // staged batches fully applied to this shard
}

// Store bundles the per-attribute shards with the record arena. It is the
// single mutable representation of the profiled relation inside DynFD.
//
// Concurrency contract: a Store is safe for any number of concurrent
// readers (Record, Rec, Values, Lookup, AppendLookup, Index and the cluster
// accessors, ForEachRecord, CheckConsistency) as long as no goroutine
// mutates it; Insert, InsertWithID, SetNextID, Delete, and ApplyBatch
// require exclusive access. The parallel validation engine relies on this
// reader-only window: the engine applies all structural mutations first and
// only then fans read-only candidate validations out across workers (see
// internal/core/parallel.go). The contract is exercised under the race
// detector by TestStoreConcurrentReaders. ApplyBatch's internal
// per-attribute fan-out never escapes the call.
//
// Staged maintenance (DESIGN.md §13) relaxes the exclusive window per
// attribute: between StageBatch and Finish, RunAttr(a) may run concurrently
// for distinct attributes, and readers may access attribute a's shard —
// Index(a), column a of Rec, the liveness bitmap — as soon as RunAttr(a)
// has returned AND a happens-before edge orders that return before the
// read (the engine publishes it via sched.Session.MarkReady). Whole-store
// readers (ForEachRecord, Values, Lookup) must wait until every shard is
// maintained.
type Store struct {
	numAttrs int
	shards   []shard

	// staged is the open staged batch (StageBatch..Finish), nil otherwise;
	// batchEpoch counts finished staged batches. Outside a staging window
	// every shard epoch equals batchEpoch — skew means a batch was applied
	// to only some shards (e.g. a panicked worker) and CheckConsistency
	// reports it.
	staged     *stagedBatch
	batchEpoch uint64

	// Record arena. pages[p] is a flat slab of pageSize compressed records
	// ((id&pageMask)*numAttrs ints each), nil while no record of the page
	// was ever inserted or after all of its records died. live[p] is the
	// page's liveness bitmap and pageN[p] its live-record count; the three
	// slices always have equal length.
	pages   [][]int32
	live    [][]uint64
	pageN   []int
	numRecs int
	nextID  int64

	// liveShared[p] marks page p's liveness bitmap as shared with one or
	// more Frozen views (Freeze). The next liveness flip clones the bitmap
	// first (copy-on-write), so frozen readers keep seeing the membership
	// they captured. Arena slabs need no such flag: record slots are
	// written exactly once (ids are never reused and a freed page's slab
	// is never resurrected — a new slab is allocated instead), so sharing
	// them is always safe.
	liveShared []bool

	// batchSeen is the reusable duplicate-delete detector of ApplyBatch.
	batchSeen map[int64]struct{}
}

// NewStore returns an empty store for a schema with numAttrs attributes.
func NewStore(numAttrs int) *Store {
	if numAttrs <= 0 {
		panic(fmt.Sprintf("pli: invalid attribute count %d", numAttrs))
	}
	s := &Store{
		numAttrs: numAttrs,
		shards:   make([]shard, numAttrs),
	}
	for a := range s.shards {
		s.shards[a].ix = newIndex()
	}
	return s
}

// NumAttrs returns the schema width.
func (s *Store) NumAttrs() int { return s.numAttrs }

// NumRecords returns the current tuple count.
func (s *Store) NumRecords() int { return s.numRecs }

// NextID returns the surrogate key the next insert will receive.
func (s *Store) NextID() int64 { return s.nextID }

// Index returns the Pli of attribute a.
func (s *Store) Index(a int) *Index { return s.shards[a].ix }

// alive reports whether id is a live record.
func (s *Store) alive(id int64) bool {
	pg := id >> pageBits
	if id < 0 || pg >= int64(len(s.pages)) || s.live[pg] == nil {
		return false
	}
	slot := id & pageMask
	return s.live[pg][slot>>6]&(1<<(slot&63)) != 0
}

// Record returns the compressed record for id. The returned slice aliases
// the record arena and must not be modified.
func (s *Store) Record(id int64) (Record, bool) {
	if !s.alive(id) {
		return nil, false
	}
	return s.Rec(id), true
}

// Rec returns the compressed record for id without a liveness check: two
// array loads into the record arena. It is the hot-path accessor for loops
// that iterate cluster members (which are live by the store invariants);
// calling it with an id that was never inserted, or whose page has been
// freed, panics. The returned slice aliases the arena and must not be
// modified.
func (s *Store) Rec(id int64) Record {
	off := int(id&pageMask) * s.numAttrs
	return s.pages[id>>pageBits][off : off+s.numAttrs : off+s.numAttrs]
}

// ForEachRecord calls fn for every live record in ascending id order. (The
// ordering is a guarantee, unlike the old hash-index iteration: the
// empty-Lhs validation paths rely on it to emit record ids sorted without
// copying.)
func (s *Store) ForEachRecord(fn func(id int64, rec Record) bool) {
	for pg, bm := range s.live {
		if bm == nil {
			continue
		}
		base := int64(pg) << pageBits
		for w, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				id := base + int64(w<<6+b)
				if !fn(id, s.Rec(id)) {
					return
				}
			}
		}
	}
}

// ensurePage makes the arena page holding id available for writing and
// returns its index.
func (s *Store) ensurePage(id int64) int64 {
	pg := id >> pageBits
	for int64(len(s.pages)) <= pg {
		s.pages = append(s.pages, nil)
		s.live = append(s.live, nil)
		s.pageN = append(s.pageN, 0)
		s.liveShared = append(s.liveShared, false)
	}
	if s.pages[pg] == nil {
		s.pages[pg] = make([]int32, pageSize*s.numAttrs)
		s.live[pg] = make([]uint64, liveWords)
		s.liveShared[pg] = false
	}
	return pg
}

// mutableLive returns page pg's liveness bitmap for writing, cloning it
// first when a Frozen view still shares it.
func (s *Store) mutableLive(pg int64) []uint64 {
	if s.liveShared[pg] {
		s.live[pg] = append([]uint64(nil), s.live[pg]...)
		s.liveShared[pg] = false
	}
	return s.live[pg]
}

// setLive marks id live and updates the record counters.
func (s *Store) setLive(id int64) {
	pg := s.ensurePage(id)
	slot := id & pageMask
	s.mutableLive(pg)[slot>>6] |= 1 << (slot & 63)
	s.pageN[pg]++
	s.numRecs++
}

// clearLive marks id dead and updates the record counters. The page is not
// freed here: batch maintenance still reads the dead record's cluster ids.
func (s *Store) clearLive(id int64) {
	pg := id >> pageBits
	slot := id & pageMask
	s.mutableLive(pg)[slot>>6] &^= 1 << (slot & 63)
	s.pageN[pg]--
	s.numRecs--
}

// freePageIfEmpty releases the slab and bitmap of id's page when its last
// record died, so delete-heavy streams return arena memory.
func (s *Store) freePageIfEmpty(id int64) {
	pg := id >> pageBits
	if s.pageN[pg] == 0 {
		s.pages[pg] = nil
		s.live[pg] = nil
		s.liveShared[pg] = false
	}
}

// insertOne writes one record into the arena and all per-attribute indexes.
// The caller has validated the arity and the id.
func (s *Store) insertOne(id int64, values []string) {
	s.setLive(id)
	rec := s.Rec(id)
	for a, v := range values {
		rec[a], _ = s.shards[a].ix.add(v, id)
	}
	s.invalidateNew()
}

// invalidateNew drops every attribute's new-cluster list and value delta
// and their memory: the single-record mutators change clusters outside any
// batch, so no list describes them.
func (s *Store) invalidateNew() {
	for a := range s.shards {
		ix := s.shards[a].ix
		ix.newCids, ix.newOK = nil, false
		ix.born, ix.died, ix.deltaOK = nil, nil, false
	}
}

// Insert adds a tuple and returns its surrogate id. For every attribute the
// record id is appended to the value's cluster (creating the cluster if the
// value is new), and the resulting cluster-id vector becomes the compressed
// record, stored in the arena.
func (s *Store) Insert(values []string) (int64, error) {
	if s.staged != nil {
		return 0, errStagedOpen
	}
	if len(values) != s.numAttrs {
		return 0, fmt.Errorf("pli: insert has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	id := s.nextID
	s.nextID++
	s.insertOne(id, values)
	return id, nil
}

// InsertWithID adds a tuple under a caller-chosen surrogate id, used to
// restore persisted stores. Ids must arrive in strictly ascending order
// (they are, in a store dump) so cluster id lists stay sorted; the next
// automatic id becomes id+1.
func (s *Store) InsertWithID(id int64, values []string) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if id < s.nextID {
		return fmt.Errorf("pli: restore id %d not ascending (next %d)", id, s.nextID)
	}
	if len(values) != s.numAttrs {
		return fmt.Errorf("pli: insert has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	s.nextID = id + 1
	s.insertOne(id, values)
	return nil
}

// SetNextID raises the next automatic surrogate id, used to restore stores
// whose newest records had been deleted before the dump.
func (s *Store) SetNextID(next int64) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if next < s.nextID {
		return fmt.Errorf("pli: next id %d below current %d", next, s.nextID)
	}
	s.nextID = next
	s.invalidateNew()
	return nil
}

// Delete removes the tuple with the given surrogate id from all Plis, the
// inverted indexes (when a cluster empties), and the record arena.
func (s *Store) Delete(id int64) error {
	if s.staged != nil {
		return errStagedOpen
	}
	if !s.alive(id) {
		return fmt.Errorf("pli: record %d not found", id)
	}
	rec := s.Rec(id)
	for a, cid := range rec {
		if err := s.shards[a].ix.drop(cid, id); err != nil {
			return fmt.Errorf("pli: deleting record %d attribute %d: %w", id, a, err)
		}
	}
	s.clearLive(id)
	s.freePageIfEmpty(id)
	s.invalidateNew()
	return nil
}

// BatchInsert is one tuple of an ApplyBatch call with its pre-assigned
// surrogate id.
type BatchInsert struct {
	ID     int64
	Values []string
}

// ApplyBatch applies a batch of structural changes at once: first all
// deletes, then all inserts (the engine's batch planner has already reduced
// a mixed change stream to this normal form). It is semantically equivalent
// to calling Delete for every id in deletes followed by InsertWithID for
// every insert, but restructures the work for batch efficiency
// (DESIGN.md §10):
//
//   - deletes are marked in the arena's liveness bitmap first, then every
//     touched cluster is compacted in ONE sweep that drops all of its dead
//     members — O(touched clusters) sweeps instead of O(deletes × cluster
//     size) per-record splices;
//   - per-attribute index updates are independent, so they fan out across
//     at most workers goroutines (workers <= 1 applies them serially):
//     worker w owns attribute a's Index and the records' column a
//     exclusively, so no locks are needed and the resulting store is
//     bit-identical to a serial application regardless of worker count.
//
// Insert ids must be strictly ascending and >= NextID; afterwards NextID is
// one past the last insert. Validation happens up front: on a validation
// error the store is unchanged. A panic in a fanned-out worker is captured
// and returned as a *fanout.PanicError-wrapped error instead; the store is
// then possibly inconsistent (the staged batch stays open, so further
// mutators are rejected) and must not be used further.
//
// ApplyBatch is the barrier form of the staged API (staged.go): StageBatch,
// RunAttr for every attribute over the fixed fan-out, Finish. The pipelined
// engine drives the three steps itself so per-attribute maintenance can
// overlap candidate validation instead of joining here.
func (s *Store) ApplyBatch(deletes []int64, inserts []BatchInsert, workers int) error {
	if err := s.StageBatch(deletes, inserts); err != nil {
		return err
	}
	if _, err := fanout.ForEach(s.numAttrs, workers, func(a int) { s.RunAttr(a) }); err != nil {
		// A panicking worker leaves an unknown subset of the per-attribute
		// shards updated; the store is inconsistent and the caller must
		// stop using it (core.Engine poisons itself on this error).
		return fmt.Errorf("pli: applying batch: %w", err)
	}
	return s.Finish()
}

// newCidsKeepCap is the per-batch scratch capacity (new-cluster list, value
// delta) a batch always reuses; above it, a backing array more than 4x the
// batch's change count is released, so a bulk load that touched every
// cluster does not pin a relation-sized array for the life of the store.
const newCidsKeepCap = 256

// reuseScratch returns buf emptied for reuse, or nil when its capacity
// exceeds the newCidsKeepCap release rule for a batch of n changes.
func reuseScratch[T any](buf []T, n int) []T {
	if c := cap(buf); c > newCidsKeepCap && c > 4*n {
		return nil
	}
	return buf[:0]
}

// applyAttr applies the staged batch's deletes and inserts to attribute a:
// compaction of the touched clusters first, then appends for the inserts
// (insert ids exceed all existing ids, so appending after compaction keeps
// cluster id lists strictly ascending). The appends also rebuild the
// attribute's new-cluster list: a cluster joins it when its previous
// newest member predates the batch (is below st.from), which is true
// exactly once per cluster per batch. Compactions that empty a cluster
// and appends that create one record the batch's value delta.
func (s *Store) applyAttr(a int, st *stagedBatch) {
	if h := testApplyAttrHook.Load(); h != nil {
		(*h)(a)
	}
	ix := s.shards[a].ix
	deletes, inserts := st.deletes, st.inserts
	ix.deltaGen = ix.gen
	ix.born = reuseScratch(ix.born, len(inserts))
	ix.died = reuseScratch(ix.died, len(deletes))
	if len(deletes) > 0 {
		// Collect the touched cluster ids, dedupe, and compact each once.
		cids := ix.batchCids[:0]
		for _, id := range deletes {
			cids = append(cids, s.Rec(id)[a])
		}
		slices.Sort(cids)
		prev := int32(-1)
		for _, cid := range cids {
			if cid == prev {
				continue
			}
			prev = cid
			s.compactCluster(ix, cid)
		}
		ix.batchCids = cids[:0]
	}
	newCids := reuseScratch(ix.newCids, len(inserts))
	for _, ins := range inserts {
		cid, prevMax := ix.add(ins.Values[a], ins.ID)
		s.Rec(ins.ID)[a] = cid
		if prevMax < st.from {
			newCids = append(newCids, cid)
			if prevMax < 0 { // a cluster the insert created
				ix.born = append(ix.born, ins.Values[a])
			}
		}
	}
	ix.newCids, ix.newFrom, ix.newOK = newCids, st.from, true
	ix.deltaOK = true
}

// compactCluster removes all dead members of cluster cid in one in-place
// sweep, deleting the cluster (and its inverted-index entry) when it
// empties. Survivor order is preserved, so the strictly-ascending IDs
// invariant holds.
func (s *Store) compactCluster(ix *Index, cid int32) {
	c := ix.clusters[cid]
	kept := c.IDs[:0]
	for _, id := range c.IDs {
		if s.alive(id) {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		delete(ix.clusters, cid)
		delete(ix.inverted, c.Value)
		ix.gen++
		ix.died = append(ix.died, c.Value)
		return
	}
	c.IDs = kept
}

// Values reconstructs the original string tuple of a record from the
// cluster value dictionary.
func (s *Store) Values(id int64) ([]string, bool) {
	rec, ok := s.Record(id)
	if !ok {
		return nil, false
	}
	out := make([]string, s.numAttrs)
	for a, cid := range rec {
		c := s.shards[a].ix.Cluster(cid)
		if c == nil {
			return nil, false
		}
		out[a] = c.Value
	}
	return out, true
}

// Lookup returns the ids of all records whose values equal the given tuple,
// in ascending order. It is AppendLookup into a fresh slice; hot callers
// use AppendLookup with a reused buffer to avoid the allocation.
func (s *Store) Lookup(values []string) ([]int64, error) {
	out, err := s.AppendLookup(nil, values)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	return out, nil
}

// AppendLookup appends the ids of all records whose values equal the given
// tuple to dst, in ascending order, and returns the extended slice. It
// seeds the candidate set from the smallest matching cluster and filters it
// per attribute in place, so the cost is proportional to the smallest
// cluster and — given capacity in dst — the call performs no allocations.
// Like the other read accessors it is safe for concurrent readers: all
// working state lives in dst.
func (s *Store) AppendLookup(dst []int64, values []string) ([]int64, error) {
	if len(values) != s.numAttrs {
		return dst, fmt.Errorf("pli: lookup has %d values, schema has %d attributes",
			len(values), s.numAttrs)
	}
	smallest, smallestAttr := -1, -1
	for a, v := range values {
		cid, ok := s.shards[a].ix.ClusterOf(v)
		if !ok {
			return dst, nil
		}
		size := s.shards[a].ix.Cluster(cid).Size()
		if smallest < 0 || size < smallest {
			smallest, smallestAttr = size, a
		}
	}
	base := len(dst)
	dst = append(dst, s.shards[smallestAttr].ix.Cluster(mustCid(s.shards[smallestAttr].ix, values[smallestAttr])).IDs...)
	for a, v := range values {
		if a == smallestAttr {
			continue
		}
		cid, _ := s.shards[a].ix.ClusterOf(v)
		kept := dst[base:base]
		for _, id := range dst[base:] {
			if s.Rec(id)[a] == cid {
				kept = append(kept, id)
			}
		}
		dst = dst[:base+len(kept)]
		if len(kept) == 0 {
			break
		}
	}
	return dst, nil
}

// mustCid returns the cluster id of a value known to be present.
func mustCid(ix *Index, value string) int32 {
	cid, _ := ix.inverted[value]
	return cid
}

// checkNewClusters verifies a valid new-cluster list: it names exactly the
// clusters with MaxID >= newFrom, each once, ordered by the cluster's first
// member at or above newFrom.
func (ix *Index) checkNewClusters(a int) error {
	if !ix.newOK {
		return nil
	}
	seen := make(map[int32]bool, len(ix.newCids))
	prevFirst := int64(-1)
	for _, cid := range ix.newCids {
		if seen[cid] {
			return fmt.Errorf("pli: attr %d new-cluster list holds cluster %d twice", a, cid)
		}
		seen[cid] = true
		c := ix.clusters[cid]
		if c == nil || c.MaxID() < ix.newFrom {
			return fmt.Errorf("pli: attr %d new-cluster list holds cluster %d with no member >= %d", a, cid, ix.newFrom)
		}
		first := c.IDs[sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= ix.newFrom })]
		if first <= prevFirst {
			return fmt.Errorf("pli: attr %d new-cluster list not in first-new-member order at cluster %d", a, cid)
		}
		prevFirst = first
	}
	for cid, c := range ix.clusters {
		if c.MaxID() >= ix.newFrom && !seen[cid] {
			return fmt.Errorf("pli: attr %d new-cluster list misses cluster %d (member %d >= %d)", a, cid, c.MaxID(), ix.newFrom)
		}
	}
	return nil
}

// checkValueDelta verifies a valid value delta: it accounts for exactly the
// generations the last batch added, every born value is present, and every
// died value not born again in the same batch is absent.
func (ix *Index) checkValueDelta(a int) error {
	if !ix.deltaOK {
		return nil
	}
	if n := uint64(len(ix.born) + len(ix.died)); ix.gen-ix.deltaGen != n {
		return fmt.Errorf("pli: attr %d value delta has %d entries for %d generations", a, n, ix.gen-ix.deltaGen)
	}
	reborn := make(map[string]bool, len(ix.born))
	for _, v := range ix.born {
		if _, ok := ix.inverted[v]; !ok {
			return fmt.Errorf("pli: attr %d value delta: born value %q missing", a, v)
		}
		reborn[v] = true
	}
	for _, v := range ix.died {
		if _, ok := ix.inverted[v]; ok && !reborn[v] {
			return fmt.Errorf("pli: attr %d value delta: died value %q still present", a, v)
		}
	}
	return nil
}

// CheckConsistency verifies the cross-structure invariants: the arena's
// liveness bookkeeping (page counts, record total, id horizon, freed empty
// pages), the sharded layout (one shard per attribute, all shard epochs
// caught up to the finished-batch count — skew means a staged batch reached
// only some shards), every cluster is sorted, non-empty, inversely indexed,
// and contains exactly live records that point back at it, every valid
// new-cluster list names exactly the clusters the last batch grew (see
// NewClusters), every valid value delta matches the generations it spans
// and the current dictionary (see ValueDelta), and every live record
// appears in exactly the clusters its compressed record names. It is used
// by tests and failure-injection suites; it runs in O(data) time.
// A store with an open staged batch is mid-mutation by definition and is
// reported as inconsistent.
func (s *Store) CheckConsistency() error {
	if s.staged != nil {
		return fmt.Errorf("pli: staged batch open (Finish not called)")
	}
	if len(s.shards) != s.numAttrs {
		return fmt.Errorf("pli: %d shards for %d attributes", len(s.shards), s.numAttrs)
	}
	for a := range s.shards {
		if got := s.shards[a].epoch.Load(); got != s.batchEpoch {
			return fmt.Errorf("pli: shard %d epoch %d skewed from batch epoch %d (partially applied batch)",
				a, got, s.batchEpoch)
		}
	}
	// Arena invariants next: the cluster checks below resolve records
	// through the liveness bitmap.
	if len(s.pages) != len(s.live) || len(s.pages) != len(s.pageN) || len(s.pages) != len(s.liveShared) {
		return fmt.Errorf("pli: arena directory skewed: %d pages, %d bitmaps, %d counts, %d share flags",
			len(s.pages), len(s.live), len(s.pageN), len(s.liveShared))
	}
	total := 0
	for pg := range s.pages {
		if (s.pages[pg] == nil) != (s.live[pg] == nil) {
			return fmt.Errorf("pli: page %d slab/bitmap allocation mismatch", pg)
		}
		if s.pages[pg] == nil {
			if s.pageN[pg] != 0 {
				return fmt.Errorf("pli: freed page %d has live count %d", pg, s.pageN[pg])
			}
			continue
		}
		n := 0
		for w, word := range s.live[pg] {
			n += bits.OnesCount64(word)
			if word != 0 {
				top := int64(pg)<<pageBits + int64(w<<6+63-bits.LeadingZeros64(word))
				if top >= s.nextID {
					return fmt.Errorf("pli: record %d live beyond id horizon %d", top, s.nextID)
				}
			}
		}
		if n != s.pageN[pg] {
			return fmt.Errorf("pli: page %d live count %d, bitmap has %d", pg, s.pageN[pg], n)
		}
		if n == 0 {
			return fmt.Errorf("pli: empty page %d not freed", pg)
		}
		total += n
	}
	if total != s.numRecs {
		return fmt.Errorf("pli: record count %d, pages hold %d", s.numRecs, total)
	}
	for a := range s.shards {
		ix := s.shards[a].ix
		for cid, c := range ix.clusters {
			if c.Size() == 0 {
				return fmt.Errorf("pli: attr %d cluster %d is empty", a, cid)
			}
			if got, ok := ix.inverted[c.Value]; !ok || got != cid {
				return fmt.Errorf("pli: attr %d cluster %d value %q missing from inverted index", a, cid, c.Value)
			}
			for i, id := range c.IDs {
				if i > 0 && c.IDs[i-1] >= id {
					return fmt.Errorf("pli: attr %d cluster %d ids not strictly ascending", a, cid)
				}
				if !s.alive(id) {
					return fmt.Errorf("pli: attr %d cluster %d contains dangling record %d", a, cid, id)
				}
				if s.Rec(id)[a] != cid {
					return fmt.Errorf("pli: record %d attr %d points to cluster %d, found in %d", id, a, s.Rec(id)[a], cid)
				}
			}
		}
		if len(ix.inverted) != len(ix.clusters) {
			return fmt.Errorf("pli: attr %d inverted index size %d != clusters %d", a, len(ix.inverted), len(ix.clusters))
		}
		if err := ix.checkNewClusters(a); err != nil {
			return err
		}
		if err := ix.checkValueDelta(a); err != nil {
			return err
		}
	}
	var err error
	s.ForEachRecord(func(id int64, rec Record) bool {
		for a, cid := range rec {
			c := s.shards[a].ix.Cluster(cid)
			if c == nil || !c.Contains(id) {
				err = fmt.Errorf("pli: record %d missing from attr %d cluster %d", id, a, cid)
				return false
			}
		}
		return true
	})
	return err
}
