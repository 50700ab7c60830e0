package results_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/fd"
	"dynfd/internal/lattice"
	"dynfd/internal/pli"
	"dynfd/internal/results"
)

// dictChain drives results.Build over a bare pli.Store, so a test controls
// exactly which values each batch creates and removes. The cover is empty:
// only the value dictionaries (INDs, NumRecords) are under test here.
type dictChain struct {
	t     testing.TB
	attrs int
	cols  []string
	store *pli.Store
	cover *lattice.Cover
}

func newDictChain(t testing.TB, attrs int) *dictChain {
	cols := make([]string, attrs)
	for a := range cols {
		cols[a] = fmt.Sprintf("c%d", a)
	}
	return &dictChain{t: t, attrs: attrs, cols: cols, store: pli.NewStore(attrs), cover: lattice.New(attrs)}
}

func (c *dictChain) build(prev *results.Snapshot, seq uint64) *results.Snapshot {
	return results.Build(prev, seq, c.cols, c.store, c.cover, func() []fd.FD { return nil }, attrset.Set{})
}

// apply commits one batch and checks the store's invariants, including
// the value delta's.
func (c *dictChain) apply(deletes []int64, rows [][]string) {
	c.t.Helper()
	next := c.store.NextID()
	ins := make([]pli.BatchInsert, len(rows))
	for i, row := range rows {
		ins[i] = pli.BatchInsert{ID: next + int64(i), Values: row}
	}
	if err := c.store.ApplyBatch(deletes, ins, 0); err != nil {
		c.t.Fatal(err)
	}
	if err := c.store.CheckConsistency(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *dictChain) rows() [][]string {
	var rows [][]string
	c.store.ForEachRecord(func(id int64, _ pli.Record) bool {
		v, _ := c.store.Values(id)
		rows = append(rows, v)
		return true
	})
	return rows
}

func (c *dictChain) liveIDs() []int64 {
	var ids []int64
	c.store.ForEachRecord(func(id int64, _ pli.Record) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// check compares s against the oracle over the store's current rows and
// returns the expected IND listing.
func (c *dictChain) check(label string, s *results.Snapshot) []results.UnaryIND {
	c.t.Helper()
	rows := c.rows()
	if s.NumRecords() != len(rows) {
		c.t.Fatalf("%s: NumRecords %d, store %d", label, s.NumRecords(), len(rows))
	}
	want := bruteINDs(rows, c.attrs)
	if got := s.INDs(); !indsEqual(got, want) {
		c.t.Fatalf("%s: INDs diverged:\n snap %v\n want %v", label, got, want)
	}
	return want
}

// TestDictDeltaChainMatchesOracle streams batches over wide value domains,
// so snapshots extend their predecessor's dictionary log (the O(batch)
// publish path) and periodically rebase, and checks INDs against the
// value-set oracle at every sequence and again on retained old snapshots
// after the stream. Marker records force a value to die and be born
// again within one batch and across batches. It also covers the three
// fallbacks to a full capture: a second Build from the same predecessor,
// a single-record mutation between batches, and a predecessor from a
// foreign store.
func TestDictDeltaChainMatchesOracle(t *testing.T) {
	t.Parallel()
	const attrs, batches = 4, 150
	// Columns 0 and 3 share a 64-value domain (INDs between them come and
	// go); 1 and 2 are wider, so most of their values are singletons that
	// batches kill and create.
	domains := []int{64, 256, 1024, 64}
	r := rand.New(rand.NewSource(5))
	c := newDictChain(t, attrs)
	randRow := func() []string {
		row := make([]string, attrs)
		for a := range row {
			row[a] = fmt.Sprint(r.Intn(domains[a]))
		}
		return row
	}
	bulk := make([][]string, 400)
	for i := range bulk {
		bulk[i] = randRow()
	}
	c.apply(nil, bulk)
	snap := c.build(nil, 0)
	c.check("bootstrap", snap)

	type retained struct {
		s    *results.Snapshot
		want []results.UnaryIND
	}
	var kept []retained
	var deltas, rebases, reborn, rebornAcross int
	marker := int64(-1) // id of the live marker record, -1 when none
	var markerRow []string
	for b := 1; b <= batches; b++ {
		var deletes []int64
		var rows [][]string
		live := c.liveIDs()
		seen := map[int64]bool{}
		for k := r.Intn(4); k > 0; k-- {
			id := live[r.Intn(len(live))]
			if !seen[id] && id != marker {
				seen[id] = true
				deletes = append(deletes, id)
			}
		}
		for k := r.Intn(4); k > 0; k-- {
			rows = append(rows, randRow())
		}
		// The marker cycle, every 10 batches: a row of fresh values is born,
		// dies and is born again in one batch, dies, and is born again in a
		// later batch.
		markerAt, event := -1, ""
		switch phase := b % 10; {
		case phase == 1 && markerRow == nil:
			markerRow = []string{fmt.Sprint("m", b), fmt.Sprint("m", b), fmt.Sprint("m", b), fmt.Sprint("m", b)}
			markerAt, rows = len(rows), append(rows, markerRow)
		case phase == 3 && marker >= 0:
			deletes = append(deletes, marker)
			markerAt, rows = len(rows), append(rows, markerRow)
			event = "reborn"
		case phase == 5 && marker >= 0:
			deletes = append(deletes, marker)
			marker = -1
		case phase == 7 && marker < 0 && markerRow != nil:
			markerAt, rows = len(rows), append(rows, markerRow)
			event = "across"
		}
		next := c.store.NextID()
		c.apply(deletes, rows)
		if markerAt >= 0 {
			marker = next + int64(markerAt)
		}

		prev := snap
		snap = c.build(prev, uint64(b))
		want := c.check(fmt.Sprint("seq ", b), snap)
		for a := 0; a < attrs; a++ {
			n, log := results.DictLog(snap, a)
			_, prevLog := results.DictLog(prev, a)
			switch {
			case n > 0 && log == prevLog:
				deltas++
				switch {
				case a != 2:
				case event == "reborn":
					reborn++
				case event == "across":
					rebornAcross++
				}
			case log != prevLog:
				rebases++
			}
		}
		if b%15 == 0 {
			kept = append(kept, retained{snap, want})
		}
	}
	t.Logf("%d delta builds, %d full captures, %d/%d marker rebirths on the delta path", deltas, rebases, reborn, rebornAcross)
	if deltas < 100 || rebases < 5 {
		t.Errorf("stream took %d delta builds and %d full captures, want >= 100 and >= 5", deltas, rebases)
	}
	if reborn == 0 || rebornAcross == 0 {
		t.Errorf("marker rebirths on the delta path: %d within a batch, %d across batches, want both > 0", reborn, rebornAcross)
	}
	// The newest retained snapshot is still the chain's predecessor, so it
	// is not re-materialized.
	for _, k := range kept[:len(kept)-1] {
		results.Rematerialize(k.s)
		if got := k.s.INDs(); !indsEqual(got, k.want) {
			t.Fatalf("retained seq %d: INDs diverged after the stream:\n snap %v\n want %v", k.s.Seq(), got, k.want)
		}
	}

	// Two Builds from the same predecessor: the first extends the log,
	// the second takes a full capture; the chain then continues from the
	// second, and the first stays exact.
	c.apply([]int64{c.liveIDs()[0]}, [][]string{{"t0", "t1", "t2", "t3"}})
	first := c.build(snap, batches+1)
	firstWant := c.check("first successor", first)
	second := c.build(snap, batches+1)
	c.check("second successor", second)
	for a := 0; a < attrs; a++ {
		n1, log1 := results.DictLog(first, a)
		n2, log2 := results.DictLog(second, a)
		if n1 > 0 && (n2 != 0 || log2 == log1) {
			t.Errorf("attr %d: second successor shares the first's log (%d/%d logged)", a, n1, n2)
		}
	}
	snap = second
	for b := 0; b < 5; b++ {
		c.apply([]int64{c.liveIDs()[0]}, [][]string{{fmt.Sprint("u", b), "t1", fmt.Sprint("u", b), "0"}})
		snap = c.build(snap, uint64(batches+2+b))
		c.check(fmt.Sprint("after second successor ", b), snap)
	}
	results.Rematerialize(first)
	if got := first.INDs(); !indsEqual(got, firstWant) {
		t.Fatalf("first successor corrupted:\n snap %v\n want %v", got, firstWant)
	}

	// A single-record mutation between batches invalidates the delta: full
	// capture, still exact.
	if _, err := c.store.Insert([]string{"s0", "s1", "s2", "s3"}); err != nil {
		t.Fatal(err)
	}
	if err := c.store.Delete(c.liveIDs()[0]); err != nil {
		t.Fatal(err)
	}
	single := c.build(snap, batches+10)
	c.check("after single-record mutations", single)
	for a := 0; a < attrs; a++ {
		n, log := results.DictLog(single, a)
		if _, prevLog := results.DictLog(snap, a); n != 0 || log == prevLog {
			t.Errorf("attr %d: extended the predecessor's log (%d logged) across single-record mutations", a, n)
		}
	}

	// A predecessor from a foreign store is never extended: full capture,
	// exact, and the predecessor's own chain still extends its log.
	other := newDictChain(t, attrs)
	other.apply(nil, [][]string{{"x", "y", "z", "w"}})
	foreign := other.build(single, 1)
	other.check("foreign predecessor", foreign)
	c.apply(nil, [][]string{{"f0", "f1", "f2", "f3"}})
	snap = c.build(single, batches+11)
	c.check("after foreign build", snap)
	n, log := results.DictLog(snap, 1)
	if _, prevLog := results.DictLog(single, 1); n == 0 || log != prevLog {
		t.Errorf("after a foreign build: attr 1 took a full capture, want its log extended")
	}
}
