package results_test

import (
	"fmt"
	"runtime"
	"testing"

	"dynfd/internal/pli"
)

// benchSnapshotBuild publishes one batch per op over a store of rows
// records whose every value is distinct: each batch deletes the 100
// oldest records and inserts 100 records of fresh values, so every
// attribute's dictionary loses and gains 100 values while the relation
// stays at rows records. Besides the usual columns it reports
// publish-B/op, the bytes allocated by Build alone.
func benchSnapshotBuild(b *testing.B, rows int) {
	const attrs, batch = 4, 100
	c := newDictChain(b, attrs)
	row := func(i int) []string {
		v := make([]string, attrs)
		for a := range v {
			v[a] = fmt.Sprintf("%d/%d", a, i)
		}
		return v
	}
	bulk := make([]pli.BatchInsert, rows)
	for i := range bulk {
		bulk[i] = pli.BatchInsert{ID: int64(i), Values: row(i)}
	}
	if err := c.store.ApplyBatch(nil, bulk, 0); err != nil {
		b.Fatal(err)
	}
	snap := c.build(nil, 0)
	deletes := make([]int64, batch)
	ins := make([]pli.BatchInsert, batch)
	var ms runtime.MemStats
	var publish uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := c.store.NextID()
		for k := range ins {
			deletes[k] = next - int64(rows) + int64(k)
			ins[k] = pli.BatchInsert{ID: next + int64(k), Values: row(int(next) + k)}
		}
		if err := c.store.ApplyBatch(deletes, ins, 0); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		snap = c.build(snap, uint64(i+1))
		runtime.ReadMemStats(&ms)
		publish += ms.TotalAlloc - before
	}
	b.ReportMetric(float64(publish)/float64(b.N), "publish-B/op")
	if snap.NumRecords() != rows {
		b.Fatalf("store drifted to %d records, want %d", snap.NumRecords(), rows)
	}
}

// BenchmarkSnapshotBuild times one batch's structural maintenance plus
// its snapshot publish at two relation sizes. Publishing extends each
// dictionary's log by the batch's values (with a periodic rebase), so
// publish-B/op should not grow with the relation;
// TestSnapshotBuildBytesFlat pins that.
func BenchmarkSnapshotBuild(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) { benchSnapshotBuild(b, rows) })
	}
}

// TestSnapshotBuildBytesFlat is the regression pin for the O(batch)
// dictionary publish: the bytes Build allocates per published batch at
// 100k records stay within 1.5x of those at 10k. Re-capturing every
// changed dictionary in full makes the ratio ~10x. (The maintenance half
// of the op is left out: its map growth under churn is not publish cost.)
func TestSnapshotBuildBytesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two benchmarks")
	}
	small := testing.Benchmark(func(b *testing.B) { benchSnapshotBuild(b, 10_000) })
	large := testing.Benchmark(func(b *testing.B) { benchSnapshotBuild(b, 100_000) })
	s, l := small.Extra["publish-B/op"], large.Extra["publish-B/op"]
	t.Logf("publish-B/op: %.0f at 10k records (N=%d), %.0f at 100k records (N=%d)", s, small.N, l, large.N)
	if s <= 0 || l > 1.5*s {
		t.Errorf("publish-B/op at 100k records = %.0f, more than 1.5x the %.0f at 10k", l, s)
	}
}
