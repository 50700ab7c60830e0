package validate

import (
	"fmt"
	"testing"

	"dynfd/internal/attrset"
	"dynfd/internal/pli"
)

func benchStore(b *testing.B, rows, attrs, domain int) *pli.Store {
	b.Helper()
	s := pli.NewStore(attrs)
	row := make([]string, attrs)
	for i := 0; i < rows; i++ {
		for a := range row {
			row[a] = fmt.Sprint((i*(a+13) + a) % domain)
		}
		if _, err := s.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkFDValidation measures full candidate validation (the static /
// delete-side cost).
func BenchmarkFDValidation(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	lhs := attrset.Of(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FD(s, lhs, 2, NoPruning)
	}
}

// BenchmarkValidateFD measures the kernel with a warm caller-owned Scratch
// — the steady-state shape of every hot path (worker slots in Fan, the
// engine's serial slot). Sub-benchmarks cover the three kernel
// specializations: rest width 0 (direct probe), 1 (single cluster id) and
// ≥2 (flattened tuples). All must report 0 allocs/op; alloc_test.go pins
// that, this benchmark tracks the cycle cost.
func BenchmarkValidateFD(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	for _, bc := range []struct {
		name string
		lhs  attrset.Set
	}{
		{"rest0", attrset.Of(0)},
		{"rest1", attrset.Of(0, 1)},
		{"rest3", attrset.Of(0, 1, 3, 4)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := NewScratch()
			sc.FD(s, bc.lhs, 2, NoPruning) // warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.FD(s, bc.lhs, 2, NoPruning)
			}
		})
	}
}

// prunedStore bulk-loads members rows per pivot cluster and then applies
// one ApplyBatch of k rows drawn from the same generator, returning the
// store and the batch's pre-batch horizon. Attribute 0 is the
// high-cardinality pivot (clusters distinct values), attribute 1 has 50
// values, and attribute 2 is a function of both, so {0,1} -> 2 holds and a
// validation must check every pivot cluster the batch touched.
func prunedStore(b *testing.B, clusters, members, k int) (*pli.Store, int64) {
	b.Helper()
	const attrs = 8
	row := func(i int) []string {
		r := make([]string, attrs)
		r[0] = fmt.Sprint(i % clusters)
		r[1] = fmt.Sprint(i % 50)
		r[2] = fmt.Sprint((i%clusters)*50 + i%50)
		for a := 3; a < attrs; a++ {
			r[a] = fmt.Sprint((i*(a+13) + a) % 50)
		}
		return r
	}
	n := members * clusters
	ins := make([]pli.BatchInsert, n)
	for i := range ins {
		ins[i] = pli.BatchInsert{ID: int64(i), Values: row(i)}
	}
	s := pli.NewStore(attrs)
	if err := s.ApplyBatch(nil, ins, 0); err != nil {
		b.Fatal(err)
	}
	from := s.NextID()
	ins = ins[:k]
	for j := range ins {
		// Stride through the pivot domain so the k rows land in k
		// distinct, pre-existing pivot clusters.
		i := n + j*(clusters/k)
		ins[j] = pli.BatchInsert{ID: from + int64(j), Values: row(i)}
	}
	if err := s.ApplyBatch(nil, ins, 0); err != nil {
		b.Fatal(err)
	}
	return s, from
}

// BenchmarkFDValidationClusterPruned measures the insert-side validation
// with cluster pruning after one batch of inserts — the steady state paper
// §4.2 targets. The clusters= cases apply 100 inserts over 1k and 10k
// pivot clusters of 4 records: the pruned validation walks only the pivot
// clusters the batch touched, so its cost must stay flat; the full
// (unpruned) validation of the same candidate grows with the relation and
// is the reference the pruning is measured against. The members= cases
// sweep the size of the touched pivot clusters (16, 256 and 4096 records,
// 64k records in all) with one new record in each of 16 of them: the
// new-tail path compares that record against the old members only until
// the first equal rest tuple, so its cost must not grow with the cluster
// as the table kernels' did (DESIGN.md §18).
func BenchmarkFDValidationClusterPruned(b *testing.B) {
	lhs := attrset.Of(0, 1)
	type mode struct {
		name     string
		minNewID int64
	}
	run := func(name string, s *pli.Store, minNewID int64) {
		b.Run(name, func(b *testing.B) {
			sc := NewScratch()
			if ok, _ := sc.FD(s, lhs, 2, minNewID); !ok {
				b.Fatal("benchmark FD must hold")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.FD(s, lhs, 2, minNewID)
			}
		})
	}
	for _, clusters := range []int{1000, 10000} {
		s, from := prunedStore(b, clusters, 4, 100)
		for _, m := range []mode{{"pruned", from}, {"full", NoPruning}} {
			run(fmt.Sprintf("clusters=%d/%s", clusters, m.name), s, m.minNewID)
		}
	}
	for _, members := range []int{16, 256, 4096} {
		s, from := prunedStore(b, 65536/members, members, 16)
		run(fmt.Sprintf("members=%d/pruned", members), s, from)
	}
}

func BenchmarkUniqueValidation(b *testing.B) {
	s := benchStore(b, 5000, 8, 50)
	cols := attrset.Of(0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Unique(s, cols, NoPruning)
	}
}

func BenchmarkAgreeSet(b *testing.B) {
	s := benchStore(b, 2, 64, 3)
	r0, _ := s.Record(0)
	r1, _ := s.Record(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AgreeSet(r0, r1)
	}
}
