package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"dynfd"
	"dynfd/internal/datagen"
	"dynfd/internal/stream"
)

// workload is one traffic mix: a datagen history cut into batches, the
// write discipline, and whether a follower and a reader run beside it.
type workload struct {
	name      string
	dataset   string
	batchSize int
	// openLoop sends batch i at start + i/writeRate regardless of acks;
	// otherwise one writer sends the next batch when the previous acked.
	openLoop  bool
	writeRate float64 // offered batches per second (open loop)
	readRate  float64 // offered reads per second against the follower
	follower  bool
}

// workloads are the benchmark's traffic mixes. Their shapes and the reason
// each exists are recorded in perfbench/NOTES.md. claims-serve is not in
// BENCHMARK.json: its ack tail follows the host's load too closely for a
// regression bound (see NOTES.md).
var workloads = []workload{
	{
		name:      "single-insert",
		dataset:   "single",
		batchSize: 100,
	},
	{
		name:      "disease-update",
		dataset:   "disease",
		batchSize: 100,
	},
	{
		name:      "claims-serve",
		dataset:   "claims",
		batchSize: 25,
		openLoop:  true,
		// The history's 800 batches take 25 s, far below the ~100
		// batches/s knee where a backlog builds on 2 CPUs.
		writeRate: 32,
		// At 200 reads/s the reader's CPU made the ack p90 swing with
		// the host's load; 50 reads/s keeps reads beside every write.
		readRate: 50,
		follower: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run sends, built before any timing starts.
type inputs struct {
	profile datagen.Profile
	seed    int64
	columns []string
	initial [][]string
	batches [][]stream.Change
	bodies  [][]byte // the same batches as HTTP request bodies
	direct  [][]dynfd.Change
	// wantIDs[i] are the ids datagen assigned to batch i's inserts and
	// updates, in batch order: what the ack's inserted_ids must equal.
	wantIDs [][]int64
}

type changeJSON struct {
	Op     string   `json:"op"`
	ID     *int64   `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
}

// buildInputs generates the workload's history at the given scale. The
// datagen profile keeps its own seed, so every run sees the same FD
// landscape and history shape; the workload seed (when not negative)
// relabels every value through a seed-keyed injective map, so each seed
// sends different bytes with the same structure.
func buildInputs(w workload, seed int64, scale float64) (*inputs, error) {
	p, err := datagen.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	if scale != 1 {
		p = p.Scaled(scale)
	}
	d, err := datagen.Generate(p)
	if err != nil {
		return nil, err
	}
	if seed >= 0 {
		for i, r := range d.Relation.Rows {
			d.Relation.Rows[i] = relabel(seed, r)
		}
		for i, c := range d.Changes {
			if c.Values != nil {
				d.Changes[i].Values = relabel(seed, c.Values)
			}
		}
	}
	in := &inputs{profile: p, seed: seed, columns: d.Relation.Columns, initial: d.Relation.Rows}
	next := int64(len(in.initial))
	for _, b := range stream.FixedBatches(d.Changes, w.batchSize) {
		var (
			js   = make([]changeJSON, len(b.Changes))
			want []int64
		)
		for j, c := range b.Changes {
			id := c.ID
			switch c.Kind {
			case stream.Insert:
				js[j] = changeJSON{Op: "insert", Values: c.Values}
			case stream.Delete:
				js[j] = changeJSON{Op: "delete", ID: &id}
			case stream.Update:
				js[j] = changeJSON{Op: "update", ID: &id, Values: c.Values}
			}
			if c.Kind != stream.Delete {
				want = append(want, next)
				next++
			}
		}
		body, err := json.Marshal(struct {
			Changes []changeJSON `json:"changes"`
		}{js})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b.Changes)
		in.bodies = append(in.bodies, body)
		in.wantIDs = append(in.wantIDs, want)
	}
	return in, nil
}

// changes returns the batches as public API changes, for the entries that
// call the runtime and the durable monitor directly. They are built on
// first use, so the end-to-end run does not carry them.
func (in *inputs) changes() [][]dynfd.Change {
	if in.direct != nil {
		return in.direct
	}
	in.direct = make([][]dynfd.Change, len(in.batches))
	for i, b := range in.batches {
		dc := make([]dynfd.Change, len(b))
		for j, c := range b {
			switch c.Kind {
			case stream.Insert:
				dc[j] = dynfd.Insert(c.Values...)
			case stream.Delete:
				dc[j] = dynfd.Delete(c.ID)
			case stream.Update:
				dc[j] = dynfd.Update(c.ID, c.Values...)
			}
		}
		in.direct[i] = dc
	}
	return in.direct
}

// relabel returns a copy of row with each value v of column c replaced by
// an 8-hex-digit token of hash(seed, c, v) followed by v. The token has a
// fixed width, so the map is injective per column: equal values stay equal
// and distinct values stay distinct.
func relabel(seed int64, row []string) []string {
	out := make([]string, len(row))
	var buf [8]byte
	for c, v := range row {
		h := fnv.New32a()
		binary.LittleEndian.PutUint64(buf[:], uint64(seed))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
		h.Write([]byte(v))
		out[c] = fmt.Sprintf("%08x%s", h.Sum32(), v)
	}
	return out
}

// rowsAfter returns the relation after the first k batches, tracked
// independently of the service from the generator's history.
func (in *inputs) rowsAfter(k int) [][]string {
	live := make(map[int64][]string, len(in.initial))
	for i, r := range in.initial {
		live[int64(i)] = r
	}
	next := int64(len(in.initial))
	for _, b := range in.batches[:k] {
		for _, c := range b {
			if c.Kind != stream.Insert {
				delete(live, c.ID)
			}
			if c.Kind != stream.Delete {
				live[next] = c.Values
				next++
			}
		}
	}
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rows := make([][]string, len(ids))
	for i, id := range ids {
		rows[i] = live[id]
	}
	return rows
}

// changesIn counts the changes of the first k batches.
func (in *inputs) changesIn(k int) int {
	n := 0
	for _, b := range in.batches[:k] {
		n += len(b)
	}
	return n
}
