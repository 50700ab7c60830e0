package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"dynfd"
	"dynfd/internal/core"
	"dynfd/internal/dataset"
	"dynfd/internal/durable"
	"dynfd/internal/repl"
	"dynfd/internal/results"
	"dynfd/internal/stream"
)

// The traced run replays the same k batches once per layer entry, each on
// a fresh instance. A layer's self time on batch i is its entry's span
// minus the next entry inward's span on the same batch, which holds
// because batch i does the same work at every entry.

// pacer spaces an open-loop workload's calls on the write schedule; a
// closed-loop workload's calls run back to back.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(w workload) pacer {
	p := pacer{start: time.Now()}
	if w.openLoop {
		p.interval = time.Duration(float64(time.Second) / w.writeRate)
	}
	return p
}

func (p pacer) wait(i int) {
	if p.interval > 0 {
		waitUntil(p.start.Add(time.Duration(i) * p.interval))
	}
}

// waitUntil returns at t. It sleeps until shortly before t and yields in
// a loop for the rest, because a timer wakes up to a millisecond late,
// and an open-loop ack is timed from its due time.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		goruntime.Gosched()
	}
}

type durableOut struct {
	stats           dynfd.Stats // deltas over the k batches
	walSyncs        int
	walSync         time.Duration
	checkpointBytes int64
	diskBytes       int64
	records         int
	fds             fdSet
}

// durableEntry replays the batches through DurableMonitor.ApplyStaged and
// Commit.Wait, configured as the runtime configures a tenant engine, then
// checkpoints the final state once.
func durableEntry(w workload, in *inputs, k int, dir string, tr *tracer) (*durableOut, error) {
	opts := []dynfd.Option{dynfd.WithWorkers(workers()), dynfd.WithCheckpointEvery(durable.DefaultCheckpointEvery)}
	if w.follower {
		opts = append(opts, dynfd.WithChangeFeed(repl.NewFeed(0, 0)))
	}
	mon, err := dynfd.OpenDurable(dir, in.columns, opts...)
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	if err := mon.Bootstrap(in.initial); err != nil {
		return nil, err
	}
	changes := in.changes()
	st0, ws0 := mon.Stats(), mon.WALStats()
	p := newPacer(w)
	for i := 0; i < k; i++ {
		p.wait(i)
		t0 := time.Now()
		diff, commit, err := mon.ApplyStaged(changes[i]...)
		t1 := time.Now()
		if err == nil {
			err = commit.Wait()
		}
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("durable batch %d: %w", i, err)
		}
		tr.add("durable.stage", -1, i, t0, t1)
		tr.add("durable.wait", -1, i, t1, t2)
		if err := checkIDs(in.wantIDs[i], diff.InsertedIDs); err != nil {
			return nil, fmt.Errorf("durable batch %d: %w", i, err)
		}
	}
	st1, ws1 := mon.Stats(), mon.WALStats()
	out := &durableOut{
		stats:    statsDelta(st0, st1),
		walSyncs: ws1.Syncs - ws0.Syncs,
		walSync:  ws1.SyncTime - ws0.SyncTime,
		records:  mon.NumRecords(),
		fds:      toSet(mon.FDs()),
	}
	t0 := time.Now()
	if err := mon.Checkpoint(); err != nil {
		return nil, err
	}
	tr.add("durable.checkpoint", -1, -1, t0, time.Now())
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out.diskBytes += info.Size()
		if d.Name() == "checkpoint.json" {
			out.checkpointBytes = info.Size()
		}
		return nil
	})
	return out, err
}

func statsDelta(a, b dynfd.Stats) dynfd.Stats {
	return dynfd.Stats{
		Batches:                b.Batches - a.Batches,
		Validations:            b.Validations - a.Validations,
		SkippedValidations:     b.SkippedValidations - a.SkippedValidations,
		Comparisons:            b.Comparisons - a.Comparisons,
		DepthFirstSearchRuns:   b.DepthFirstSearchRuns - a.DepthFirstSearchRuns,
		DeltaPruned:            b.DeltaPruned - a.DeltaPruned,
		WitnessRepairs:         b.WitnessRepairs - a.WitnessRepairs,
		ChunksStolen:           b.ChunksStolen - a.ChunksStolen,
		SpeculativeValidations: b.SpeculativeValidations - a.SpeculativeValidations,
		SpeculativeHits:        b.SpeculativeHits - a.SpeculativeHits,
		FDsAdded:               b.FDsAdded - a.FDsAdded,
		FDsRemoved:             b.FDsRemoved - a.FDsRemoved,
		StructureTime:          b.StructureTime - a.StructureTime,
		DeletePhaseTime:        b.DeletePhaseTime - a.DeletePhaseTime,
		InsertPhaseTime:        b.InsertPhaseTime - a.InsertPhaseTime,
	}
}

type coreOut struct {
	applyAlloc, buildAlloc uint64
	gcShare                float64
	fds                    fdSet
}

// coreEntry replays the batches on an in-memory core.Engine, building the
// result snapshot after each batch as the durable layer does.
func coreEntry(w workload, in *inputs, k int, tr *tracer) (*coreOut, error) {
	rel := dataset.New("relation", in.columns)
	for _, r := range in.initial {
		if err := rel.Append(r); err != nil {
			return nil, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers()
	eng, err := core.Bootstrap(rel, cfg)
	if err != nil {
		return nil, err
	}
	var snap *results.Snapshot = eng.BuildResults(nil, 0, in.columns, nil, nil)
	out := &coreOut{}
	cpu0 := cpuClasses()
	p := newPacer(w)
	for i := 0; i < k; i++ {
		p.wait(i)
		a0 := heapAllocs()
		t0 := time.Now()
		res, err := eng.ApplyBatch(stream.Batch{Changes: in.batches[i]})
		t1 := time.Now()
		a1 := heapAllocs()
		if err != nil {
			return nil, fmt.Errorf("core batch %d: %w", i, err)
		}
		t2 := time.Now()
		snap = eng.BuildResults(snap, uint64(i+1), in.columns, res.Added, res.Removed)
		t3 := time.Now()
		a2 := heapAllocs()
		tr.add("core.apply_batch", -1, i, t0, t1)
		tr.add("results.build", -1, i, t2, t3)
		out.applyAlloc += a1 - a0
		out.buildAlloc += a2 - a1
		if err := checkIDs(in.wantIDs[i], res.InsertedIDs); err != nil {
			return nil, fmt.Errorf("core batch %d: %w", i, err)
		}
	}
	cpu1 := cpuClasses()
	out.gcShare = ratio(cpu1.gc-cpu0.gc, cpu1.busy()-cpu0.busy())
	out.fds = make(fdSet)
	for _, f := range eng.FDs() {
		out.fds[fdKey(f.Lhs.Slice(), f.Rhs)] = true
	}
	return out, nil
}

type cpuSample struct{ gc, total, idle float64 }

func (c cpuSample) busy() float64 { return c.total - c.idle }

func cpuClasses() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

type replOut struct {
	installs    int
	primarySeq  uint64
	followerFDs fdSet
	replicaFDs  fdSet
}

// replEntry replays the batches into a primary runtime with a follower,
// timing each ack until the follower's snapshot carries it and probing
// the follower's read path after every batch; then it feeds the same WAL
// payloads to a standalone replica through ApplyReplicated.
func replEntry(w workload, in *inputs, k int, dir string, tr *tracer) (*replOut, error) {
	svc, _, err := openService(filepath.Join(dir, "cluster"), in, true, tr, wrapper(tr))
	if err != nil {
		return nil, err
	}
	defer svc.close()
	var (
		blob    []byte
		blobSeq uint64
	)
	err = svc.rt.View(tenant, func(m *dynfd.DurableMonitor) error {
		var err error
		blob, blobSeq, err = m.CheckpointBlob(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, k)
	for i := range payloads {
		var buf bytes.Buffer
		if err := stream.WriteChanges(&buf, in.batches[i]); err != nil {
			return nil, err
		}
		payloads[i] = buf.Bytes()
	}
	reader := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer reader.CloseIdleConnections()
	urls := readQueries(svc.fapi.url, in.columns)
	a, b := in.columns[1], in.columns[len(in.columns)-1]

	changes := in.changes()
	installs0 := svc.followerLog.count()
	p := newPacer(w)
	var seq uint64
	for i := 0; i < k; i++ {
		p.wait(i)
		r, err := svc.rt.Apply(tenant, changes[i])
		acked := time.Now()
		if err != nil {
			return nil, fmt.Errorf("repl batch %d: %w", i, err)
		}
		if err := checkIDs(in.wantIDs[i], r.InsertedIDs); err != nil {
			return nil, fmt.Errorf("repl batch %d: %w", i, err)
		}
		seq = r.Seq
		for {
			snap, _, err := svc.frt.Snapshot(tenant)
			if err != nil {
				return nil, fmt.Errorf("follower: %w", err)
			}
			if snap.Seq() >= seq {
				break
			}
			if time.Since(acked) > 30*time.Second {
				return nil, fmt.Errorf("follower did not reach seq %d", seq)
			}
			goruntime.Gosched() // leave the CPUs to the follower's apply
		}
		tr.add("repl.visible", -1, i, acked, time.Now())

		// Read probe on the snapshot that just became visible. Direct
		// queries and HTTP reads alternate between batches so each
		// meets a snapshot whose memoized answers are still cold.
		t0 := time.Now()
		snap, _, err := svc.frt.Snapshot(tenant)
		tr.add("runtime.snapshot", -1, i, t0, time.Now())
		if err != nil {
			return nil, err
		}
		if i%2 == 0 {
			t0 = time.Now()
			snap.FDs()
			t1 := time.Now()
			_, err1 := snap.Unique([]string{a, b})
			t2 := time.Now()
			_, _, err2 := snap.Violations([]string{a}, b, 10)
			t3 := time.Now()
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("follower queries: %v %v", err1, err2)
			}
			tr.add("results.fds", -1, i, t0, t1)
			tr.add("results.unique", -1, i, t1, t2)
			tr.add("results.violations", -1, i, t2, t3)
			continue
		}
		for _, u := range urls {
			req, err := http.NewRequest(http.MethodGet, u, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("X-Bench-Batch", strconv.Itoa(i))
			resp, err := reader.Do(req)
			if err != nil {
				return nil, err
			}
			_, err = bytes.NewBuffer(nil).ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("follower read %s: status %d, %v", u, resp.StatusCode, err)
			}
		}
	}
	out := &replOut{installs: svc.followerLog.count() - installs0}
	if st, ok := svc.frt.ReplStatus(tenant); ok {
		out.primarySeq = st.PrimarySeq
	}
	if out.primarySeq != seq {
		return nil, fmt.Errorf("follower status reports primary seq %d, primary acked %d", out.primarySeq, seq)
	}
	snap, _, err := svc.frt.Snapshot(tenant)
	if err != nil {
		return nil, err
	}
	out.followerFDs = toSet(snap.FDs())

	rdir := filepath.Join(dir, "replica")
	if err := dynfd.SeedReplica(rdir, blob); err != nil {
		return nil, err
	}
	rep, err := dynfd.OpenDurable(rdir, nil, dynfd.WithWorkers(workers()), dynfd.WithCheckpointEvery(durable.DefaultCheckpointEvery))
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	p = newPacer(w)
	for i := 0; i < k; i++ {
		p.wait(i)
		t0 := time.Now()
		if err := rep.ApplyReplicated(blobSeq+uint64(i)+1, payloads[i]); err != nil {
			return nil, fmt.Errorf("replica batch %d: %w", i, err)
		}
		tr.add("repl.apply", -1, i, t0, time.Now())
	}
	out.replicaFDs = toSet(rep.FDs())
	return out, os.RemoveAll(rdir)
}

// hyfdEntry times static discovery over the initial rows, n times.
func hyfdEntry(in *inputs, n int, tr *tracer) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := dynfd.Discover(in.columns, in.initial, dynfd.AlgorithmHyFD); err != nil {
			return err
		}
		tr.add("hyfd.discover", -1, -1, t0, time.Now())
	}
	return nil
}
