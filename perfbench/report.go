package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ackLatencies are the successful writes' latencies in ms: from the due
// time in an open loop, the client round trip in a closed one.
func ackLatencies(w workload, acks []ack) []float64 {
	var out []float64
	for _, a := range acks {
		if a.err == nil && a.status == http.StatusOK {
			from := a.sent
			if w.openLoop {
				from = a.due
			}
			out = append(out, ms(a.done.Sub(from)))
		}
	}
	return out
}

// followerLag is, per acked seq s, the time from the primary's ack to the
// first follower read response carrying seq >= s, in ms.
func followerLag(acks []ack, reads []read) []float64 {
	var out []float64
	j := 0
	for _, a := range acks {
		if a.err != nil || a.status != http.StatusOK {
			continue
		}
		for j < len(reads) && (reads[j].err != nil || reads[j].status != http.StatusOK || reads[j].seq < a.seq) {
			j++
		}
		if j == len(reads) {
			break
		}
		lag := ms(reads[j].done.Sub(a.done))
		if lag < 0 {
			lag = 0 // the follower served s before the client had read its ack
		}
		out = append(out, lag)
	}
	return out
}

// addPercentiles reports the median and p90 of xs under name_p50/_p90.
func (r *report) addPercentiles(name string, xs []float64, unit string) {
	for _, p := range []float64{50, 90} {
		v, n := percentile(xs, p)
		r.add(fmt.Sprintf("%s_p%d_%s", name, int(p), unit), v, unit, n)
	}
}

// checkWrites counts a run's attempted and failed operations and records
// wrong acks as output check failures.
func checkWrites(rep *report, label string, in *inputs, res *e2eResult) {
	for _, p := range res.passes {
		failed, mismatch := checkAcks(p.acks, in, p.baseSeq)
		if mismatch != nil {
			rep.fail("%s, tenant %s: %v", label, p.tenant, mismatch)
		}
		if ok := uint64(len(p.acks) - failed); p.tenantBatches != ok {
			rep.fail("%s, tenant %s: runtime metrics count %d batches, the client saw %d acks", label, p.tenant, p.tenantBatches, ok)
		}
		rep.attempted += len(p.acks)
		rep.failed += failed
	}
	if res.followerErr != nil {
		rep.fail("%s: %v", label, res.followerErr)
	}
	rep.attempted += len(res.reads)
	for _, rd := range res.reads {
		if rd.err != nil || rd.status != http.StatusOK {
			rep.failed++
		}
	}
}

// checkFinal compares each pass's final FDs with static discovery over
// the relation the generator tracks. It runs outside every timed window.
func checkFinal(rep *report, in *inputs, res *e2eResult) error {
	want := map[int]fdSet{}
	for _, p := range res.passes {
		k := len(p.acks)
		if want[k] == nil {
			fds, err := staticFDs(in.columns, in.rowsAfter(k))
			if err != nil {
				return err
			}
			want[k] = fds
		}
		if err := diffFDs(want[k], p.fds); err != nil {
			rep.fail("tenant %s: final /fds against HyFD: %v", p.tenant, err)
		}
	}
	return nil
}

// lastFDs is the final FD set of the run's last pass.
func (r *e2eResult) lastFDs() fdSet { return r.passes[len(r.passes)-1].fds }

// runUntraced is the end-to-end run: HTTP only, no spans, whole passes
// of the history until the window is used.
func runUntraced(cfg config, in *inputs, dir string, rep *report) error {
	w := cfg.workload
	res, err := runE2E(w, in, e2eOpts{seconds: cfg.seconds, passes: true, setups: cfg.setups, setupSeconds: cfg.setupSeconds, entry: viaHTTP, dir: dir})
	if err != nil {
		return err
	}
	checkWrites(rep, "write", in, res)
	if err := checkFinal(rep, in, res); err != nil {
		return err
	}
	acks := res.acks()
	changes := 0
	for _, p := range res.passes {
		for i, a := range p.acks {
			if a.err == nil && a.status == http.StatusOK {
				changes += len(in.batches[i])
			}
		}
	}
	rep.add("setup_s", median(res.setupS), "s", len(res.setupS))
	rep.add("changes_per_s", float64(changes)/res.active.Seconds(), "1/s", 0)
	rep.addPercentiles("ack", ackLatencies(w, acks), "ms")
	rep.add("alloc_kb_per_change", ratio(float64(res.allocBytes)/1024, float64(changes)), "KiB", 0)
	rep.add("heap_live_mb", float64(res.heapLive)/(1<<20), "MiB", 0)
	if w.readRate > 0 {
		var lat []float64
		for _, rd := range res.reads {
			if rd.err == nil && rd.status == http.StatusOK {
				lat = append(lat, ms(rd.done.Sub(rd.due)))
			}
		}
		rep.addPercentiles("read", lat, "ms")
		rep.addPercentiles("follower_lag", followerLag(acks, res.reads), "ms")
	}
	rep.add("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "-", 0)
	rep.notes = append(rep.notes, fmt.Sprintf("%d passes of the history, %d batches, %.2f s of write time",
		len(res.passes), len(acks), res.active.Seconds()),
		fmt.Sprintf("%d set-ups, %.4f-%.4f s", len(res.setupS), slices.Min(res.setupS), slices.Max(res.setupS)))
	return nil
}

// runTraced is the per-layer run. Pass A is one untraced HTTP pass over a
// quarter of the window, which keeps the seven passes within the time a
// run may take: it fixes the batch count k and is the untraced reference
// for the tracing overhead. Every later pass replays exactly
// those k batches through one entry point, traced, on a fresh instance.
func runTraced(cfg config, in *inputs, dir string, rep *report) error {
	w := cfg.workload
	tr := newTracer()
	resA, err := runE2E(w, in, e2eOpts{seconds: cfg.seconds / 4, setups: 1, entry: viaHTTP, dir: filepath.Join(dir, "a")})
	if err != nil {
		return err
	}
	k := len(resA.acks())
	checkWrites(rep, "untraced", in, resA)
	if err := checkFinal(rep, in, resA); err != nil {
		return err
	}
	resB, err := runE2E(w, in, e2eOpts{batches: k, setups: 3, entry: viaHTTP, tr: tr, dir: filepath.Join(dir, "b")})
	if err != nil {
		return err
	}
	resC, err := runE2E(w, in, e2eOpts{batches: k, setups: 1, entry: viaRuntime, tr: tr, dir: filepath.Join(dir, "c")})
	if err != nil {
		return err
	}
	for label, res := range map[string]*e2eResult{"http entry": resB, "runtime entry": resC} {
		checkWrites(rep, label, in, res)
		if err := diffFDs(resA.lastFDs(), res.lastFDs()); err != nil {
			rep.fail("%s: %v", label, err)
		}
	}
	dur, err := durableEntry(w, in, k, filepath.Join(dir, "d"), tr)
	if err != nil {
		return err
	}
	cor, err := coreEntry(w, in, k, tr)
	if err != nil {
		return err
	}
	rpl, err := replEntry(w, in, k, filepath.Join(dir, "f"), tr)
	if err != nil {
		return err
	}
	if err := hyfdEntry(in, 3, tr); err != nil {
		return err
	}
	for label, fds := range map[string]fdSet{"durable entry": dur.fds, "core entry": cor.fds,
		"follower": rpl.followerFDs, "replica": rpl.replicaFDs} {
		if err := diffFDs(resA.lastFDs(), fds); err != nil {
			rep.fail("%s: %v", label, err)
		}
	}
	rep.attempted += 4 * k // durable, core, follower and replica batches, checked above
	spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, in.seed))
	if err := tr.write(spans); err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d batches per entry; spans written to %s", k, spans))
	layerMetrics(rep, w, in, k, tr, resA, resB, dur, cor, rpl)
	return nil
}

func layerMetrics(rep *report, w workload, in *inputs, k int, tr *tracer,
	resA, resB *e2eResult, dur *durableOut, cor *coreOut, rpl *replOut) {
	b := func(name string) []float64 { return tr.perBatch(name, k) }
	med := func(name string) float64 { return median(tr.durations(name)) }
	post, serve, apply := b("client.post"), b("httpapi.serve"), b("runtime.apply")
	stage, wait := b("durable.stage"), b("durable.wait")
	apb, build := b("core.apply_batch"), b("results.build")
	vis, rapply := b("repl.visible"), b("repl.apply")
	kf := float64(k)
	st := dur.stats

	rep.add("hyfd.discover_s", med("hyfd.discover")/1e3, "s", len(tr.durations("hyfd.discover")))
	rep.add("runtime.create_self_s", (med("runtime.create")-med("hyfd.discover"))/1e3, "s", len(tr.durations("runtime.create")))
	rep.add("repl.catchup_s", med("repl.catchup")/1e3, "s", len(tr.durations("repl.catchup")))

	self := []struct {
		name string
		xs   []float64
	}{
		{"transport.self_ms_p50", minus(post, serve)},
		{"httpapi.self_ms_p50", minus(serve, apply)},
		{"runtime.self_ms_p50", minus(apply, stage, wait)},
		{"durable.stage_self_ms_p50", minus(stage, apb, build)},
		{"durable.wait_ms_p50", wait},
		{"core.apply_batch_ms_p50", apb},
		{"results.build_ms_p50", build},
	}
	sum, largest, largestV := 0.0, "", -1.0
	for _, s := range self {
		v, n := percentile(s.xs, 50)
		rep.add(s.name, v, "ms", n)
		sum += v
		if v > largestV {
			largest, largestV = s.name, v
		}
	}
	bodyBytes := 0
	for _, body := range in.bodies[:k] {
		bodyBytes += len(body)
	}
	rep.add("httpapi.req_bytes_per_change", ratio(float64(bodyBytes), float64(in.changesIn(k))), "B", 0)
	rep.add("wal.syncs_per_batch", float64(dur.walSyncs)/kf, "count", 0)
	rep.add("wal.sync_ms_per_batch", ms(dur.walSync)/kf, "ms", 0)
	rep.add("durable.checkpoint_ms", med("durable.checkpoint"), "ms", 0)
	rep.add("durable.checkpoint_bytes", float64(dur.checkpointBytes), "B", 0)
	rep.add("durable.disk_bytes_per_row", ratio(float64(dur.diskBytes), float64(dur.records)), "B", 0)
	p90, n := percentile(apb, 90)
	rep.add("core.apply_batch_ms_p90", p90, "ms", n)
	v := float64(st.Validations)
	rep.add("core.validations_per_batch", v/kf, "count", 0)
	rep.add("core.delta_pruned_ratio", ratio(float64(st.DeltaPruned), float64(st.DeltaPruned)+v), "ratio", 0)
	rep.add("core.fd_changes_per_kvalidation", ratio(1000*float64(st.FDsAdded+st.FDsRemoved), v), "count", 0)
	rep.add("core.skipped_validation_ratio", ratio(float64(st.SkippedValidations), float64(st.SkippedValidations)+v), "ratio", 0)
	rep.add("core.witness_repairs_per_batch", float64(st.WitnessRepairs)/kf, "count", 0)
	rep.add("core.dfs_runs_per_batch", float64(st.DepthFirstSearchRuns)/kf, "count", 0)
	rep.add("core.comparisons_per_batch", float64(st.Comparisons)/kf, "count", 0)
	rep.add("sched.chunks_stolen_per_batch", float64(st.ChunksStolen)/kf, "count", 0)
	rep.add("sched.spec_hit_ratio", ratio(float64(st.SpeculativeHits), float64(st.SpeculativeValidations)), "ratio", 0)
	rep.add("pli.structure_ms_per_batch", ms(st.StructureTime)/kf, "ms", 0)
	rep.add("core.delete_phase_ms_per_batch", ms(st.DeletePhaseTime)/kf, "ms", 0)
	rep.add("core.insert_phase_ms_per_batch", ms(st.InsertPhaseTime)/kf, "ms", 0)
	q := k / 4
	if q < 1 {
		q = 1
	}
	rep.add("results.build_ms_q1", median(build[:q]), "ms", q)
	rep.add("results.build_ms_q4", median(build[k-q:]), "ms", q)
	rep.add("core.alloc_kb_per_batch", float64(cor.applyAlloc)/1024/kf, "KiB", 0)
	rep.add("results.alloc_kb_per_build", float64(cor.buildAlloc)/1024/kf, "KiB", 0)
	rep.add("goruntime.gc_cpu_share", cor.gcShare, "ratio", 0)

	readSelf := 0.0
	for _, q := range []string{"fds", "unique", "violations"} {
		direct := b("results." + q)
		v, n := percentile(direct, 50)
		rep.add("results."+q+"_us_p50", v*1e3, "us", n)
		route := q
		if q == "unique" {
			route = "keys"
		}
		readSelf += (median(b("httpapi.read_serve."+route)) - v) * 1e3 / 3
	}
	snapV, snapN := percentile(b("runtime.snapshot"), 50)
	rep.add("runtime.snapshot_us_p50", snapV*1e3, "us", snapN)
	rep.add("httpapi.read_self_us_p50", readSelf, "us", 0)
	for _, p := range []float64{50, 90} {
		v, n := percentile(vis, p)
		rep.add(fmt.Sprintf("repl.visible_ms_p%d", int(p)), v, "ms", n)
	}
	v, n = percentile(rapply, 50)
	rep.add("repl.apply_ms_p50", v, "ms", n)
	v, n = percentile(minus(vis, rapply), 50)
	rep.add("repl.ship_self_ms_p50", v, "ms", n)
	rep.add("repl.installs", float64(rpl.installs), "count", 0)

	var late []float64
	for _, a := range resA.acks() {
		late = append(late, ms(a.sent.Sub(a.due)))
	}
	v, n = percentile(late, 90)
	rep.add("loadgen.late_ms_p90", v, "ms", n)

	untraced, _ := percentile(ackLatencies(w, resA.acks()), 50)
	traced, _ := percentile(ackLatencies(w, resB.acks()), 50)
	overhead := traced - untraced
	postP50, _ := percentile(post, 50)
	gap := sum - postP50
	rep.add("trace.overhead_ms", overhead, "ms", 0)
	// On each batch the self times along the HTTP entry add up to that
	// batch's client.post exactly, so the gap only shows how far the sum
	// of their medians is from the median of the sums. It is informational
	// and never fails the run.
	rep.add("trace.selftime_gap_ms", gap, "ms", 0)
	rep.notes = append(rep.notes,
		fmt.Sprintf("self-time medians along the HTTP entry sum to %.4f ms; client.post p50 is %.4f ms (gap %.4f ms, informational; tracing overhead %.4f ms)",
			sum, postP50, gap, overhead),
		fmt.Sprintf("largest self time on the HTTP entry: %s (%.4f ms)", largest, largestV))
	sort.SliceStable(self, func(i, j int) bool { return median(self[i].xs) > median(self[j].xs) })
	for _, s := range self {
		rep.notes = append(rep.notes, fmt.Sprintf("share of HTTP-entry self time: %-28s %5.1f%%", s.name, 100*ratio(median(s.xs), sum)))
	}
}
