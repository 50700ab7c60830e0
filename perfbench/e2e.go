package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// entry selects how the writer enters the service.
type entry int

const (
	viaHTTP    entry = iota // POST through the loopback listener
	viaRuntime              // call runtime.Runtime.Apply directly
)

type e2eOpts struct {
	seconds float64
	// passes replays the whole history on a fresh tenant again while the
	// summed write time is below the window (closed loop only), so every
	// run measures whole passes of identical work.
	passes bool
	// batches fixes the number of batches of a single pass; 0 runs until
	// the window closes or the history ends.
	batches int
	// setups is the least number of set-ups; more follow while their
	// summed time is below setupSeconds, up to maxSetups.
	setups       int
	setupSeconds float64
	entry        entry
	tr           *tracer // nil: untraced
	dir          string
}

// ack is one write as the load generator saw it.
type ack struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	seq             uint64
	ids             []int64
}

// read is one follower read as the load generator saw it.
type read struct {
	due, done time.Time
	status    int
	seq       uint64
	err       error
}

// pass is one replay of the history, from batch 0, on one tenant.
type pass struct {
	tenant  string
	baseSeq uint64 // the tenant's seq before the first batch
	acks    []ack
	// Read after the pass: runtime.TenantMetrics' batch count and the
	// tenant's final FDs.
	tenantBatches uint64
	fdsSeq        uint64
	fds           fdSet
}

type e2eResult struct {
	setupS     []float64
	passes     []*pass
	reads      []read
	active     time.Duration // write time summed over the passes
	allocBytes uint64        // heap allocated during the passes
	// heapLive is the live heap the service holds at the end of the run:
	// the live heap with the service open minus the live heap once it is
	// closed, so the benchmark's own inputs and records cancel out.
	heapLive uint64
	// followerErr is a follower seq or FD mismatch against the primary.
	followerErr error
}

// acks returns every write of every pass, in order.
func (r *e2eResult) acks() []ack {
	var out []ack
	for _, p := range r.passes {
		out = append(out, p.acks...)
	}
	return out
}

// maxSetups caps the set-ups of one run when each is short.
const maxSetups = 200

// runE2E sets the service up at least opts.setups times and until the
// set-ups have taken opts.setupSeconds (keeping the last), drives the
// workload against it, and collects what the client observed.
func runE2E(w workload, in *inputs, opts e2eOpts) (*e2eResult, error) {
	res := &e2eResult{}
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	var total float64
	for i := 0; i < opts.setups || (total < opts.setupSeconds && i < maxSetups); i++ {
		if svc != nil {
			svc.close()
			if err := os.RemoveAll(filepath.Join(opts.dir, fmt.Sprintf("setup%d", i-1))); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(opts.dir, fmt.Sprintf("setup%d", i))
		s, sec, err := openService(dir, in, w.follower, opts.tr, wrapper(opts.tr))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		svc = s
		res.setupS = append(res.setupS, sec)
		total += sec
	}

	n := len(in.bodies)
	if opts.batches > 0 && opts.batches < n {
		n = opts.batches
	}
	window := time.Duration(opts.seconds * float64(time.Second))
	var interval time.Duration
	if w.openLoop {
		interval = time.Duration(float64(time.Second) / w.writeRate)
		if due := int(window / interval); opts.batches == 0 && due < n {
			n = due
		}
	}
	writer := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer writer.CloseIdleConnections()
	reader := &http.Client{}
	defer reader.CloseIdleConnections()

	for np := 0; ; np++ {
		p := &pass{tenant: tenant}
		if np > 0 {
			p.tenant = fmt.Sprintf("%s-%d", tenant, np)
			if err := svc.rt.Create(p.tenant, in.columns, in.initial); err != nil {
				return nil, err
			}
		}
		_, seq, err := svc.rt.Snapshot(p.tenant)
		if err != nil {
			return nil, err
		}
		p.baseSeq = seq
		url := svc.api.url + "/v1/tenants/" + p.tenant + "/batch"
		p.acks = make([]ack, 0, n)
		if opts.entry == viaRuntime {
			in.changes() // converted before the clock starts
		}

		goruntime.GC()
		alloc0 := heapAllocs()
		start := time.Now()
		stopReads := make(chan struct{})
		var readerWG sync.WaitGroup
		if w.readRate > 0 {
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				res.reads = runReader(svc.fapi.url, in.columns, w.readRate, start, stopReads)
			}()
		}
		prev := start
		for i := 0; i < n; i++ {
			a := ack{due: prev}
			if w.openLoop {
				a.due = start.Add(time.Duration(i) * interval)
				waitUntil(a.due)
			} else if !opts.passes && opts.batches == 0 && time.Since(start) >= window {
				break
			}
			a.sent = time.Now()
			switch opts.entry {
			case viaHTTP:
				a.status, a.body, a.err = post(writer, url, in.bodies[i], opts.tr, i)
			case viaRuntime:
				r, err := svc.rt.Apply(p.tenant, in.changes()[i])
				a.status, a.err, a.seq, a.ids = http.StatusOK, err, r.Seq, r.InsertedIDs
				opts.tr.add("runtime.apply", -1, i, a.sent, time.Now())
			}
			a.done = time.Now()
			prev = a.done
			p.acks = append(p.acks, a)
		}
		res.active += time.Since(start)
		close(stopReads)
		readerWG.Wait()
		res.allocBytes += heapAllocs() - alloc0
		res.passes = append(res.passes, p)

		// The clock is stopped until the next pass starts.
		if err := p.collect(svc, reader, in.columns, opts.entry == viaHTTP); err != nil {
			return nil, err
		}
		if !opts.passes || w.openLoop || res.active >= window {
			break
		}
		if err := svc.rt.Drop(p.tenant); err != nil {
			return nil, err
		}
	}
	if w.follower {
		last := res.passes[len(res.passes)-1]
		res.followerErr = checkFollower(reader, svc, last.fdsSeq, last.fds, in.columns)
	}
	open := liveHeap()
	svc.close()
	svc = nil
	if closed := liveHeap(); open > closed {
		res.heapLive = open - closed
	}
	return res, nil
}

// collect decodes the pass's acks and reads the tenant's final state.
func (p *pass) collect(svc *service, c *http.Client, columns []string, decode bool) error {
	for i := range p.acks {
		a := &p.acks[i]
		if decode && a.err == nil && a.status == http.StatusOK {
			var body struct {
				Seq         uint64  `json:"seq"`
				InsertedIDs []int64 `json:"inserted_ids"`
			}
			if err := json.Unmarshal(a.body, &body); err != nil {
				a.err = fmt.Errorf("decoding ack: %w", err)
			}
			a.seq, a.ids = body.Seq, body.InsertedIDs
		}
		a.body = nil
	}
	tm, err := svc.rt.TenantMetrics(p.tenant)
	if err != nil {
		return err
	}
	p.tenantBatches = tm.Batches
	if p.fdsSeq, p.fds, err = getFDs(c, svc.api.url, p.tenant, columns); err != nil {
		return fmt.Errorf("final /fds: %w", err)
	}
	return nil
}

// liveHeap is the heap in use after forced collections. The second one
// empties the sync.Pool victim caches the first one leaves alive.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// post sends one batch and reads the whole response. Traced, it records a
// client.post span and names it in headers for the server-side wrapper.
func post(c *http.Client, url string, body []byte, tr *tracer, batch int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	id := tr.reserve("client.post", -1, batch, start)
	if tr != nil {
		req.Header.Set("X-Bench-Batch", strconv.Itoa(batch))
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
	}
	resp, err := c.Do(req)
	if err != nil {
		tr.finish(id, time.Now())
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.finish(id, time.Now())
	return resp.StatusCode, data, err
}

// wrapper returns the traced run's handler wrapper: a span around every
// request the handler serves, tied to the client span that sent it.
func wrapper(tr *tracer) func(http.Handler, string) http.Handler {
	if tr == nil {
		return nil
	}
	return func(h http.Handler, name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			end := time.Now()
			batch, err := strconv.Atoi(r.Header.Get("X-Bench-Batch"))
			if err != nil {
				batch = -1
			}
			parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			if err != nil {
				parent = -1
			}
			n := name
			if r.Method == http.MethodGet {
				n += "." + path.Base(r.URL.Path)
			}
			tr.add(n, parent, batch, start, end)
		})
	}
}

// readQueries is the reader's 1:1:1 mix of /fds, /keys and /violations.
func readQueries(base string, columns []string) []string {
	t := base + "/v1/tenants/" + tenant
	a, b := columns[1], columns[len(columns)-1]
	return []string{
		t + "/fds",
		t + "/keys?columns=" + a + "," + b,
		t + "/violations?lhs=" + a + "&rhs=" + b + "&max=10",
	}
}

// runReader issues paced reads against the follower until stop closes,
// timing each from its due time.
func runReader(base string, columns []string, rate float64, start time.Time, stop <-chan struct{}) []read {
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	urls := readQueries(base, columns)
	interval := time.Duration(float64(time.Second) / rate)
	var out []read
	for j := 0; ; j++ {
		r := read{due: start.Add(time.Duration(j) * interval)}
		if d := time.Until(r.due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return out
		default:
		}
		var data []byte
		resp, err := c.Get(urls[j%len(urls)])
		if err == nil {
			r.status = resp.StatusCode
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		r.done = time.Now()
		if err == nil {
			var body struct {
				Seq uint64 `json:"seq"`
			}
			err = json.Unmarshal(data, &body)
			r.seq = body.Seq
		}
		r.err = err
		out = append(out, r)
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
