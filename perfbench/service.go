package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"dynfd/internal/durable"
	"dynfd/internal/httpapi"
	"dynfd/internal/repl"
	"dynfd/internal/runtime"
)

const tenant = "bench"

// workers is the daemon's -workers auto: one scheduler worker per CPU.
func workers() int { return goruntime.GOMAXPROCS(0) }

// runtimeConfig is the daemon's default configuration: workers=auto,
// checkpoint every 64 batches, no group-commit linger, unbounded commit
// queue, default admission limits.
func runtimeConfig(dir string) runtime.Config {
	return runtime.Config{
		DataRoot:        dir,
		Workers:         workers(),
		CheckpointEvery: durable.DefaultCheckpointEvery,
	}
}

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		// Serve returns http.ErrServerClosed after close; any other
		// failure shows up as errors on the requests themselves.
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close() {
	if l != nil {
		l.srv.Close()
		<-l.done
	}
}

// lineCounter counts follower log lines that report a checkpoint install.
type lineCounter struct {
	mu       sync.Mutex
	installs int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.installs += bytes.Count(p, []byte("event=install"))
	c.mu.Unlock()
	return len(p), nil
}

func (c *lineCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installs
}

// service is the system under test, in process: a primary runtime behind
// httpapi on loopback and, when replicated, a follower runtime that tails
// it through repl.NewServer and serves reads behind its own httpapi.
type service struct {
	rt, frt         *runtime.Runtime
	api, rsrv, fapi *listener
	followerLog     *lineCounter
}

// openService sets the service up on fresh directories under dir and
// returns the set-up time: runtime.Open plus tenant create with bootstrap,
// plus the follower's catch-up to the primary's seq when replicated.
// wrap, when non-nil, wraps both API handlers (the traced run's spans).
func openService(dir string, in *inputs, replicated bool, tr *tracer, wrap func(http.Handler, string) http.Handler) (*service, float64, error) {
	if wrap == nil {
		wrap = func(h http.Handler, _ string) http.Handler { return h }
	}
	s := &service{}
	start := time.Now()
	cfg := runtimeConfig(filepath.Join(dir, "primary"))
	cfg.ServeReplication = replicated
	rt, err := runtime.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	s.rt = rt
	opened := time.Now()
	if err := rt.Create(tenant, in.columns, in.initial); err != nil {
		s.close()
		return nil, 0, err
	}
	created := time.Now()
	tr.add("runtime.create", -1, -1, opened, created)
	if s.api, err = serve(wrap(httpapi.New(rt).Handler(), "httpapi.serve")); err != nil {
		s.close()
		return nil, 0, err
	}
	if replicated {
		if s.rsrv, err = serve(repl.NewServer(rt).Handler()); err != nil {
			s.close()
			return nil, 0, err
		}
		follow := time.Now()
		fcfg := runtimeConfig(filepath.Join(dir, "follower"))
		fcfg.ReplicateFrom = s.rsrv.url
		s.followerLog = &lineCounter{}
		fcfg.Logger = log.New(s.followerLog, "", 0)
		if s.frt, err = runtime.Open(fcfg); err != nil {
			s.close()
			return nil, 0, err
		}
		_, seq, err := rt.Snapshot(tenant)
		if err == nil {
			err = s.awaitFollower(seq, 30*time.Second)
		}
		if err != nil {
			s.close()
			return nil, 0, err
		}
		tr.add("repl.catchup", -1, -1, follow, time.Now())
		if s.fapi, err = serve(wrap(httpapi.New(s.frt).Handler(), "httpapi.read_serve")); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// awaitFollower waits until the follower's published snapshot reaches seq.
func (s *service) awaitFollower(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		snap, _, err := s.frt.Snapshot(tenant)
		if err == nil && snap.Seq() >= seq {
			return nil
		}
		if err != nil && !errors.Is(err, runtime.ErrNoSuchTenant) {
			return fmt.Errorf("follower: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not reach seq %d within %v", seq, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close stops the follower first (it tails the primary), then the
// listeners, then the primary.
func (s *service) close() {
	if s.frt != nil {
		s.frt.Close()
	}
	s.fapi.close()
	s.rsrv.close()
	s.api.close()
	if s.rt != nil {
		s.rt.Close()
	}
}
