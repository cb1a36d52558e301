package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hbmrd"
	"hbmrd/internal/fabric"
	"hbmrd/internal/serve"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// env is one workload's system under test: the path a sweep and a query
// take through the program's public entry points.
type env interface {
	// sweep runs s to completion and leaves its record stream at path.
	sweep(ctx context.Context, s *sweepSpec, path string) error
	// query answers q and reports which source answered it.
	query(q hbmrd.QuerySpec) (body []byte, source string, err error)
	close()
}

// cliEnv is `hbmrd -out` plus `hbmrd query`: library sweeps into JSONL
// files, and an in-process query engine over a store the set-up ingested.
type cliEnv struct {
	engine *hbmrd.QueryEngine
	layers *layers // nil in untraced runs
}

func (e *cliEnv) sweep(ctx context.Context, s *sweepSpec, path string) error {
	return e.layers.libraryRun(ctx, s, path)
}

func (e *cliEnv) query(q hbmrd.QuerySpec) ([]byte, string, error) {
	res, err := e.engine.Run(q)
	if err != nil {
		return nil, "", err
	}
	return res.JSON, res.Source, nil
}

func (e *cliEnv) close() {}

// daemon is one in-process hbmrdd: a serve.Server behind an http.Server
// on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

var quiet = telemetry.NewLogger(func(string, ...any) {})

// startDaemon serves st the way hbmrdd's defaults configure it (one
// sweep worker, GOMAXPROCS engine jobs).
func startDaemon(st *store.Store, distribute func(context.Context, *serve.Sweep, string) error) (*daemon, error) {
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, Log: quiet, Distribute: distribute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 30 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

func (d *daemon) stop() {
	_ = d.hs.Close()
	<-d.done
	d.srv.Drain()
}

// httpEnv drives one daemon over HTTP: the daemon-mix target, and - with
// a fabric coordinator plugged into its Distribute hook - the
// sharded-sweep one.
type httpEnv struct {
	client  *http.Client
	front   *daemon
	workers []*daemon
	fabric  *fabricTrace // nil unless traced and sharded
	// streamRetries counts stream requests answered 404 for a sweep the
	// daemon had just accepted (see sweep).
	streamRetries int
}

func newClient() *http.Client {
	return &http.Client{Timeout: 90 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func (e *httpEnv) sweep(ctx context.Context, s *sweepSpec, path string) error {
	spec, err := s.wire()
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.front.url+"/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	var sub struct{ Fingerprint, Status, Error string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit answer: %w", err)
	}
	if sub.Status != serve.StatusQueued {
		return &wrongAnswer{fmt.Sprintf("submit of a fresh sweep answered %q, want %q", sub.Status, serve.StatusQueued)}
	}
	resp, err = e.stream(ctx, sub.Fingerprint)
	if err == nil && resp.StatusCode == http.StatusNotFound {
		// The daemon answers 404 when the stream request lands between
		// its store lookup and its job-table lookup just as the job is
		// finalized (serve.handleStream). The sweep did run and is in the
		// store, so ask once more, and count it for the report.
		resp.Body.Close()
		e.streamRetries++
		resp, err = e.stream(ctx, sub.Fingerprint)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream %s: %s: %s", sub.Fingerprint, resp.Status, msg)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *httpEnv) stream(ctx context.Context, fp string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.front.url+"/sweeps/"+fp, nil)
	if err != nil {
		return nil, err
	}
	return e.client.Do(req)
}

func (e *httpEnv) query(q hbmrd.QuerySpec) ([]byte, string, error) {
	spec, err := json.Marshal(q)
	if err != nil {
		return nil, "", err
	}
	resp, err := e.client.Post(e.front.url+"/query", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("query: %s: %s", resp.Status, body)
	}
	return body, resp.Header.Get("X-Hbmrd-Query-Source"), nil
}

func (e *httpEnv) close() {
	e.front.stop()
	for _, w := range e.workers {
		w.stop()
	}
	e.client.CloseIdleConnections()
}

// wrongAnswer marks a reply that is a correctness failure, not an
// operation that failed.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return w.msg }

func isWrongAnswer(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// setup builds one workload environment from nothing: it runs the set-up
// sweeps through the library, ingests them into a fresh store (what
// `hbmrd query -ingest` does), and starts the daemons the workload needs.
// It returns the environment and the ingested sweeps.
func setup(ctx context.Context, w *workload, seed int64, dir string, lt *layers) (env, []*stored, error) {
	if err := os.MkdirAll(filepath.Join(dir, "in"), 0o755); err != nil {
		return nil, nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, err
	}
	g := newGen(seed ^ 0x5e7)
	var sts []*stored
	for i, s := range setupSweeps(g) {
		path := filepath.Join(dir, "in", fmt.Sprintf("setup-%d.jsonl", i))
		if _, err := s.runLibrary(ctx, path, nil); err != nil {
			return nil, nil, err
		}
		meta, err := hbmrd.IngestSweep(st, path)
		if err != nil {
			return nil, nil, err
		}
		sts = append(sts, &stored{fp: meta.Fingerprint, spec: s, path: path})
	}
	switch w.name {
	case "cli-sweep":
		return &cliEnv{engine: hbmrd.NewQueryEngine(st), layers: lt}, sts, nil
	case "daemon-mix":
		d, err := startDaemon(st, nil)
		if err != nil {
			return nil, nil, err
		}
		return &httpEnv{client: newClient(), front: d}, sts, nil
	}
	e := &httpEnv{client: newClient()}
	var peers []string
	for i := 0; i < 2; i++ {
		wst, err := store.Open(filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
		if err == nil {
			var d *daemon
			if d, err = startDaemon(wst, nil); err == nil {
				e.workers = append(e.workers, d)
				peers = append(peers, d.url)
			}
		}
		if err != nil {
			e.closeWorkers()
			return nil, nil, err
		}
	}
	cfg := fabric.Config{Peers: peers, Log: quiet}
	if lt != nil {
		e.fabric = newFabricTrace()
		cfg.Client = &http.Client{Transport: e.fabric}
		cfg.Tracer = lt.tracer
	}
	coord, err := fabric.New(cfg)
	if err != nil {
		e.closeWorkers()
		return nil, nil, err
	}
	distribute := coord.Distribute
	if e.fabric != nil {
		distribute = e.fabric.wrap(coord.Distribute)
	}
	if e.front, err = startDaemon(st, distribute); err != nil {
		e.closeWorkers()
		return nil, nil, err
	}
	return e, sts, nil
}

func (e *httpEnv) closeWorkers() {
	for _, w := range e.workers {
		w.stop()
	}
}

// fabricTrace is the traced sharded run's view of the fabric: a
// counting transport for the coordinator's worker requests and a timing
// wrapper around its Distribute hook.
type fabricTrace struct {
	base http.RoundTripper

	mu         sync.Mutex
	submits    int
	polls      int
	fetchBytes int64
	distribute map[string]time.Duration // by parent fingerprint
}

func newFabricTrace() *fabricTrace {
	return &fabricTrace{base: &http.Transport{MaxIdleConnsPerHost: 8}, distribute: map[string]time.Duration{}}
}

func (f *fabricTrace) wrap(dist func(context.Context, *serve.Sweep, string) error) func(context.Context, *serve.Sweep, string) error {
	return func(ctx context.Context, sw *serve.Sweep, spool string) error {
		start := time.Now()
		err := dist(ctx, sw, spool)
		f.mu.Lock()
		f.distribute[sw.Fingerprint] = time.Since(start)
		f.mu.Unlock()
		return err
	}
}

func (f *fabricTrace) counts() (submits, polls int, fetchBytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits, f.polls, f.fetchBytes
}

func (f *fabricTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	f.mu.Lock()
	defer f.mu.Unlock()
	switch p := req.URL.Path; {
	case req.Method == http.MethodPost && p == "/sweeps":
		f.submits++
	case req.Method == http.MethodGet && filepath.Base(p) == "status":
		f.polls++
	case req.Method == http.MethodGet && filepath.Dir(p) == "/sweeps" && err == nil:
		resp.Body = &countingBody{ReadCloser: resp.Body, f: f}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	f *fabricTrace
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.f.mu.Lock()
	c.f.fetchBytes += int64(n)
	c.f.mu.Unlock()
	return n, err
}
