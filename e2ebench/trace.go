package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hbmrd"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// layers accumulates the traced run's per-layer figures for the device
// and engine layers. All timing is taken in the benchmark's own code,
// around the program's public calls; the program's own tracers
// (core.WithTracer, fabric.Config.Tracer) write to a span file beside it.
type layers struct {
	tracer *hbmrd.Tracer
	spans  *bufio.Writer
	file   *os.File

	simUS     float64 // simulated DRAM time over every fleet channel
	hostNS    int64   // wall time of the library runs that simulated it
	cells     int
	records   int
	runMS     []float64
	cellUS    []float64
	sinkNS    int64
	sinkBytes int64
}

func newLayers(path string) (*layers, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	return &layers{tracer: hbmrd.NewTracer(w), spans: w, file: f}, nil
}

func (l *layers) close() error {
	if err := l.spans.Flush(); err != nil {
		l.file.Close()
		return err
	}
	return l.file.Close()
}

// libraryRun runs s through the library into path. On a nil receiver it
// is the plain untraced call.
func (l *layers) libraryRun(ctx context.Context, s *sweepSpec, path string) error {
	if l == nil {
		_, err := s.runLibrary(ctx, path, nil)
		return err
	}
	start := time.Now()
	fleet, err := s.runLibrary(ctx, path, func(fs *hbmrd.JSONLFileSink) hbmrd.Sink {
		return &timedSink{JSONLFileSink: fs, l: l}
	}, hbmrd.WithTracer(l.tracer))
	host := time.Since(start)
	if err != nil {
		return err
	}
	l.runMS = append(l.runMS, ms(host))
	l.hostNS += host.Nanoseconds()
	l.cells += s.cells()
	for _, tc := range fleet {
		for i := 0; i < tc.Chip.Geometry().Channels; i++ {
			ch, err := tc.Chip.Channel(i)
			if err != nil {
				return err
			}
			l.simUS += float64(ch.Now()) / float64(hbmrd.US)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.sinkBytes += fi.Size()
	return nil
}

// timedSink delegates to the JSONL file sink, timing its writes and
// taking each cell's duration from the gap between progress callbacks.
type timedSink struct {
	*hbmrd.JSONLFileSink
	l    *layers
	last time.Time
}

func (s *timedSink) Start(total int) {
	s.last = time.Now()
	s.JSONLFileSink.Start(total)
}

func (s *timedSink) Progress(done, total int) {
	now := time.Now()
	s.l.cellUS = append(s.l.cellUS, float64(now.Sub(s.last).Nanoseconds())/1e3)
	s.last = now
	s.JSONLFileSink.Progress(done, total)
}

func (s *timedSink) Header(h hbmrd.SweepHeader) {
	start := time.Now()
	s.JSONLFileSink.Header(h)
	s.l.sinkNS += time.Since(start).Nanoseconds()
}

func (s *timedSink) Record(r any) {
	start := time.Now()
	s.JSONLFileSink.Record(r)
	s.l.sinkNS += time.Since(start).Nanoseconds()
	s.l.records++
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced is the per-layer run. It runs a fixed number of rounds twice on
// identical inputs - first untraced, then with the benchmark's timing
// wrappers and the program's tracers on - and then times the layers'
// public calls directly on the traced phase's operations: library runs
// of every sweep (device, fault model, engine, sink), store.PutFile of
// every stream, and query.Engine.Run of every query in order.
func (b *bench) traced(seconds int) error {
	rounds := b.w.traceRounds * seconds / 10
	if rounds < 1 {
		rounds = 1
	}
	b.cond = startConditions()
	eA, _, err := b.newSetup("setup-a", nil)
	if err != nil {
		return err
	}
	pA := b.loop(eA, filepath.Join(b.dir, "ops-a"), time.Time{}, rounds, nil)
	b.finish(eA)

	lt, err := newLayers(filepath.Join(b.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	eB, _, err := b.newSetup("setup-b", lt)
	if err != nil {
		lt.close()
		return err
	}
	c0 := readCounters()
	pB := b.loop(eB, filepath.Join(b.dir, "ops-b"), time.Time{}, rounds, nil)
	c1 := readCounters()
	b.cond.stop()
	b.finish(eB)
	if err := b.references(lt); err != nil {
		lt.close()
		return err
	}
	if err := lt.close(); err != nil {
		return err
	}
	b.verify()
	puts, err := b.replayPuts(pB)
	if err != nil {
		return err
	}
	direct, err := b.replayQueries(pB)
	if err != nil {
		return err
	}

	ops := len(pB.sweeps) + len(pB.queries)
	simUS := lt.simUS
	runs := len(lt.runMS)
	b.add("hbm.sim_us", "us", simUS, runs, nil)
	b.add("hbm.host_ns_per_sim_us", "ns/us", div(float64(lt.hostNS), simUS), runs,
		map[string]float64{"host_ns": float64(lt.hostNS), "sim_us": simUS})
	b.add("core.cells", "count", float64(lt.cells), runs, nil)
	b.add("core.records", "count", float64(lt.records), runs, nil)
	b.add("core.run_p50_ms", "ms", quantile(lt.runMS, 0.5), runs, nil)
	b.add("core.cell_p50_us", "us", quantile(lt.cellUS, 0.5), len(lt.cellUS), nil)
	b.add("core.sink_ms", "ms", float64(lt.sinkNS)/1e6, lt.records, nil)
	b.add("core.sink_bytes", "bytes", float64(lt.sinkBytes), runs, nil)

	var putMS []float64
	for i, op := range pB.sweeps {
		if op.err == nil {
			putMS = append(putMS, ms(puts[i]))
		}
	}
	b.add("store.put_p50_ms", "ms", quantile(putMS, 0.5), len(putMS), nil)
	for _, k := range []string{"store.puts", "store.put_bytes", "store.reads_columnar", "store.reads_jsonl",
		"store.derived_puts", "store.derived_gets", "query.cache_hits", "query.cache_misses", "query.source_jsonl"} {
		unit := "count"
		if k == "store.put_bytes" {
			unit = "bytes"
		}
		b.add(k, unit, c1[k]-c0[k], ops, nil)
	}

	var coldDirect, cachedDirect []float64
	var matched, groups float64
	for i, op := range pB.queries {
		if op.err != nil {
			continue
		}
		if op.cold == nil {
			coldDirect = append(coldDirect, ms(direct[i]))
			var a aggregate
			if err := json.Unmarshal(op.body, &a); err == nil {
				matched += float64(a.Matched)
				groups += float64(len(a.Groups))
			}
		} else {
			cachedDirect = append(cachedDirect, ms(direct[i]))
		}
	}
	b.add("query.cold_p50_ms", "ms", quantile(coldDirect, 0.5), len(coldDirect), nil)
	b.add("query.cached_p50_ms", "ms", quantile(cachedDirect, 0.5), len(cachedDirect), nil)
	b.add("query.records_per_group", "records", div(matched, groups), len(coldDirect),
		map[string]float64{"matched_records": matched, "groups": groups})

	// The serve layer's own time: HTTP latency minus the direct calls
	// the daemon makes for the same operation (engine or distribute,
	// then the store finalize).
	he, isHTTP := eB.(*httpEnv)
	var httpSweep, directSweep, distMS, finalizeMS []float64
	var distSec float64
	distributed := 0
	for i, op := range pB.sweeps {
		if !isHTTP || op.err != nil {
			continue
		}
		h, err := readHeader(op.path)
		if err != nil {
			return err
		}
		below := b.refs[op.key].dur
		if he.fabric != nil {
			distributed++
			below = he.fabric.distribute[h.Fingerprint]
			distSec += below.Seconds()
			distMS = append(distMS, ms(below))
			finalizeMS = append(finalizeMS, ms(op.dur-below))
		}
		if op.ok() && !op.spec.probe {
			httpSweep = append(httpSweep, ms(op.dur))
			directSweep = append(directSweep, ms(below+puts[i]))
		}
	}
	httpCached, _, _ := pB.queryMS(false)
	if !isHTTP {
		httpCached = nil
	}
	b.add("serve.submit_overhead_ms", "ms", overhead(httpSweep, directSweep), len(httpSweep),
		map[string]float64{"http_p50_ms": quantile(httpSweep, 0.5), "direct_p50_ms": quantile(directSweep, 0.5)})
	b.add("serve.query_overhead_ms", "ms", overhead(httpCached, cachedDirect), len(httpCached),
		map[string]float64{"http_p50_ms": quantile(httpCached, 0.5), "direct_p50_ms": quantile(cachedDirect, 0.5)})

	var submits, polls int
	var fetchBytes int64
	if isHTTP && he.fabric != nil {
		submits, polls, fetchBytes = he.fabric.counts()
	}
	var localMS []float64
	for _, op := range pB.sweeps {
		if distributed > 0 && op.ok() && !op.spec.probe {
			localMS = append(localMS, ms(b.refs[op.key].dur))
		}
	}
	perSweep := func(v float64) float64 { return div(v, float64(distributed)) }
	pollWait := c1["fabric.poll_wait_s"] - c0["fabric.poll_wait_s"]
	b.add("fabric.distribute_p50_ms", "ms", quantile(distMS, 0.5), len(distMS), nil)
	b.add("fabric.coord_finalize_p50_ms", "ms", quantile(finalizeMS, 0.5), len(finalizeMS), nil)
	b.add("fabric.submits_per_sweep", "count", perSweep(float64(submits)), distributed, nil)
	b.add("fabric.status_polls_per_sweep", "count", perSweep(float64(polls)), distributed, nil)
	b.add("fabric.fetch_bytes_per_sweep", "bytes", perSweep(float64(fetchBytes)), distributed, nil)
	b.add("fabric.retries", "count", c1["fabric.retries"]-c0["fabric.retries"], distributed, nil)
	b.add("fabric.poll_wait_share", "ratio", div(pollWait, distSec), distributed,
		map[string]float64{"poll_wait_s": pollWait, "distribute_s": distSec})
	b.add("fabric.vs_local_ratio", "ratio", div(quantile(httpSweep, 0.5), quantile(localMS, 0.5)), len(localMS),
		map[string]float64{"sharded_p50_ms": quantile(httpSweep, 0.5), "local_p50_ms": quantile(localMS, 0.5)})
	b.add("trace.overhead_pct", "%", (pB.wall.Seconds()/pA.wall.Seconds()-1)*100, rounds,
		map[string]float64{"untraced_s": pA.wall.Seconds(), "traced_s": pB.wall.Seconds()})
	return nil
}

// replayPuts finalizes every successful stream of p into a fresh store
// with store.PutFile, timing each; the result is indexed like p.sweeps.
func (b *bench) replayPuts(p *phase) ([]time.Duration, error) {
	st, err := store.Open(filepath.Join(b.dir, "put-store"))
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, len(p.sweeps))
	for i, op := range p.sweeps {
		if op.err != nil {
			continue
		}
		h, err := readHeader(op.path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := st.PutFile(store.Meta{Fingerprint: h.Fingerprint, Kind: h.Kind, Cells: h.Cells}, op.path); err != nil {
			return nil, err
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// replayQueries runs p's query sequence through an in-process engine
// over a fresh store holding the same stored sweeps, timing each call;
// every direct answer must equal the one the workload got. The result is
// indexed like p.queries.
func (b *bench) replayQueries(p *phase) ([]time.Duration, error) {
	st, err := store.Open(filepath.Join(b.dir, "query-store"))
	if err != nil {
		return nil, err
	}
	for _, s := range b.stored {
		if _, err := hbmrd.IngestSweep(st, s.path); err != nil {
			return nil, err
		}
	}
	engine := hbmrd.NewQueryEngine(st)
	out := make([]time.Duration, len(p.queries))
	for i, op := range p.queries {
		if op.err != nil {
			continue
		}
		start := time.Now()
		res, err := engine.Run(op.spec)
		out[i] = time.Since(start)
		if err != nil {
			return nil, err
		}
		want := op.body
		if op.cold != nil {
			want = op.cold.body
		}
		if !bytes.Equal(res.JSON, want) {
			b.problem("query %s: direct answer differs from the workload's", op.key)
		}
	}
	return out, nil
}

// readCounters snapshots the program's own counters the per-layer
// metrics are deltas of.
func readCounters() map[string]float64 {
	d := telemetry.Default
	c := func(name string, l ...telemetry.Label) float64 { return float64(d.Counter(name, l...).Value()) }
	return map[string]float64{
		"store.puts":           c("hbmrd_store_puts_total"),
		"store.put_bytes":      c("hbmrd_store_put_bytes_total"),
		"store.reads_columnar": c("hbmrd_store_reads_total", telemetry.L("repr", "columnar")),
		"store.reads_jsonl":    c("hbmrd_store_reads_total", telemetry.L("repr", "jsonl")),
		"store.derived_puts":   c("hbmrd_store_derived_puts_total"),
		"store.derived_gets":   c("hbmrd_store_derived_gets_total"),
		"query.cache_hits":     c("hbmrd_query_cache_hits_total"),
		"query.cache_misses":   c("hbmrd_query_cache_misses_total"),
		"query.source_jsonl":   c("hbmrd_query_source_total", telemetry.L("source", hbmrd.QuerySourceJSONL)),
		"fabric.retries":       c("hbmrd_fabric_shard_retries_total"),
		"fabric.poll_wait_s":   d.Histogram("hbmrd_fabric_poll_wait_seconds", telemetry.DurationBuckets).Sum(),
	}
}

// overhead is the difference of two medians; 0 when a side has no
// samples (the workload does not reach that layer).
func overhead(outer, inner []float64) float64 {
	if len(outer) == 0 || len(inner) == 0 {
		return 0
	}
	return quantile(outer, 0.5) - quantile(inner, 0.5)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readHeader parses the header line of the stream at path.
func readHeader(path string) (header, error) {
	var h header
	f, err := os.Open(path)
	if err != nil {
		return h, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return h, fmt.Errorf("stream %s: %w", path, err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, fmt.Errorf("stream %s header: %w", path, err)
	}
	return h, nil
}
