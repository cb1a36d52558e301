// Command e2ebench is the end-to-end benchmark of hbmrd: it drives the
// CLI sweep path, the hbmrdd daemon (sweep submit -> stream, cold and
// cached queries) and a 2-worker sharded sweep through their public
// entry points, checks every output, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and calls it):
//
//	e2ebench --workload cli-sweep|daemon-mix|sharded-sweep --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// inputs untraced and then traced, and prints the per-layer breakdown.
// See README.md for the workloads, metrics and checks.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"hbmrd"
)

// commit is stamped by run.sh with -ldflags "-X main.commit=...".
var commit = "unknown"

// workload is one closed loop with one client. Each round runs the
// round's sweeps, then cold queries (specs never asked before), then
// cached repeats of earlier cold specs, in that order; a run always ends
// on a whole round.
type workload struct {
	name  string
	round func(g *gen, r int) []*sweepSpec
	// cold and cached are the queries per round: enough distinct specs
	// per run for steady query figures, more where rounds are long.
	cold, cached int
	// traceRounds is the traced run's fixed round count per phase at
	// --seconds 10 (scaled with --seconds), so its counts are exact per
	// seed.
	traceRounds int
	// memRounds is the untraced run's least number of rounds, and the
	// rounds over which peak_rss_mib is sampled: the same work in every
	// run, however fast the host lets it go.
	memRounds int
}

// setups is the number of set-ups per untraced run; setup_s is their
// median.
const setups = 5

var workloads = []*workload{
	{name: "cli-sweep", cold: 4, cached: 16, traceRounds: 120, memRounds: 100, round: func(g *gen, r int) []*sweepSpec {
		switch r % 3 {
		case 0:
			return []*sweepSpec{g.sweep(hbmrd.KindBER, 2, 24)}
		case 1:
			return []*sweepSpec{g.sweep(hbmrd.KindHCFirst, 2, 12)}
		}
		return []*sweepSpec{g.sweep(hbmrd.KindRowPressHC, 2, 4)}
	}},
	{name: "daemon-mix", cold: 2, cached: 8, traceRounds: 200, memRounds: 120, round: func(g *gen, r int) []*sweepSpec {
		if r%2 == 0 {
			return []*sweepSpec{g.sweep(hbmrd.KindBER, 1, 4)}
		}
		return []*sweepSpec{g.sweep(hbmrd.KindHCFirst, 1, 4)}
	}},
	{name: "sharded-sweep", cold: 24, cached: 96, traceRounds: 15, memRounds: 10, round: func(g *gen, r int) []*sweepSpec {
		return []*sweepSpec{g.sweep(hbmrd.KindHCFirst, 6, 12), g.sweep(hbmrd.KindBER, 4, 18), probeSweep(r)}
	}},
}

// setupSweeps are the larger sweeps every set-up stores for the queries
// to read: two ber and two hcfirst.
func setupSweeps(g *gen) []*sweepSpec {
	return []*sweepSpec{
		g.sweep(hbmrd.KindBER, 4, 32), g.sweep(hbmrd.KindHCFirst, 4, 16),
		g.sweep(hbmrd.KindBER, 4, 32), g.sweep(hbmrd.KindHCFirst, 4, 16),
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "cli-sweep, daemon-mix or sharded-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed phase length")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory (removed after the run)")
	flag.Parse()
	// One P: every time metric is CPU time, and with a second P the Go
	// scheduler spins on it between the client's and the daemon's
	// goroutines - on a virtual machine that spinning cost as much CPU as
	// a cached query and swung with the host's load.
	runtime.GOMAXPROCS(1)
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("usage: --workload cli-sweep|daemon-mix|sharded-sweep --seed N --seconds S --trace 0|1")
	}
	// The run must end within 180 s even if the program under test hangs.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		os.Exit(3)
	})
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: *seed, dir: dir}
	if *trace == 1 {
		err = b.traced(*seconds)
	} else {
		err = b.untraced(*seconds)
	}
	if err != nil {
		return err
	}
	return b.print(*trace == 1, *seconds)
}

// bench holds one run's phases and results.
type bench struct {
	w    *workload
	seed int64
	dir  string

	phases   []*phase
	stored   []*stored
	refs     map[string]*refRun
	problems []string
	metrics  []metric
	extra    map[string]metric // figures for the report line only
	// streamRetries counts the daemon's 404 answers to the stream of a
	// sweep it had just accepted (see httpEnv.sweep).
	streamRetries int
	cond          *conditions
}

// finish closes a timed phase's environment and keeps its counts.
func (b *bench) finish(e env) {
	if h, ok := e.(*httpEnv); ok {
		b.streamRetries += h.streamRetries
	}
	e.close()
}

// refRun is the library run of one spec: its stream and how long it took.
type refRun struct {
	data []byte
	dur  time.Duration
}

// metric is one reported figure, with its sample count and, for ratios,
// the bases it was computed from.
type metric struct {
	Name  string             `json:"-"`
	Value float64            `json:"value"`
	Unit  string             `json:"unit"`
	N     int                `json:"n"`
	Base  map[string]float64 `json:"base,omitempty"`
}

func (b *bench) add(name, unit string, value float64, n int, base map[string]float64) {
	b.metrics = append(b.metrics, metric{Name: name, Value: value, Unit: unit, N: n, Base: base})
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// newSetup runs one set-up, returns the process CPU time it took, and
// parses (and checks) the stored sweeps.
func (b *bench) newSetup(name string, lt *layers) (env, time.Duration, error) {
	syscall.Sync() // as before each block of operations (see loop)
	start := cpuNow()
	e, sts, err := setup(context.Background(), b.w, b.seed, filepath.Join(b.dir, name), lt)
	took := cpuNow() - start
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	for _, st := range sts {
		data, err := os.ReadFile(st.path)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		if st.recs, err = checkStream(st.spec, data); err != nil {
			b.problem("set-up sweep %s: %v", st.fp, err)
		}
	}
	b.stored = sts
	return e, took, nil
}

// untraced is the end-to-end run: set up several times (the last one is
// kept), run the closed loop for the given seconds, then check.
//
// Every time metric is process CPU time (see cpuNow), not wall time: on
// a shared virtual machine the hypervisor's steal and the disk's fsync
// latency moved wall-clock medians by up to 2x between runs of the same
// code, while the CPU time an operation costs stays put. The wall-clock
// figures go to the report line.
func (b *bench) untraced(seconds int) error {
	var setupS []float64
	var e env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		if e, took, err = b.newSetup(fmt.Sprintf("setup-%d", i), nil); err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
	}
	// Return the set-ups' garbage to the OS first, so peak_rss_mib is the
	// timed phase's own footprint rather than whatever five set-ups left.
	debug.FreeOSMemory()
	rss := sampleRSS()
	var peak float64
	memDone := func(rounds int) {
		if rounds == b.w.memRounds {
			peak = rss.stop()
		}
	}
	b.cond = startConditions()
	p := b.loop(e, filepath.Join(b.dir, "ops"), time.Now().Add(time.Duration(seconds)*time.Second), b.w.memRounds, memDone)
	b.cond.stop()
	b.finish(e)
	if err := b.references(nil); err != nil {
		return err
	}
	b.verify()

	var sweepMS []float64
	var cells, sweepSec, sweepCPU, sweepAlloc, sweepWritten float64
	for _, op := range p.sweeps {
		if op.ok() && !op.spec.probe {
			sweepMS = append(sweepMS, ms(op.dur))
			sweepSec += op.dur.Seconds()
		}
		cells += float64(op.spec.cells())
		sweepCPU += op.cpu.Seconds()
		sweepAlloc += float64(op.alloc)
		sweepWritten += float64(op.written)
	}
	coldMS, coldCPU, coldKiB := p.queryMS(true)
	cachedMS, cachedCPU, cachedKiB := p.queryMS(false)
	ops := float64(len(p.sweeps) + len(p.queries))
	gc := (p.gcSweeps + p.gcCold + p.gcCached).Seconds()
	opsCPU := sweepCPU + gc
	for _, op := range p.queries {
		opsCPU += op.cpu.Seconds()
	}
	// The result metrics count work, not time: on the shared virtual
	// machines this benchmark was built on, the CPU time of the same
	// operation moved by 20% with the host's load and its wall time by
	// 2x, while the bytes it allocates and writes do not depend on the
	// host. The sweeps count whole: every sweep the program ran, the
	// probe included. Per-query figures are trimmed means.
	b.add("setup_s", "s", quantile(setupS, 0.5), len(setupS), nil)
	b.add("peak_rss_mib", "MiB", peak, rss.samples, map[string]float64{"rounds": float64(b.w.memRounds)})
	b.add("sweep_alloc_kib_per_cell", "KiB", sweepAlloc/1024/cells, len(p.sweeps), map[string]float64{"cells": cells, "alloc_kib": sweepAlloc / 1024})
	b.add("sweep_write_kib_per_cell", "KiB", sweepWritten/1024/cells, len(p.sweeps), map[string]float64{"cells": cells, "written_kib": sweepWritten / 1024})
	b.add("query_cold_alloc_kib", "KiB", trimmedMean(coldKiB), len(coldKiB), nil)
	b.add("query_cached_alloc_kib", "KiB", trimmedMean(cachedKiB), len(cachedKiB), nil)
	// The time figures go to the report line. CPU costs are sums over the
	// operations plus the collection of their garbage (see settle).
	perOp := func(cpuMS []float64, gc time.Duration) float64 {
		return (sum(cpuMS) + ms(gc)) / float64(len(cpuMS))
	}
	b.extra = map[string]metric{
		"sweep_cells_per_cpu_s": {Value: cells / (sweepCPU + p.gcSweeps.Seconds()), Unit: "cells/cpu_s", N: len(p.sweeps),
			Base: map[string]float64{"cells": cells, "sweep_cpu_s": sweepCPU, "gc_cpu_s": p.gcSweeps.Seconds()}},
		"ops_per_cpu_s":       {Value: ops / opsCPU, Unit: "ops/cpu_s", N: int(ops), Base: map[string]float64{"ops": ops, "cpu_s": opsCPU, "gc_cpu_s": gc}},
		"query_cold_cpu_ms":   {Value: perOp(coldCPU, p.gcCold), Unit: "ms", N: len(coldCPU), Base: map[string]float64{"gc_cpu_ms": ms(p.gcCold)}},
		"query_cached_cpu_ms": {Value: perOp(cachedCPU, p.gcCached), Unit: "ms", N: len(cachedCPU), Base: map[string]float64{"gc_cpu_ms": ms(p.gcCached)}},
		"sweep_cells_per_s":   {Value: cells / sweepSec, Unit: "cells/s", N: len(sweepMS)},
		"sweep_p50_ms":        {Value: quantile(sweepMS, 0.5), Unit: "ms", N: len(sweepMS)},
		"query_cold_p50_ms":   {Value: quantile(coldMS, 0.5), Unit: "ms", N: len(coldMS)},
		"query_cached_p50_ms": {Value: quantile(cachedMS, 0.5), Unit: "ms", N: len(cachedMS)},
		"ops_per_s":           {Value: ops / p.wall.Seconds(), Unit: "ops/s", N: int(ops)},
	}
	for _, t := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"sweep_p90_ms", sweepMS, 0.9}, {"query_cold_p90_ms", coldMS, 0.9},
		{"query_cached_p90_ms", cachedMS, 0.9}, {"query_cached_p99_ms", cachedMS, 0.99}} {
		// A tail is reported only with at least 10 samples beyond it.
		if float64(len(t.xs))*(1-t.q) >= 10 {
			b.extra[t.name] = metric{Value: quantile(t.xs, t.q), Unit: "ms", N: len(t.xs)}
		}
	}
	return nil
}

// references runs every distinct sweep of the run through the library
// after the timed phase; the daemon and sharded streams must equal them.
// The CLI workload's operations are library runs already.
func (b *bench) references(lt *layers) error {
	b.refs = map[string]*refRun{}
	if b.w.name == "cli-sweep" {
		return nil
	}
	for _, p := range b.phases {
		for _, op := range p.sweeps {
			if _, done := b.refs[op.key]; done {
				continue
			}
			path := filepath.Join(b.dir, fmt.Sprintf("ref-%d.jsonl", len(b.refs)))
			start := time.Now()
			if err := lt.libraryRun(context.Background(), op.spec, path); err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			took := time.Since(start)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b.refs[op.key] = &refRun{data: data, dur: took}
		}
	}
	return nil
}

// verify checks every operation of every phase and marks the probes
// whose merged stream differs from the local run as failed.
func (b *bench) verify() {
	for _, p := range b.phases {
		for _, op := range p.sweeps {
			if op.err != nil {
				if isWrongAnswer(op.err) {
					b.problem("sweep %s: %v", op.key, op.err)
				}
				continue
			}
			data, err := os.ReadFile(op.path)
			if err != nil {
				b.problem("sweep %s: %v", op.key, err)
				continue
			}
			if ref := b.refs[op.key]; ref != nil {
				err = checkAgainst(op.spec, data, ref.data)
			} else {
				_, err = checkStream(op.spec, data)
			}
			if err == errDiverged && op.spec.probe {
				op.diverged = true
			} else if err != nil {
				b.problem("sweep %s: %v", op.key, err)
			}
		}
		for _, op := range p.queries {
			switch {
			case op.err != nil:
				// A query that failed is counted as failed, not checked.
			case op.cold == nil && op.source != hbmrd.QuerySourceColumnar:
				b.problem("cold query %s answered from %q, want columnar", op.key, op.source)
			case op.cold == nil:
				if err := checkAggregate(op.st, op.spec, op.body); err != nil {
					b.problem("cold query %s: %v", op.key, err)
				}
			case op.source != hbmrd.QuerySourceCache:
				b.problem("repeated query %s answered from %q, want cache", op.key, op.source)
			case !op.sameAsCold:
				b.problem("repeated query %s: answer differs from the cold answer", op.key)
			}
		}
	}
}

// print writes the report line and the result line.
func (b *bench) print(traced bool, seconds int) error {
	type opCount struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
	}
	ops := map[string]*opCount{}
	count := func(kind string, failed bool) {
		c := ops[kind]
		if c == nil {
			c = &opCount{}
			ops[kind] = c
		}
		c.Attempted++
		if failed {
			c.Failed++
		}
	}
	attempted, failed := 0, 0
	var errs []string
	for _, p := range b.phases {
		for _, op := range p.sweeps {
			kind := "sweep"
			if op.spec.probe {
				kind = "probe"
			}
			count(kind, !op.ok())
			if op.err != nil && !isWrongAnswer(op.err) {
				errs = append(errs, op.err.Error())
			}
		}
		for _, op := range p.queries {
			kind := "query_cached"
			if op.cold == nil {
				kind = "query_cold"
			}
			count(kind, op.err != nil)
			if op.err != nil {
				errs = append(errs, op.err.Error())
			}
		}
	}
	for _, c := range ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	details := map[string]metric{}
	values := map[string]map[string]any{}
	for _, m := range b.metrics {
		details[m.Name] = m
		values[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	rounds := []int{}
	for _, p := range b.phases {
		rounds = append(rounds, p.rounds)
	}
	report := map[string]any{
		"workload": b.w.name, "seed": b.seed, "seconds": seconds, "traced": traced, "rounds": rounds,
		"machine": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
			"go_version": runtime.Version(), "commit": commit, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
		"ops": ops, "metrics": details, "extra": b.extra, "conditions": b.cond,
		"problems": b.problems, "errors": errs, "stream_404_retries": b.streamRetries,
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{
		"correct": len(b.problems) == 0, "attempted": attempted, "failed": failed, "metrics": values,
	}); err != nil {
		return err
	}
	return out.Flush()
}
