package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hbmrd"
)

// phase is one pass of the closed loop: every operation with its timing
// and output, in the order it ran.
type phase struct {
	sweeps  []*sweepOp
	queries []*queryOp
	wall    time.Duration
	// gcSweeps, gcCold and gcCached are the CPU time of the collections
	// that follow each block of sweeps, cold queries and cached queries.
	gcSweeps, gcCold, gcCached time.Duration
	rounds                     int
}

type sweepOp struct {
	spec *sweepSpec
	key  string // the wire spec, which identifies the sweep
	path string // the stream; read back only by the checks
	dur  time.Duration
	cpu  time.Duration // process CPU time the operation took (see cpuNow)
	// alloc is the heap bytes the process allocated during the operation.
	alloc uint64
	// written is the bytes the process wrote (files and sockets) during it.
	written uint64
	err     error
	// diverged marks a probe whose merged stream differs from the
	// library run: the known sharding fault, counted as a failed
	// operation.
	diverged bool
}

func (op *sweepOp) ok() bool { return op.err == nil && !op.diverged }

type queryOp struct {
	spec   hbmrd.QuerySpec
	key    string // canonical spec
	st     *stored
	cold   *queryOp // the first answer of this spec; nil on a cold query
	body   []byte   // kept for cold queries only
	source string
	// sameAsCold records whether a repeated query's answer was
	// byte-identical to the cold one; the body itself is not kept, so
	// the benchmark's own memory does not grow with the run.
	sameAsCold bool
	dur        time.Duration
	cpu        time.Duration
	alloc      uint64
	err        error
}

// settle ends a block of operations. It collects the block's garbage,
// adding the CPU time that takes to *gc, so every block starts on a clean
// heap and pays for its own collection rather than for a share of
// whichever collection the Go runtime happened to start during it. Then
// it writes back what the block left dirty (not timed), so an fsync inside
// the next block (the store's finalize and derived-cache writes) flushes
// only its own data, not a backlog whose size depends on how fast the
// host ran.
func settle(gc *time.Duration) {
	c := cpuNow()
	runtime.GC()
	if gc != nil {
		*gc += cpuNow() - c
	}
	syscall.Sync()
}

// recentColds is how many of the latest cold specs the repeats cycle
// through.
const recentColds = 16

// loop runs whole rounds: at least rounds of them and until the deadline
// has passed, or exactly rounds when the deadline is zero. roundDone,
// when set, is called after each round with the number of rounds done.
// The inputs are a pure function of the seed and the round index.
func (b *bench) loop(e env, dir string, deadline time.Time, rounds int, roundDone func(int)) *phase {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	g := newGen(b.seed)
	p := &phase{}
	var colds []*queryOp
	seen := map[string]bool{}
	start := time.Now()
	more := func(r int) bool {
		if deadline.IsZero() || r < rounds {
			return r < rounds
		}
		return time.Now().Before(deadline)
	}
	settle(nil)
	for r := 0; more(r); r++ {
		for i, s := range b.w.round(g, r) {
			key, err := s.wire()
			if err != nil {
				panic(err)
			}
			op := &sweepOp{spec: s, key: string(key), path: filepath.Join(dir, fmt.Sprintf("op-%d-%d.jsonl", r, i))}
			t, c, a, w := time.Now(), cpuNow(), allocBytes(), writtenBytes()
			op.err = e.sweep(context.Background(), s, op.path)
			op.dur, op.cpu, op.alloc, op.written = time.Since(t), cpuNow()-c, allocBytes()-a, writtenBytes()-w
			p.sweeps = append(p.sweeps, op)
		}
		settle(&p.gcSweeps)
		for k := 0; k < b.w.cold; k++ {
			// The stored sweeps take turns, so every run asks the same
			// mix of ber and hcfirst queries.
			st := b.stored[(r*b.w.cold+k)%len(b.stored)]
			var q hbmrd.QuerySpec
			var key string
			for key == "" || seen[key] {
				q = g.querySpec(st)
				ck, err := q.CanonicalJSON()
				if err != nil {
					panic(fmt.Sprintf("generated an invalid query spec: %v", err))
				}
				key = string(ck)
			}
			seen[key] = true
			if cold := p.query(e, &queryOp{spec: q, key: key, st: st}); cold.err == nil {
				colds = append(colds, cold)
			}
		}
		settle(&p.gcCold)
		// Repeats cycle through the latest cold specs, so every spec is
		// repeated about as often as the others and no early one weighs on
		// a whole run's cached figures.
		for k := 0; k < b.w.cached && len(colds) > 0; k++ {
			c := colds[len(colds)-1-(r*b.w.cached+k)%min(len(colds), recentColds)]
			p.query(e, &queryOp{spec: c.spec, key: c.key, st: c.st, cold: c})
		}
		settle(&p.gcCached)
		p.rounds = r + 1
		if roundDone != nil {
			roundDone(p.rounds)
		}
	}
	p.wall = time.Since(start)
	b.phases = append(b.phases, p)
	return p
}

func (p *phase) query(e env, op *queryOp) *queryOp {
	t, c, a := time.Now(), cpuNow(), allocBytes()
	op.body, op.source, op.err = e.query(op.spec)
	op.dur, op.cpu, op.alloc = time.Since(t), cpuNow()-c, allocBytes()-a
	if op.cold != nil {
		op.sameAsCold = bytes.Equal(op.body, op.cold.body)
		op.body = nil
	}
	p.queries = append(p.queries, op)
	return op
}

// queryMS lists the wall-clock latencies of the phase's successful cold
// (or repeated) queries, their CPU times and the KiB each allocated.
func (p *phase) queryMS(cold bool) (wall, cpu, allocKiB []float64) {
	for _, op := range p.queries {
		if op.err == nil && (op.cold == nil) == cold {
			wall = append(wall, ms(op.dur))
			cpu = append(cpu, ms(op.cpu))
			allocKiB = append(allocKiB, float64(op.alloc)/1024)
		}
	}
	return wall, cpu, allocKiB
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// trimmedMean is the mean of xs without its lowest and highest tenth:
// the answers of a few generated query specs are far larger than the
// rest, and whether a run draws one should not move its figure much.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return 0
	}
	return sum(s) / float64(len(s))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
