package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"hbmrd"
)

// sweepSpec is one generated sweep: a kind, a chip set and the typed
// runner config. Exactly one of ber, hc and rp is set. The same value
// drives the library call, the daemon's wire spec and the checkers.
type sweepSpec struct {
	kind  hbmrd.SweepKind
	chips []int
	ber   *hbmrd.BERConfig
	hc    *hbmrd.HCFirstConfig
	rp    *hbmrd.RowPressHCConfig
	// probe marks the adjacent-victim sweep that exposes the known
	// sharding fault (see README).
	probe bool
}

func (s *sweepSpec) config() any {
	switch {
	case s.ber != nil:
		return *s.ber
	case s.hc != nil:
		return *s.hc
	default:
		return *s.rp
	}
}

// cells is the plan size computed from the generated dimensions alone.
func (s *sweepSpec) cells() int {
	n := len(s.chips)
	switch {
	case s.ber != nil:
		return n * len(s.ber.Channels) * len(s.ber.Pseudos) * len(s.ber.Banks) * len(s.ber.Rows)
	case s.hc != nil:
		return n * len(s.hc.Channels) * len(s.hc.Pseudos) * len(s.hc.Banks) * len(s.hc.Rows)
	default:
		return n * len(s.rp.Channels) * len(s.rp.Rows) * len(s.rp.TAggONs)
	}
}

// wire is the hbmrdd POST /sweeps body for the spec.
func (s *sweepSpec) wire() ([]byte, error) {
	cfg, err := json.Marshal(s.config())
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"kind": string(s.kind), "chips": s.chips, "identity_mapping": true, "config": json.RawMessage(cfg),
	})
}

// fleet builds a fresh fleet for the spec, the way hbmrdd resolves
// identity_mapping.
func (s *sweepSpec) fleet() ([]*hbmrd.TestChip, error) {
	return hbmrd.NewFleet(s.chips, hbmrd.WithIdentityMapping())
}

// runLibrary executes the spec through the hbmrd library into a fresh
// JSONL file at path - exactly what `hbmrd -out path` does - and returns
// the fleet it ran on. wrap, when set, interposes on the file sink (the
// traced run's timing).
func (s *sweepSpec) runLibrary(ctx context.Context, path string, wrap func(*hbmrd.JSONLFileSink) hbmrd.Sink, opts ...hbmrd.RunOption) ([]*hbmrd.TestChip, error) {
	fleet, err := s.fleet()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var sink hbmrd.Sink = hbmrd.NewJSONLFileSink(f)
	if wrap != nil {
		sink = wrap(sink.(*hbmrd.JSONLFileSink))
	}
	opts = append(opts, hbmrd.WithSink(sink))
	switch {
	case s.ber != nil:
		_, err = hbmrd.RunBERContext(ctx, fleet, *s.ber, opts...)
	case s.hc != nil:
		_, err = hbmrd.RunHCFirstContext(ctx, fleet, *s.hc, opts...)
	default:
		_, err = hbmrd.RunRowPressHCContext(ctx, fleet, *s.rp, opts...)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s sweep: %w", s.kind, err)
	}
	return fleet, nil
}

// Sweep sizes. Victim rows are drawn on a grid of victimStride physical
// rows, so two victims of one bank are never within 2 rows of each other
// (the known fault's reach) except in the probe.
const (
	victimStride = 4
	hcMaxHammer  = 300 * 1024
	hcMinHammer  = 1000
)

// gen draws every workload input from one seeded stream.
type gen struct {
	r    *rand.Rand
	seen map[string]bool
}

func newGen(seed int64) *gen {
	return &gen{r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (g *gen) pickSorted(n, of int) []int {
	out := g.r.Perm(of)[:n]
	sort.Ints(out)
	return out
}

// victimRows draws n distinct victim rows, victimStride apart at least.
func (g *gen) victimRows(n int) []int {
	slots := (hbmrd.DefaultGeometry().Rows - 6) / victimStride
	rows := g.pickSorted(n, slots)
	for i := range rows {
		rows[i] = 3 + victimStride*rows[i]
	}
	return rows
}

// sweep draws a fresh sweep of kind over channels x rows (x tAggONs for
// rowpress-hc) on one chip. Every config field is set explicitly, so the
// checkers know the plan without the runner's defaults. A spec is never
// drawn twice in one run, so every daemon submit is new work.
func (g *gen) sweep(kind hbmrd.SweepKind, channels, rows int) *sweepSpec {
	for {
		s := &sweepSpec{kind: kind, chips: []int{g.r.Intn(6)}}
		chs := g.pickSorted(channels, hbmrd.DefaultGeometry().Channels)
		vr := g.victimRows(rows)
		switch kind {
		case hbmrd.KindBER:
			s.ber = &hbmrd.BERConfig{Channels: chs, Pseudos: []int{0}, Banks: []int{0}, Rows: vr,
				Patterns: hbmrd.AllPatterns(), HammerCount: 256 * 1024, Reps: 1}
		case hbmrd.KindHCFirst:
			s.hc = &hbmrd.HCFirstConfig{Channels: chs, Pseudos: []int{0}, Banks: []int{0}, Rows: vr,
				Patterns: hbmrd.AllPatterns(), MinHammer: hcMinHammer, MaxHammer: hcMaxHammer, Reps: 1}
		case hbmrd.KindRowPressHC:
			s.rp = &hbmrd.RowPressHCConfig{Channels: chs, Rows: vr, TAggONs: rowPressTAggONs, MaxHammer: hcMaxHammer}
		default:
			panic("gen: unsupported kind " + string(kind))
		}
		key, err := s.wire()
		if err != nil {
			panic(err)
		}
		if !g.seen[string(key)] {
			g.seen[string(key)] = true
			return s
		}
	}
}

// rowPressTAggONs are the paper's Fig 15 aggressor-on times.
var rowPressTAggONs = []hbmrd.TimePS{29 * hbmrd.NS, 3_900 * hbmrd.NS, 35_100 * hbmrd.NS, 16 * hbmrd.MS}

// probeSweep is round r's adjacent-victim probe: victims 1 physical row
// apart in one bank of chip 0, channel 0, so the 2-cell plan splits into
// one shard per victim. Its rows depend on the round index only, never on
// the seed, so every run probes the same fault the same number of times
// per round.
func probeSweep(round int) *sweepSpec {
	row := 5000 + 8*(round%1000)
	return &sweepSpec{kind: hbmrd.KindHCFirst, chips: []int{0}, probe: true, hc: &hbmrd.HCFirstConfig{
		Channels: []int{0}, Pseudos: []int{0}, Banks: []int{0}, Rows: []int{row, row + 1},
		Patterns: hbmrd.AllPatterns(), MinHammer: hcMinHammer, MaxHammer: hcMaxHammer, Reps: 1,
	}}
}

// stored is one sweep the set-up ingested into a store: its fingerprint,
// kind and the benchmark's own parse of its records (for the aggregate
// checks).
type stored struct {
	fp   string
	spec *sweepSpec
	path string
	recs []rec
}

// querySpec draws one aggregation spec over a stored sweep. The grammar:
//
//	group_by: 0-2 distinct dimensions of channel, row, pattern,
//	          pattern_label, wcdp, found (hcfirst only)
//	where:    0-2 of channel eq|ne <a tested channel>, row lt|ge <a row
//	          between the victims>, wcdp eq true|false, pattern eq <name>,
//	          found eq true|false (hcfirst), <metric> gt <threshold>
//	reducers: count mean min max, plus any of stddev median box and
//	          percentiles (1-3 random p) or histogram (3-6 random edges)
//
// The caller rejects repeats, so every cold query is a distinct spec.
func (g *gen) querySpec(st *stored) hbmrd.QuerySpec {
	isHC := st.spec.hc != nil
	dims := []string{"channel", "row", "pattern", "pattern_label", "wcdp"}
	metric := "ber_percent"
	if isHC {
		dims = append(dims, "found")
		metric = "hcfirst"
	}
	q := hbmrd.QuerySpec{Sweep: st.fp, Metric: metric}
	for _, i := range g.r.Perm(len(dims))[:g.r.Intn(3)] {
		q.GroupBy = append(q.GroupBy, dims[i])
	}
	chs, rows := st.channels(), st.rows()
	for n := g.r.Intn(3); n > 0; n-- {
		var c hbmrd.QueryCond
		switch g.r.Intn(6) {
		case 0:
			c = hbmrd.QueryCond{Dim: "channel", Op: []string{"eq", "ne"}[g.r.Intn(2)], Value: strconv.Itoa(chs[g.r.Intn(len(chs))])}
		case 1:
			c = hbmrd.QueryCond{Dim: "row", Op: []string{"lt", "ge"}[g.r.Intn(2)], Value: strconv.Itoa(rows[g.r.Intn(len(rows))] + g.r.Intn(3))}
		case 2:
			c = hbmrd.QueryCond{Dim: "wcdp", Op: "eq", Value: strconv.FormatBool(g.r.Intn(2) == 0)}
		case 3:
			c = hbmrd.QueryCond{Dim: "pattern", Op: "eq", Value: hbmrd.AllPatterns()[g.r.Intn(4)].String()}
		case 4:
			if isHC {
				c = hbmrd.QueryCond{Dim: "found", Op: "eq", Value: strconv.FormatBool(g.r.Intn(4) != 0)}
			} else {
				c = hbmrd.QueryCond{Dim: "wcdp", Op: "eq", Value: "false"}
			}
		default:
			threshold := strconv.FormatFloat(g.r.Float64()*0.02, 'f', 4, 64)
			if isHC {
				threshold = strconv.Itoa(hcMinHammer + g.r.Intn(60_000))
			}
			c = hbmrd.QueryCond{Dim: metric, Op: "gt", Value: threshold}
		}
		q.Where = append(q.Where, c)
	}
	q.Reducers = []string{"count", "mean", "min", "max"}
	for _, extra := range []string{"stddev", "median", "box"} {
		if g.r.Intn(2) == 0 {
			q.Reducers = append(q.Reducers, extra)
		}
	}
	if g.r.Intn(2) == 0 {
		q.Reducers = append(q.Reducers, "percentiles")
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			q.Percentiles = append(q.Percentiles, float64(1+g.r.Intn(9999))/100)
		}
	} else {
		q.Reducers = append(q.Reducers, "histogram")
		top := 0.05
		if isHC {
			top = hcMaxHammer
		}
		edge := 0.0
		for n := 3 + g.r.Intn(4); n > 0; n-- {
			q.Edges = append(q.Edges, edge)
			edge += top * (0.05 + g.r.Float64()) / 3
		}
	}
	return q
}

func (st *stored) channels() []int {
	if st.spec.ber != nil {
		return st.spec.ber.Channels
	}
	return st.spec.hc.Channels
}

func (st *stored) rows() []int {
	if st.spec.ber != nil {
		return st.spec.ber.Rows
	}
	return st.spec.hc.Rows
}
