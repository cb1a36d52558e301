package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"hbmrd"
)

// rec is the benchmark's own parse of one record line. It reads the JSON
// field names directly instead of going through the program's decoder,
// so a decoder fault cannot hide a wrong stream.
type rec struct {
	Chip, Channel, Pseudo, Bank, Row int
	Pattern                          string
	WCDP                             bool
	BERPercent                       float64
	HCFirst                          int
	Found                            bool
	TAggON                           int64
	WithinWindow                     bool
}

type header struct {
	Format      int    `json:"hbmrd_sweep"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Parent      string `json:"parent"`
}

// checkStream verifies one sweep stream against the spec that produced
// it and returns the parsed records. It checks the header (kind, plan
// size, fingerprint), the plan-order layout of every cell, the WCDP
// derivation, value ranges, BER granularity at one repetition, and that
// decode -> encode reproduces the stream byte for byte.
func checkStream(s *sweepSpec, data []byte) ([]rec, error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, errors.New("stream does not end in a newline")
	}
	var h header
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Format == 0 {
		return nil, fmt.Errorf("bad header %q", lines[0])
	}
	if h.Kind != string(s.kind) || h.Cells != s.cells() || h.Parent != "" {
		return nil, fmt.Errorf("header kind %q cells %d parent %q, want %q %d none", h.Kind, h.Cells, h.Parent, s.kind, s.cells())
	}
	fleet, err := s.fleet()
	if err != nil {
		return nil, err
	}
	fp, err := hbmrd.SweepFingerprint(s.kind, fleet, s.config())
	if err != nil {
		return nil, err
	}
	if h.Fingerprint != fp {
		return nil, fmt.Errorf("header fingerprint %s, want %s", h.Fingerprint, fp)
	}
	recs := make([]rec, len(lines)-1)
	for i, l := range lines[1:] {
		if err := json.Unmarshal(l, &recs[i]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if err := checkLayout(s, recs); err != nil {
		return nil, err
	}
	hd, typed, err := hbmrd.DecodeSweepRecords(s.kind, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	var re bytes.Buffer
	if err := hbmrd.EncodeSweepRecords(&re, hd, typed); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	if !bytes.Equal(re.Bytes(), data) {
		return nil, errors.New("decode -> encode does not reproduce the stream")
	}
	return recs, nil
}

// checkLayout walks the plan in config order and matches every cell's
// records against it.
func checkLayout(s *sweepSpec, recs []rec) error {
	next := 0
	take := func() (*rec, error) {
		if next >= len(recs) {
			return nil, fmt.Errorf("stream ends after %d records", len(recs))
		}
		next++
		return &recs[next-1], nil
	}
	at := func(r *rec, chip, ch, pc, bank, row int) error {
		if r.Chip != chip || r.Channel != ch || r.Pseudo != pc || r.Bank != bank || r.Row != row {
			return fmt.Errorf("record %d at chip %d ch %d pc %d bank %d row %d, want %d %d %d %d %d",
				next-1, r.Chip, r.Channel, r.Pseudo, r.Bank, r.Row, chip, ch, pc, bank, row)
		}
		return nil
	}
	for _, chip := range s.chips {
		switch {
		case s.rp != nil:
			c := s.rp
			for _, ch := range c.Channels {
				for _, row := range c.Rows {
					for _, t := range c.TAggONs {
						r, err := take()
						if err != nil {
							return err
						}
						if err := at(r, chip, ch, 0, 0, row); err != nil {
							return err
						}
						if r.TAggON != int64(t) {
							return fmt.Errorf("record %d tAggON %d, want %d", next-1, r.TAggON, t)
						}
						if err := hcRange(r, 1, c.MaxHammer); err != nil {
							return err
						}
						if r.WithinWindow && !r.Found {
							return fmt.Errorf("record %d within the window without a flip", next-1)
						}
					}
				}
			}
		case s.ber != nil:
			c := s.ber
			for _, ch := range c.Channels {
				for _, pc := range c.Pseudos {
					for _, bank := range c.Banks {
						for _, row := range c.Rows {
							var best *rec
							for _, p := range c.Patterns {
								r, err := take()
								if err != nil {
									return err
								}
								if err := at(r, chip, ch, pc, bank, row); err != nil {
									return err
								}
								if r.Pattern != p.String() || r.WCDP {
									return fmt.Errorf("record %d pattern %s wcdp %v, want %s", next-1, r.Pattern, r.WCDP, p)
								}
								// At one repetition a BER is exactly a whole
								// number of flipped bits over the row's bits.
								flips := math.Round(r.BERPercent * hbmrd.RowBits / 100)
								if c.Reps == 1 && r.BERPercent != flips/hbmrd.RowBits*100 {
									return fmt.Errorf("record %d BER %v%% is not a whole number of flipped bits", next-1, r.BERPercent)
								}
								if r.BERPercent < 0 || r.BERPercent > 100 {
									return fmt.Errorf("record %d BER %v%% out of range", next-1, r.BERPercent)
								}
								if best == nil || r.BERPercent > best.BERPercent {
									best = r
								}
							}
							w, err := take()
							if err != nil {
								return err
							}
							if want := *best; !w.WCDP || w.Pattern != want.Pattern || w.BERPercent != want.BERPercent {
								return fmt.Errorf("record %d WCDP %s %v, want the maximum %s %v", next-1, w.Pattern, w.BERPercent, want.Pattern, want.BERPercent)
							}
							if err := at(w, chip, ch, pc, bank, row); err != nil {
								return err
							}
						}
					}
				}
			}
		default:
			c := s.hc
			for _, ch := range c.Channels {
				for _, pc := range c.Pseudos {
					for _, bank := range c.Banks {
						for _, row := range c.Rows {
							var best *rec
							for _, p := range c.Patterns {
								r, err := take()
								if err != nil {
									return err
								}
								if err := at(r, chip, ch, pc, bank, row); err != nil {
									return err
								}
								if r.Pattern != p.String() || r.WCDP {
									return fmt.Errorf("record %d pattern %s wcdp %v, want %s", next-1, r.Pattern, r.WCDP, p)
								}
								if err := hcRange(r, c.MinHammer, c.MaxHammer); err != nil {
									return err
								}
								if r.Found && (best == nil || r.HCFirst < best.HCFirst) {
									best = r
								}
							}
							if best == nil {
								continue // no flip in any pattern: no WCDP record
							}
							w, err := take()
							if err != nil {
								return err
							}
							if want := *best; !w.WCDP || !w.Found || w.Pattern != want.Pattern || w.HCFirst != want.HCFirst {
								return fmt.Errorf("record %d WCDP %s %d, want the minimum %s %d", next-1, w.Pattern, w.HCFirst, want.Pattern, want.HCFirst)
							}
							if err := at(w, chip, ch, pc, bank, row); err != nil {
								return err
							}
						}
					}
				}
			}
		}
	}
	if next != len(recs) {
		return fmt.Errorf("%d records beyond the plan", len(recs)-next)
	}
	return nil
}

// errDiverged reports a well-formed stream whose bytes differ from the
// library run of the same spec.
var errDiverged = errors.New("stream differs from the library run of the same spec")

// checkAgainst verifies a stream the daemon or the fabric produced: it
// must pass checkStream and equal the library run's bytes.
func checkAgainst(s *sweepSpec, got, ref []byte) error {
	if _, err := checkStream(s, got); err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return errDiverged
	}
	return nil
}

func hcRange(r *rec, lo, hi int) error {
	if r.Found && (r.HCFirst < lo || r.HCFirst > hi) {
		return fmt.Errorf("found HCfirst %d outside [%d, %d]", r.HCFirst, lo, hi)
	}
	if !r.Found && r.HCFirst != 0 {
		return fmt.Errorf("HCfirst %d on a record without a flip", r.HCFirst)
	}
	return nil
}

// aggregate is the part of a query answer the checker verifies.
type aggregate struct {
	Format  int    `json:"hbmrd_query"`
	Sweep   string `json:"sweep"`
	Kind    string `json:"kind"`
	Records int    `json:"records"`
	Matched int    `json:"matched"`
	Groups  []struct {
		Key   []string `json:"key"`
		Count int      `json:"count"`
		Mean  *float64 `json:"mean"`
		Min   *float64 `json:"min"`
		Max   *float64 `json:"max"`
	} `json:"groups"`
}

// dimValue renders a record's dimension the way group keys print, and
// says whether it compares numerically.
func dimValue(r *rec, dim string) (string, bool) {
	switch dim {
	case "chip":
		return strconv.Itoa(r.Chip), true
	case "channel":
		return strconv.Itoa(r.Channel), true
	case "pseudo":
		return strconv.Itoa(r.Pseudo), true
	case "bank":
		return strconv.Itoa(r.Bank), true
	case "row":
		return strconv.Itoa(r.Row), true
	case "pattern":
		return r.Pattern, false
	case "pattern_label":
		if r.WCDP {
			return "WCDP", false
		}
		return r.Pattern, false
	case "wcdp":
		return strconv.FormatBool(r.WCDP), false
	case "found":
		return strconv.FormatBool(r.Found), false
	case "hcfirst":
		return strconv.Itoa(r.HCFirst), true
	case "ber_percent":
		return strconv.FormatFloat(r.BERPercent, 'g', -1, 64), true
	}
	panic("check: unknown dimension " + dim)
}

func metricValue(r *rec, metric string) float64 {
	if metric == "hcfirst" {
		return float64(r.HCFirst) // 0 when no flip was found
	}
	return r.BERPercent
}

// matches applies one filter: numeric when both sides are numbers,
// lexicographic otherwise.
func matches(r *rec, c hbmrd.QueryCond) bool {
	v, numeric := dimValue(r, c.Dim)
	cmp := strings.Compare(v, c.Value)
	if want, err := strconv.ParseFloat(c.Value, 64); err == nil && numeric {
		got, _ := strconv.ParseFloat(v, 64)
		cmp = 0
		if got < want {
			cmp = -1
		} else if got > want {
			cmp = 1
		}
	}
	switch c.Op {
	case "eq":
		return cmp == 0
	case "ne":
		return cmp != 0
	case "lt":
		return cmp < 0
	case "ge":
		return cmp >= 0
	case "gt":
		return cmp > 0
	case "le":
		return cmp <= 0
	}
	panic("check: unknown op " + c.Op)
}

// checkAggregate recomputes a query answer from the benchmark's own
// parse of the stored records: every group's count, min and max must be
// equal and its mean within 1e-9 relative.
func checkAggregate(st *stored, q hbmrd.QuerySpec, body []byte) error {
	var a aggregate
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("query answer: %w", err)
	}
	type acc struct {
		n             int
		sum, min, max float64
	}
	want := map[string]*acc{}
	matched := 0
recLoop:
	for i := range st.recs {
		r := &st.recs[i]
		for _, c := range q.Where {
			if !matches(r, c) {
				continue recLoop
			}
		}
		matched++
		var key []string
		for _, g := range q.GroupBy {
			v, _ := dimValue(r, g)
			key = append(key, v)
		}
		k := strings.Join(key, "\x1f")
		v := metricValue(r, q.Metric)
		if g := want[k]; g == nil {
			want[k] = &acc{n: 1, sum: v, min: v, max: v}
		} else {
			g.n++
			g.sum += v
			g.min = math.Min(g.min, v)
			g.max = math.Max(g.max, v)
		}
	}
	if a.Sweep != st.fp || a.Kind != string(st.spec.kind) || a.Records != len(st.recs) || a.Matched != matched {
		return fmt.Errorf("answer sweep %s kind %s records %d matched %d, want %s %s %d %d",
			a.Sweep, a.Kind, a.Records, a.Matched, st.fp, st.spec.kind, len(st.recs), matched)
	}
	if len(a.Groups) != len(want) {
		return fmt.Errorf("answer has %d groups, want %d", len(a.Groups), len(want))
	}
	for _, g := range a.Groups {
		w := want[strings.Join(g.Key, "\x1f")]
		if w == nil {
			return fmt.Errorf("answer has an unexpected group %v", g.Key)
		}
		mean := w.sum / float64(w.n)
		if g.Count != w.n || g.Min == nil || *g.Min != w.min || g.Max == nil || *g.Max != w.max ||
			g.Mean == nil || math.Abs(*g.Mean-mean) > 1e-9*math.Max(math.Abs(mean), 1e-300) {
			return fmt.Errorf("group %v: count %d min %v max %v mean %v, want %d %v %v %v",
				g.Key, g.Count, deref(g.Min), deref(g.Max), deref(g.Mean), w.n, w.min, w.max, mean)
		}
	}
	return nil
}

func deref(p *float64) any {
	if p == nil {
		return nil
	}
	return *p
}
