package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"hbmrd"
	"hbmrd/internal/store"
)

// flipDigit returns a copy of data with the digit at i replaced by
// another non-zero one, so the JSON stays well-formed (no leading zero).
func flipDigit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] = '1' + (out[i]-'0')%9
	return out
}

// mergedAndLocal runs s through the sharded environment e and through the
// library, and returns both streams.
func mergedAndLocal(t *testing.T, e env, s *sweepSpec, dir string) (merged, local []byte) {
	t.Helper()
	mergedPath, localPath := filepath.Join(dir, "merged.jsonl"), filepath.Join(dir, "local.jsonl")
	if err := e.sweep(context.Background(), s, mergedPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.runLibrary(context.Background(), localPath, nil); err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	local, err = os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	return merged, local
}

func digits(data []byte, from int) []int {
	var out []int
	for i := from; i < len(data); i++ {
		if data[i] >= '0' && data[i] <= '9' {
			out = append(out, i)
		}
	}
	return out
}

// TestStreamCheckerRejectsAnyFlippedRecordDigit flips, one at a time,
// every digit of every record of a BER stream: coordinates, BER values
// and the WCDP copy. The record checker must reject each.
func TestStreamCheckerRejectsAnyFlippedRecordDigit(t *testing.T) {
	s := newGen(7).sweep(hbmrd.KindBER, 2, 3)
	path := filepath.Join(t.TempDir(), "ber.jsonl")
	if _, err := s.runLibrary(context.Background(), path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkStream(s, data); err != nil {
		t.Fatalf("checker rejects the program's own stream: %v", err)
	}
	for _, i := range digits(data, bytes.IndexByte(data, '\n')+1) {
		if _, err := checkStream(s, flipDigit(data, i)); err == nil {
			t.Errorf("digit flip at byte %d passed the record checker", i)
		}
	}
}

// TestAggregateCheckerRejectsFlippedStoredAggregate flips a digit of the
// count, mean, min and max in the derived-result cache's stored copy of
// an answer. The cached answer that comes back must fail the aggregate
// check and differ from the cold answer.
func TestAggregateCheckerRejectsFlippedStoredAggregate(t *testing.T) {
	dir := t.TempDir()
	g := newGen(8)
	s := g.sweep(hbmrd.KindHCFirst, 2, 4)
	path := filepath.Join(dir, "hc.jsonl")
	if _, err := s.runLibrary(context.Background(), path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := checkStream(s, data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := hbmrd.IngestSweep(st, path)
	if err != nil {
		t.Fatal(err)
	}
	sd := &stored{fp: meta.Fingerprint, spec: s, path: path, recs: recs}
	q := hbmrd.QuerySpec{Sweep: sd.fp, Metric: "hcfirst", GroupBy: []string{"channel"},
		Reducers: []string{"count", "mean", "min", "max"}}
	engine := hbmrd.NewQueryEngine(st)
	cold, err := engine.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAggregate(sd, q, cold.JSON); err != nil {
		t.Fatalf("checker rejects the program's own answer: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "store", "derived", "*", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("derived cache holds %v (%v), want one answer", files, err)
	}
	for _, field := range []string{`"count":`, `"mean":`, `"min":`, `"max":`} {
		i := bytes.Index(cold.JSON, []byte(field)) + len(field)
		if err := os.WriteFile(files[0], flipDigit(cold.JSON, i), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("%s flip: answer did not come from the cache", field)
		}
		if checkAggregate(sd, q, res.JSON) == nil {
			t.Errorf("%s flip passed the aggregate checker", field)
		}
		if bytes.Equal(res.JSON, cold.JSON) {
			t.Errorf("%s flip: cached answer equals the cold one", field)
		}
	}
}

// TestMergedStreamCheckerRejectsFlippedDigit runs one sweep through an
// in-process coordinator and two workers, checks the merged stream
// against the library run, then flips each digit of its records.
func TestMergedStreamCheckerRejectsFlippedDigit(t *testing.T) {
	dir := t.TempDir()
	e, _, err := setup(context.Background(), workloads[2], 9, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s := newGen(9).sweep(hbmrd.KindHCFirst, 2, 3)
	merged, ref := mergedAndLocal(t, e, s, dir)
	if err := checkAgainst(s, merged, ref); err != nil {
		t.Fatalf("checker rejects the program's own merged stream: %v", err)
	}
	for _, i := range digits(merged, bytes.IndexByte(merged, '\n')+1) {
		if checkAgainst(s, flipDigit(merged, i), ref) == nil {
			t.Errorf("digit flip at byte %d passed the merged-stream checker", i)
		}
	}
}

// TestProbeExposesTheShardingFault pins the known fault the
// sharded-sweep workload counts: adjacent victims split across shards
// differ from the whole run, victims victimStride apart do not.
func TestProbeExposesTheShardingFault(t *testing.T) {
	dir := t.TempDir()
	e, _, err := setup(context.Background(), workloads[2], 10, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	spaced := probeSweep(0)
	spaced.probe = false
	spaced.hc.Rows = []int{5000, 5000 + victimStride}
	for _, s := range []*sweepSpec{probeSweep(0), spaced} {
		merged, ref := mergedAndLocal(t, e, s, dir)
		err := checkAgainst(s, merged, ref)
		if s.probe && err != errDiverged {
			t.Errorf("adjacent victims: got %v, want the sharded stream to diverge", err)
		}
		if !s.probe && err != nil {
			t.Errorf("victims %d rows apart: %v", victimStride, err)
		}
	}
}
