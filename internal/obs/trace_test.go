package obs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/stats"
)

func testMeta() Meta {
	return Meta{
		Program:   "synthetic",
		Scheme:    "TPI",
		Procs:     4,
		LineWords: 4,
		MemWords:  64,
		Arrays: []ArraySpan{
			{Name: "A", Base: 0, Size: 32},
			{Name: "B", Base: 32, Size: 16},
			{Name: "x", Base: 48, Size: 1},
		},
		Refs: []RefInfo{
			{Pos: "3:5", Proc: "main", Array: "A", Mark: "time-read", Window: 2},
			{Pos: "4:1", Proc: "main", Array: "B", Mark: "write", Write: true},
		},
	}
}

// TestTraceRoundTrip encodes a synthetic event stream, decodes it, and
// compares every record field-for-field.
func TestTraceRoundTrip(t *testing.T) {
	meta := testMeta()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, &meta)
	if err != nil {
		t.Fatalf("NewTraceWriter: %v", err)
	}
	tw.epoch(1, 0)
	tw.read(2, 33, 0, 1, int8(stats.MissCold), 120)
	tw.read(0, 5, -1, 0, -1, 0) // hit, no static ref
	tw.write(3, 48, 1, false, int8(stats.MissBypass), 0)
	tw.reset(4, 17)
	tw.inval(1, 2, 40, uint8(stats.MissFalseSharing))
	tw.end(2, 1, 999)
	if err := tw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewTraceReader: %v", err)
	}
	if !reflect.DeepEqual(*tr.Meta(), meta) {
		t.Fatalf("meta round-trip mismatch:\n got %+v\nwant %+v", *tr.Meta(), meta)
	}

	want := []Event{
		{Op: OpEpoch, Epoch: 1, Cycle: 0},
		{Op: OpRead, Proc: 2, Addr: 33, Ref: 0, Kind: 1, Class: int8(stats.MissCold), Stall: 120},
		{Op: OpRead, Proc: 0, Addr: 5, Ref: -1, Kind: 0, Class: -1, Stall: 0},
		{Op: OpWrite, Proc: 3, Addr: 48, Ref: 1, Crit: false, Class: int8(stats.MissBypass), Stall: 0},
		{Op: OpReset, Epoch: 4, Words: 17},
		{Op: OpInval, From: 1, Proc: 2, Addr: 40, Class: int8(stats.MissFalseSharing)},
		{Op: OpEnd, Reads: 2, Writes: 1, Cycle: 999},
	}
	for i, w := range want {
		ev, err := tr.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !reflect.DeepEqual(ev, w) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, ev, w)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last record, got %v", err)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestReplayAggregates(t *testing.T) {
	meta := testMeta()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, &meta)
	if err != nil {
		t.Fatal(err)
	}
	tw.epoch(1, 0)
	tw.read(0, 0, 0, 1, int8(stats.MissCold), 100)     // array A miss
	tw.read(0, 1, 0, 1, -1, 0)                         // array A hit
	tw.write(1, 32, 1, false, int8(stats.MissCold), 0) // array B write miss
	tw.epoch(2, 500)
	tw.read(2, 0, 0, 1, int8(stats.MissConservative), 80)
	tw.reset(2, 9)
	tw.inval(0, 3, 32, uint8(stats.MissTrueSharing))
	tw.end(3, 1, 1000)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.TotalCycles != 1000 {
		t.Errorf("TotalCycles = %d, want 1000", rep.TotalCycles)
	}
	rm := rep.ReadMissTotals()
	if rm[stats.MissCold] != 1 || rm[stats.MissConservative] != 1 || rm.Total() != 2 {
		t.Errorf("read miss totals = %+v", rm)
	}
	if wm := rep.WriteMissTotals(); wm[stats.MissCold] != 1 || wm.Total() != 1 {
		t.Errorf("write miss totals = %+v", wm)
	}
	// Epoch attribution: conservative miss and reset land in epoch 2.
	var e2 *EpochRow
	for i := range rep.Epochs {
		if rep.Epochs[i].Epoch == 2 {
			e2 = &rep.Epochs[i]
		}
	}
	if e2 == nil {
		t.Fatal("no epoch-2 row")
	}
	if e2.ReadMisses[stats.MissConservative] != 1 || e2.TimetagResets != 1 || e2.ResetInvalidations != 9 || e2.Invalidations != 1 {
		t.Errorf("epoch 2 row = %+v", *e2)
	}
	// Array attribution.
	byName := map[string]ArrayRow{}
	for _, a := range rep.Arrays {
		byName[a.Name] = a
	}
	if a := byName["A"]; a.Reads != 3 || a.ReadMisses[stats.MissCold] != 1 || a.ReadMisses[stats.MissConservative] != 1 {
		t.Errorf("array A row = %+v", a)
	}
	if b := byName["B"]; b.Writes != 1 || b.WriteMisses[stats.MissCold] != 1 {
		t.Errorf("array B row = %+v", b)
	}
	// Ref attribution: ref 0 executed 3 reads, 2 misses.
	if len(rep.Refs) == 0 || rep.Refs[0].Count != 3 || rep.Refs[0].Misses.Total() != 2 {
		t.Errorf("ref rows = %+v", rep.Refs)
	}
	// Top conservative.
	top := rep.TopConservative(5)
	if len(top) != 1 || top[0].ID != 0 || top[0].Misses[stats.MissConservative] != 1 {
		t.Errorf("TopConservative = %+v", top)
	}
}

func TestReplayDetectsTruncatedTotals(t *testing.T) {
	meta := testMeta()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, &meta)
	if err != nil {
		t.Fatal(err)
	}
	tw.epoch(1, 0)
	tw.read(0, 0, -1, 0, -1, 0)
	tw.end(5, 0, 10) // claims 5 reads; stream has 1
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want totals-mismatch error")
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{"off", LevelOff, false},
		{"", LevelOff, false},
		{"counters", LevelCounters, false},
		{"trace", LevelTrace, false},
		{"bogus", LevelOff, true},
	} {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestLatencyBuckets(t *testing.T) {
	if latBucket(0) != 0 || latBucket(1) != 0 {
		t.Error("stall 0/1 should land in the first bucket")
	}
	if latBucket(1025) != numLatBuckets-1 {
		t.Error("huge stall should land in the overflow bucket")
	}
	// Buckets must cover [0, inf) contiguously.
	prev := int64(-1)
	for _, b := range LatencyBucketBounds {
		if b <= prev {
			t.Fatalf("bounds not increasing: %v", LatencyBucketBounds)
		}
		prev = b
	}
}

// TestArrayAttribution: a reference is attributed to the array span
// holding its address, found by search over spans given in any order;
// padding, addresses outside the segment and empty spans attribute to
// none, and overlapping spans are an error, not a panic.
func TestArrayAttribution(t *testing.T) {
	meta := Meta{
		Scheme: "TPI", Procs: 1, LineWords: 4, MemWords: 64,
		Arrays: []ArraySpan{
			{Name: "B", Base: 32, Size: 16},
			{Name: "x", Base: 48, Size: 1},
			{Name: "empty", Base: 50, Size: 0},
			{Name: "A", Base: 4, Size: 24},
		},
	}
	rec, err := NewRecorder(LevelCounters, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{-1, 0, 3, 4, 27, 28, 31, 32, 47, 48, 49, 50, 63, 64, 1 << 40} {
		rec.Read(0, prog.Word(addr), -1, 0, -1, 0)
		rec.Write(0, prog.Word(addr), -1, false, -1, 0)
	}
	rep, err := rec.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"A": 2, "B": 2, "x": 1, "empty": 0}
	for _, row := range rep.Arrays {
		if row.Reads != want[row.Name] || row.Writes != want[row.Name] {
			t.Errorf("array %s: %d reads, %d writes, want %d of each", row.Name, row.Reads, row.Writes, want[row.Name])
		}
	}

	meta.Arrays = append(meta.Arrays, ArraySpan{Name: "C", Base: 40, Size: 4})
	if _, err := NewRecorder(LevelCounters, meta, nil); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping spans: err = %v, want an overlap error", err)
	}
}
