package obs

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
)

// rawTrace frames a header payload as a trace stream, bypassing the
// writer so tests can encode headers it never would.
func rawTrace(header []byte) []byte {
	b := binary.AppendUvarint(traceMagic[:], uint64(len(header)))
	return append(b, header...)
}

// headerPrefix encodes a header's fields up to the data segment size.
func headerPrefix(m *Meta, procs, memWords uint64) []byte {
	b := appendString(nil, m.Program)
	b = appendString(b, m.Scheme)
	b = binary.AppendUvarint(b, procs)
	b = binary.AppendUvarint(b, uint64(m.LineWords))
	return binary.AppendUvarint(b, memWords)
}

// headerWith encodes testMeta's header with the processor count and data
// segment replaced by the given raw values.
func headerWith(procs, memWords uint64) []byte {
	m := testMeta()
	rest := encodeMeta(&m)[len(headerPrefix(&m, uint64(m.Procs), uint64(m.MemWords))):]
	return append(headerPrefix(&m, procs, memWords), rest...)
}

// traceWith writes a trace over testMeta's header; emit may pass the
// writer values a valid run never produces.
func traceWith(t *testing.T, emit func(tw *TraceWriter)) []byte {
	t.Helper()
	meta := testMeta()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, &meta)
	if err != nil {
		t.Fatal(err)
	}
	emit(tw)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceRejectsCorruptInput: every malformed header or record is an
// error from Replay — never a panic, never an unbounded allocation.
func TestTraceRejectsCorruptInput(t *testing.T) {
	meta := testMeta()
	records := func(emit func(tw *TraceWriter)) []byte {
		return traceWith(t, func(tw *TraceWriter) {
			tw.epoch(1, 0)
			emit(tw)
		})
	}
	cases := []struct {
		name  string
		trace []byte
		want  string
	}{
		{"string length past 2^63", rawTrace(binary.AppendUvarint(nil, 1<<63+5)), "out of range"},
		{"string length past payload", rawTrace(binary.AppendUvarint(nil, 9)), "out of range"},
		{"procs past 2^63", rawTrace(headerWith(1<<63, 64)), "out of range"},
		{"procs past MaxProcs", rawTrace(headerWith(machine.MaxProcs+1, 64)), "processor count"},
		{"segment past MaxTraceMemWords", rawTrace(headerWith(4, machine.MaxMemWords+1)), "data segment"},
		{"array outside segment", rawTrace(headerWith(4, 40)), "leaves the 40-word segment"},
		{"array count past payload", rawTrace(binary.AppendUvarint(headerPrefix(&meta, 4, 64), 9)), "length"},
		{"proc out of range", records(func(tw *TraceWriter) { tw.read(4, 0, 0, 0, -1, 0) }), "processor 4"},
		{"address out of range", records(func(tw *TraceWriter) { tw.write(0, 64, 0, false, -1, 0) }), "address 64"},
		{"read kind out of range", records(func(tw *TraceWriter) { tw.read(0, 0, 0, 3, -1, 0) }), "read kind 3"},
		{"miss class out of range", records(func(tw *TraceWriter) { tw.read(0, 0, 0, 0, int8(stats.NumMissClasses), 0) }), "miss class"},
		{"reference out of range", records(func(tw *TraceWriter) { tw.read(0, 0, 2, 0, -1, 0) }), "reference 3"},
		{"inval class out of range", records(func(tw *TraceWriter) { tw.inval(0, 1, 2, uint8(stats.NumMissClasses)) }), "miss class"},
		{"epoch jump", records(func(tw *TraceWriter) { tw.epoch(2+maxEpochJump, 0) }), "epoch jumps"},
		{"reset epoch jump", records(func(tw *TraceWriter) { tw.reset(1<<40, 1) }), "epoch jumps"},
		{"negative epoch", records(func(tw *TraceWriter) { tw.epoch(-1, 0) }), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(bytes.NewReader(tc.trace))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Replay error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzTraceReader: arbitrary bytes, seeded with a real trace, must replay
// to a report or an error — never a panic — with bounded memory.
func FuzzTraceReader(f *testing.F) {
	seed, err := os.ReadFile("testdata/trfd.btrace")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(rawTrace(binary.AppendUvarint(nil, 1<<63+5)))
	f.Add(rawTrace(headerWith(1<<63, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Replay(bytes.NewReader(data)); err != nil {
			return
		}
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Replay accepted a trace NewTraceReader rejects: %v", err)
		}
		if tr.Meta().MemWords > machine.MaxMemWords || tr.Meta().Procs > machine.MaxProcs {
			t.Fatalf("accepted header out of bounds: %+v", *tr.Meta())
		}
	})
}
