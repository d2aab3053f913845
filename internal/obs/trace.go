package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// Binary trace format
//
//	magic    8 bytes "TPITRC1\n"
//	header   uvarint length, then the Meta payload (see encodeMeta)
//	records  uvarint length, then an opcode byte and its fields
//	         (all integers are unsigned varints; strings are
//	         uvarint-length-prefixed UTF-8)
//
// Record payloads:
//
//	OpEpoch  epoch, startCycle
//	OpRead   proc, addr, kind, class+1 (0 = hit), stall, ref+1 (0 = none)
//	OpWrite  proc, addr, crit, class+1, stall, ref+1
//	OpReset  epoch, invalidatedWords
//	OpInval  writer, victim, addr, class
//	OpEnd    totalReads, totalWrites, totalCycles
//
// The stream is self-describing (the header carries the scheme, the
// array map, and the source-reference table) and ends with OpEnd, whose
// totals let a reader verify it saw every event.
//
// The reader treats its input as untrusted: a corrupt or hostile stream
// yields an error, never a panic, and decoding memory stays bounded.
// Header and record fields are checked against the header's machine
// (processors, data segment, reference table) and the encodings' ranges.

// maxEpochJump bounds how far an epoch record may run ahead of the
// highest epoch seen so far. The simulator announces epochs one by one;
// replay keeps a row per epoch, so an unbounded jump would let one record
// allocate without limit.
const maxEpochJump = 64

// Op identifies a trace record type.
type Op uint8

const (
	// OpEpoch marks the barrier that begins an epoch.
	OpEpoch Op = 1
	// OpRead is one read reference.
	OpRead Op = 2
	// OpWrite is one write reference.
	OpWrite Op = 3
	// OpReset is a timetag reset phase.
	OpReset Op = 4
	// OpInval is one directory invalidation (writer → victim).
	OpInval Op = 5
	// OpEnd terminates the stream with run totals.
	OpEnd Op = 6
)

func (o Op) String() string {
	switch o {
	case OpEpoch:
		return "epoch"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReset:
		return "reset"
	case OpInval:
		return "inval"
	case OpEnd:
		return "end"
	default:
		return "?"
	}
}

// Event is one decoded trace record; fields beyond Op are meaningful per
// the record type (see the format comment above).
type Event struct {
	Op     Op
	Epoch  int64 // OpEpoch, OpReset
	Cycle  int64 // OpEpoch: cumulative cycles at the barrier; OpEnd: total
	Proc   int   // OpRead/OpWrite issuer; OpInval victim
	Addr   int64
	Kind   uint8 // OpRead: memsys.ReadKind
	Class  int8  // miss class, -1 = cache hit
	Crit   bool
	Stall  int64
	Ref    int32 // static reference ID, -1 = none
	Words  int64 // OpReset: invalidated words
	From   int   // OpInval: writing processor
	Reads  int64 // OpEnd totals
	Writes int64
}

var traceMagic = [8]byte{'T', 'P', 'I', 'T', 'R', 'C', '1', '\n'}

// TraceWriter encodes the binary event stream through an internal
// buffered writer. Errors are sticky and surface at Flush.
type TraceWriter struct {
	bw      *bufio.Writer
	scratch []byte
	lenBuf  [binary.MaxVarintLen64]byte // reused; a local would escape into bw.Write
	err     error
}

// NewTraceWriter writes the magic and header for meta and returns the
// encoder.
func NewTraceWriter(w io.Writer, meta *Meta) (*TraceWriter, error) {
	t := &TraceWriter{bw: bufio.NewWriterSize(w, 1<<16), scratch: make([]byte, 0, 256)}
	if _, err := t.bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	t.emit(encodeMeta(meta))
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

// emit writes one length-prefixed block.
func (t *TraceWriter) emit(payload []byte) {
	if t.err != nil {
		return
	}
	n := binary.PutUvarint(t.lenBuf[:], uint64(len(payload)))
	if _, err := t.bw.Write(t.lenBuf[:n]); err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(payload); err != nil {
		t.err = err
	}
}

func (t *TraceWriter) epoch(epoch, cycle int64) {
	b := t.scratch[:0]
	b = append(b, byte(OpEpoch))
	b = binary.AppendUvarint(b, uint64(epoch))
	b = binary.AppendUvarint(b, uint64(cycle))
	t.scratch = b
	t.emit(b)
}

func (t *TraceWriter) read(proc int, addr int64, ref int32, kind uint8, class int8, stall int64) {
	b := t.scratch[:0]
	b = append(b, byte(OpRead))
	b = binary.AppendUvarint(b, uint64(proc))
	b = binary.AppendUvarint(b, uint64(addr))
	b = append(b, kind, byte(class+1))
	b = binary.AppendUvarint(b, uint64(stall))
	b = binary.AppendUvarint(b, uint64(ref+1))
	t.scratch = b
	t.emit(b)
}

func (t *TraceWriter) write(proc int, addr int64, ref int32, crit bool, class int8, stall int64) {
	b := t.scratch[:0]
	b = append(b, byte(OpWrite))
	b = binary.AppendUvarint(b, uint64(proc))
	b = binary.AppendUvarint(b, uint64(addr))
	c := byte(0)
	if crit {
		c = 1
	}
	b = append(b, c, byte(class+1))
	b = binary.AppendUvarint(b, uint64(stall))
	b = binary.AppendUvarint(b, uint64(ref+1))
	t.scratch = b
	t.emit(b)
}

func (t *TraceWriter) reset(epoch, words int64) {
	b := t.scratch[:0]
	b = append(b, byte(OpReset))
	b = binary.AppendUvarint(b, uint64(epoch))
	b = binary.AppendUvarint(b, uint64(words))
	t.scratch = b
	t.emit(b)
}

func (t *TraceWriter) inval(writer, victim int, addr int64, class uint8) {
	b := t.scratch[:0]
	b = append(b, byte(OpInval))
	b = binary.AppendUvarint(b, uint64(writer))
	b = binary.AppendUvarint(b, uint64(victim))
	b = binary.AppendUvarint(b, uint64(addr))
	b = append(b, class)
	t.scratch = b
	t.emit(b)
}

func (t *TraceWriter) end(reads, writes, cycles int64) {
	b := t.scratch[:0]
	b = append(b, byte(OpEnd))
	b = binary.AppendUvarint(b, uint64(reads))
	b = binary.AppendUvarint(b, uint64(writes))
	b = binary.AppendUvarint(b, uint64(cycles))
	t.scratch = b
	t.emit(b)
}

// Flush drains the buffer and reports the first encoding error.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

func encodeMeta(m *Meta) []byte {
	b := make([]byte, 0, 256)
	b = appendString(b, m.Program)
	b = appendString(b, m.Scheme)
	b = binary.AppendUvarint(b, uint64(m.Procs))
	b = binary.AppendUvarint(b, uint64(m.LineWords))
	b = binary.AppendUvarint(b, uint64(m.MemWords))
	b = binary.AppendUvarint(b, uint64(len(m.Arrays)))
	for _, a := range m.Arrays {
		b = appendString(b, a.Name)
		b = binary.AppendUvarint(b, uint64(a.Base))
		b = binary.AppendUvarint(b, uint64(a.Size))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Refs)))
	for _, r := range m.Refs {
		b = appendString(b, r.Pos)
		b = appendString(b, r.Proc)
		b = appendString(b, r.Array)
		b = appendString(b, r.Mark)
		b = binary.AppendUvarint(b, uint64(r.Window))
		w := byte(0)
		if r.Write {
			w = 1
		}
		b = append(b, w)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// TraceReader decodes a binary event trace.
type TraceReader struct {
	br    *bufio.Reader
	meta  Meta
	buf   []byte
	epoch int64 // highest epoch seen so far
}

// NewTraceReader checks the magic and decodes the header.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	t := &TraceReader{br: bufio.NewReaderSize(r, 1<<16)}
	var magic [8]byte
	if _, err := io.ReadFull(t.br, magic[:]); err != nil {
		return nil, fmt.Errorf("obs: trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("obs: not a TPI trace (magic %q)", magic[:])
	}
	payload, err := t.block()
	if err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	t.meta = m
	return t, nil
}

// Meta returns the run description from the trace header.
func (t *TraceReader) Meta() *Meta { return &t.meta }

// block reads one length-prefixed payload into the shared buffer.
func (t *TraceReader) block() ([]byte, error) {
	n, err := binary.ReadUvarint(t.br)
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("oversized record (%d bytes)", n)
	}
	if uint64(cap(t.buf)) < n {
		t.buf = make([]byte, n)
	}
	t.buf = t.buf[:n]
	if _, err := io.ReadFull(t.br, t.buf); err != nil {
		return nil, err
	}
	return t.buf, nil
}

// Next decodes the next record; it returns io.EOF after OpEnd (or at a
// cleanly truncated stream boundary).
func (t *TraceReader) Next() (Event, error) {
	payload, err := t.block()
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("obs: trace record: %w", err)
	}
	d := decoder{b: payload}
	m := &t.meta
	var ev Event
	ev.Op = Op(d.byte())
	switch ev.Op {
	case OpEpoch:
		ev.Epoch = d.int()
		ev.Cycle = d.int()
		t.checkEpoch(&d, ev.Epoch)
	case OpRead:
		ev.Proc = int(d.below(d.int(), int64(m.Procs), "processor"))
		ev.Addr = d.below(d.int(), m.MemWords, "address")
		ev.Kind = uint8(d.below(int64(d.byte()), int64(memsys.ReadBypass)+1, "read kind"))
		ev.Class = int8(d.below(int64(d.byte()), int64(stats.NumMissClasses)+1, "miss class")) - 1
		ev.Stall = d.int()
		ev.Ref = int32(d.below(d.int(), int64(len(m.Refs))+1, "reference")) - 1
	case OpWrite:
		ev.Proc = int(d.below(d.int(), int64(m.Procs), "processor"))
		ev.Addr = d.below(d.int(), m.MemWords, "address")
		ev.Crit = d.byte() != 0
		ev.Class = int8(d.below(int64(d.byte()), int64(stats.NumMissClasses)+1, "miss class")) - 1
		ev.Stall = d.int()
		ev.Ref = int32(d.below(d.int(), int64(len(m.Refs))+1, "reference")) - 1
	case OpReset:
		ev.Epoch = d.int()
		ev.Words = d.int()
		t.checkEpoch(&d, ev.Epoch)
	case OpInval:
		ev.From = int(d.below(d.int(), int64(m.Procs), "processor"))
		ev.Proc = int(d.below(d.int(), int64(m.Procs), "processor"))
		ev.Addr = d.below(d.int(), m.MemWords, "address")
		ev.Class = int8(d.below(int64(d.byte()), int64(stats.NumMissClasses), "miss class"))
	case OpEnd:
		ev.Reads = d.int()
		ev.Writes = d.int()
		ev.Cycle = d.int()
	default:
		return Event{}, fmt.Errorf("obs: unknown trace opcode %d", ev.Op)
	}
	if d.err != nil {
		return Event{}, fmt.Errorf("obs: %s record: %w", ev.Op, d.err)
	}
	return ev, nil
}

// checkEpoch bounds an epoch record's jump past the highest epoch seen.
func (t *TraceReader) checkEpoch(d *decoder, epoch int64) {
	if d.err != nil {
		return
	}
	if epoch > t.epoch+maxEpochJump {
		d.err = fmt.Errorf("epoch jumps from %d to %d", t.epoch, epoch)
		return
	}
	t.epoch = max(t.epoch, epoch)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) byte() uint8 {
	if d.err != nil || len(d.b) == 0 {
		d.setErr()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// int decodes a uvarint field; every encoded field is non-negative, so
// values past math.MaxInt64 are corrupt.
func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.setErr()
		return 0
	}
	d.b = d.b[n:]
	if v > math.MaxInt64 {
		d.err = fmt.Errorf("value %d out of range", v)
		return 0
	}
	return int64(v)
}

// below checks that a decoded field lies in [0, n).
func (d *decoder) below(v, n int64, what string) int64 {
	if d.err == nil && v >= n {
		d.err = fmt.Errorf("%s %d out of range [0, %d)", what, v, n)
		return 0
	}
	return v
}

// count decodes a length or element count: each element takes at least
// one payload byte, so a count beyond the bytes left is corrupt.
func (d *decoder) count() int64 {
	n := d.int()
	return d.below(n, int64(len(d.b))+1, "length")
}

func (d *decoder) setErr() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated payload")
	}
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func decodeMeta(payload []byte) (Meta, error) {
	d := decoder{b: payload}
	var m Meta
	m.Program = d.string()
	m.Scheme = d.string()
	m.Procs = int(d.below(d.int(), machine.MaxProcs+1, "processor count"))
	m.LineWords = int(d.int())
	m.MemWords = d.below(d.int(), machine.MaxMemWords+1, "data segment words")
	nArrays := d.count()
	var end int64 // arrays are sorted, disjoint, and inside the segment
	for i := int64(0); i < nArrays && d.err == nil; i++ {
		var a ArraySpan
		a.Name = d.string()
		a.Base = d.int()
		a.Size = d.int()
		if d.err == nil && (a.Base < end || a.Size > m.MemWords-a.Base) {
			d.err = fmt.Errorf("array %q [%d, +%d) overlaps its predecessor or leaves the %d-word segment",
				a.Name, a.Base, a.Size, m.MemWords)
		}
		end = a.Base + a.Size
		m.Arrays = append(m.Arrays, a)
	}
	nRefs := d.count()
	for i := int64(0); i < nRefs && d.err == nil; i++ {
		var r RefInfo
		r.Pos = d.string()
		r.Proc = d.string()
		r.Array = d.string()
		r.Mark = d.string()
		r.Window = int(d.int())
		r.Write = d.byte() != 0
		m.Refs = append(m.Refs, r)
	}
	return m, d.err
}

// Replay decodes a trace and rebuilds the attributed Report from its
// events, exactly as the live Recorder would have. The OpEnd totals are
// cross-checked against the replayed event counts.
func Replay(r io.Reader) (*Report, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	a, err := newAgg(*tr.Meta())
	if err != nil {
		return nil, err
	}
	var reads, writes int64
	var end *Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Op {
		case OpEpoch:
			a.epochStart(ev.Epoch, ev.Cycle)
		case OpRead:
			reads++
			a.read(ev.Proc, ev.Addr, ev.Ref, ev.Class, ev.Stall)
			a.refCount(ev.Ref)
			a.arrayRead(ev.Addr)
		case OpWrite:
			writes++
			a.write(ev.Proc, ev.Addr, ev.Ref, ev.Class)
			a.refCount(ev.Ref)
		case OpReset:
			a.reset(ev.Epoch, ev.Words)
		case OpInval:
			a.inval()
		case OpEnd:
			e := ev
			end = &e
		}
		if end != nil {
			break
		}
	}
	rep := a.report()
	if end != nil {
		rep.TotalCycles = end.Cycle
		if end.Reads != reads || end.Writes != writes {
			return rep, fmt.Errorf("obs: trace totals mismatch: trailer %d reads / %d writes, replayed %d / %d",
				end.Reads, end.Writes, reads, writes)
		}
	}
	return rep, nil
}
