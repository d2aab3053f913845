package obs

import (
	"unsafe"

	"repro/internal/prog"
)

// Sink receives per-reference instrumentation events. The live Recorder
// implements it for sequential execution; inside a host-parallel epoch
// each simulated processor records into its own ShardRecorder, and the
// shards are drained into the Recorder at the barrier in (processor,
// sequence) order — so the attributed counters and the binary trace are
// bit-identical to a sequential run under static block scheduling, and
// deterministic (processor-major within the epoch) under cyclic
// scheduling.
type Sink interface {
	// Read records one read reference; class < 0 means cache hit.
	Read(proc int, addr prog.Word, ref int32, kind uint8, class int8, stall int64)
	// Write records one write reference; class < 0 means cache hit.
	Write(proc int, addr prog.Word, ref int32, crit bool, class int8, stall int64)
}

// shardEvent is one buffered reference event.
type shardEvent struct {
	addr  prog.Word
	stall int64
	ref   int32
	proc  int32
	kind  uint8
	class int8
	write bool
	crit  bool
}

// ShardRecorder buffers one simulated processor's reference events during
// a host-parallel epoch. It is used by exactly one goroutine at a time
// and keeps its backing array across epochs.
type ShardRecorder struct {
	events []shardEvent
}

// Read implements Sink.
func (s *ShardRecorder) Read(proc int, addr prog.Word, ref int32, kind uint8, class int8, stall int64) {
	s.events = append(s.events, shardEvent{
		addr: addr, stall: stall, ref: ref, proc: int32(proc), kind: kind, class: class,
	})
}

// Write implements Sink.
func (s *ShardRecorder) Write(proc int, addr prog.Word, ref int32, crit bool, class int8, stall int64) {
	s.events = append(s.events, shardEvent{
		addr: addr, stall: stall, ref: ref, proc: int32(proc), class: class, write: true, crit: crit,
	})
}

// Len reports the number of buffered events.
func (s *ShardRecorder) Len() int { return len(s.events) }

// Reset empties the shard without draining it, keeping its buffer for
// reuse, and reports the bytes that buffer holds.
func (s *ShardRecorder) Reset() int64 {
	s.events = s.events[:0]
	return int64(cap(s.events)) * int64(unsafe.Sizeof(shardEvent{}))
}

// Drain replays a shard's buffered events into the recorder in recording
// order and resets the shard for reuse. All accumulator updates are
// integer sums, so draining shards in processor order reproduces the
// sequential counters exactly and emits a deterministic trace.
func (r *Recorder) Drain(sh *ShardRecorder) {
	for i := range sh.events {
		e := &sh.events[i]
		if e.write {
			r.Write(int(e.proc), e.addr, e.ref, e.crit, e.class, e.stall)
		} else {
			r.Read(int(e.proc), e.addr, e.ref, e.kind, e.class, e.stall)
		}
	}
	sh.events = sh.events[:0]
}
