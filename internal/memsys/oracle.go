package memsys

import (
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/stats"
)

// Oracle is the reference memory system: no caches, no latency, direct
// authoritative memory. Running a program on the Oracle with one
// processor yields the sequential-semantics result that every coherence
// scheme must reproduce bit-for-bit. Every reference goes to memory, so
// it counts as a bypass miss, as under BASE. Like every system it routes its
// references through lanes and streams through delegating cursors, so it
// runs on every execution path; core's oracle verification pins the
// sequential scalar one, keeping the reference independent of the fast
// paths.
type Oracle struct {
	*Core
}

// NewOracle builds the reference system.
func NewOracle(cfg machine.Config, memWords int64) *Oracle {
	o := &Oracle{Core: NewCore(cfg, memWords)}
	o.St.Scheme = "ORACLE"
	return o
}

// Name implements System.
func (o *Oracle) Name() string { return "ORACLE" }

// Read implements System.
func (o *Oracle) Read(p int, addr prog.Word, kind ReadKind, window int) (float64, int64) {
	ln := o.LaneFor(p)
	ln.St.Reads++
	ln.St.ReadMisses[stats.MissBypass]++
	return ln.Value(addr), 0
}

// Write implements System.
func (o *Oracle) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := o.LaneFor(p)
	ln.St.Writes++
	ln.St.WriteMisses[stats.MissBypass]++
	ln.Write(addr, val, p, o.Epoch)
	return 0
}

// EpochBoundary implements System.
func (o *Oracle) EpochBoundary(epoch int64) int64 {
	o.Epoch = epoch
	return 0
}

// InitReadCursor implements System: every read delegates to Read.
func (o *Oracle) InitReadCursor(c *ReadCursor, p int, kind ReadKind, window int, addr0 prog.Word) {
	o.InitUncachedReadCursor(c, o, p, kind, window)
}

// InitWriteCursor implements System: every write delegates to Write.
func (o *Oracle) InitWriteCursor(c *WriteCursor, p int, addr0 prog.Word) {
	*c = WriteCursor{Mode: StreamUncached, Sys: o, Ln: o.LaneFor(p), Proc: p}
}
