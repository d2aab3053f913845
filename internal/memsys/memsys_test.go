package memsys

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/stats"
)

func testCfg() machine.Config {
	c := machine.Default(machine.SchemeTPI)
	c.Procs = 2
	c.CacheWords = 64
	return c
}

func TestNewCoreRoundsMemoryToLines(t *testing.T) {
	c := testCfg()
	c.LineWords = 8
	core := NewCore(c, 13)
	if core.Memory.Size() != 16 {
		t.Fatalf("memory size = %d, want 16 (rounded to 8-word lines)", core.Memory.Size())
	}
}

func TestClassifyMissCold(t *testing.T) {
	core := NewCore(testCfg(), 64)
	tr := cache.NewTracker(64)
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissCold {
		t.Fatalf("unseen word: %v", got)
	}
}

func TestClassifyMissReplaceAndInval(t *testing.T) {
	core := NewCore(testCfg(), 64)
	tr := cache.NewTracker(64)
	tr.NoteCached(5)
	tr.NoteLost(5, cache.LostReplaced, 3)
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissReplace {
		t.Fatalf("replaced word: %v", got)
	}
	tr.NoteLost(5, cache.LostInvalTrue, 3)
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissTrueSharing {
		t.Fatalf("true inval: %v", got)
	}
	tr.NoteLost(5, cache.LostInvalFalse, 3)
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissFalseSharing {
		t.Fatalf("false inval: %v", got)
	}
}

func TestClassifyMissResetDependsOnActualChange(t *testing.T) {
	core := NewCore(testCfg(), 64)
	tr := cache.NewTracker(64)
	tr.NoteCached(5)
	tr.NoteLost(5, cache.LostReset, 3)
	// no write since tt=3: artifact of the reset -> conservative
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissConservative {
		t.Fatalf("fresh reset loss: %v", got)
	}
	core.Memory.Write(5, 1.0, 0, 7)
	if got := core.ClassifyMissLane(core.LaneFor(0), tr, 5); got != stats.MissTrueSharing {
		t.Fatalf("stale reset loss: %v", got)
	}
}

func TestMissFillTimetagsAndEviction(t *testing.T) {
	cfg := testCfg()
	core := NewCore(cfg, 256)
	cc := cache.New(cfg.CacheWords, cfg.LineWords, cfg.Assoc)
	tr := cache.NewTracker(core.Memory.Size())
	core.Memory.InitWord(8, 2.5)

	line, w := core.FillLane(core.LaneFor(0), cc, tr, 9, 10, 9)
	if w != 1 || line.TT[1] != 10 {
		t.Fatalf("accessed word tt = %d at %d", line.TT[1], w)
	}
	if line.TT[0] != 9 || line.TT[2] != 9 || line.TT[3] != 9 {
		t.Fatalf("neighbour tts = %v", line.TT)
	}
	if line.Vals[0] != 2.5 {
		t.Fatal("fill must bring memory data")
	}
	for i := 0; i < 4; i++ {
		if !tr.Seen(prog.Word(8 + i)) {
			t.Fatalf("word %d not tracked", 8+i)
		}
	}

	// Conflicting fill evicts and records replacement losses.
	core.FillLane(core.LaneFor(0), cc, tr, 9+64, 11, 10)
	r, tt := tr.Lost(9)
	if r != cache.LostReplaced || tt != 10 {
		t.Fatalf("eviction loss = %v/%d", r, tt)
	}
}

func TestLatencyHelpers(t *testing.T) {
	core := NewCore(testCfg(), 64)
	line, word := core.LineMissLatencyFor(1, 0), core.WordMissLatencyFor(1, 0)
	if line <= core.Cfg.MissCycles {
		t.Fatal("line miss latency must include network time")
	}
	if word >= line {
		t.Fatal("word fetch must be cheaper than line fetch")
	}
}

func TestOracleSemantics(t *testing.T) {
	cfg := testCfg()
	o := NewOracle(cfg, 64)
	o.EpochBoundary(3)
	if stall := o.Write(1, 10, 2.5, false); stall != 0 {
		t.Fatal("oracle writes are free")
	}
	v, stall := o.Read(0, 10, ReadTime, 0)
	if v != 2.5 || stall != 0 {
		t.Fatalf("oracle read = %v/%d", v, stall)
	}
	if o.Memory.LastWriteEpoch(10) != 3 {
		t.Fatal("oracle must keep provenance")
	}
	if o.Name() != "ORACLE" {
		t.Fatal("name")
	}
}

func TestReadKindString(t *testing.T) {
	if ReadRegular.String() != "regular-read" || ReadTime.String() != "time-read" ||
		ReadBypass.String() != "bypass-read" {
		t.Fatal("ReadKind strings")
	}
}

func TestCacheSetLazyAndReleased(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(true)
	if cc, _ := core.CacheOf(1); cc != nil {
		t.Fatal("a processor's cache set must not exist before its first reference")
	}
	cc, tr := core.ProcState(1)
	if cc == nil || tr == nil || core.caches[1].wb == nil {
		t.Fatal("ProcState must build the cache, tracker and write buffer")
	}
	if again, _ := core.ProcState(1); again != cc {
		t.Fatal("ProcState must return the built set")
	}
	if cc0, _ := core.CacheOf(0); cc0 != nil {
		t.Fatal("building P1's set must not build P0's")
	}
	core.ReleaseCaches()
	if core.caches != nil {
		t.Fatal("ReleaseCaches must nil the cache sets")
	}
}

func TestWriteBackCachesBuildNoWriteBuffers(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(false)
	core.ProcState(0)
	if core.caches[0].wb != nil {
		t.Fatal("a cache set without write buffers must not build one")
	}
	core.ReleaseCaches()
}

func TestOracleBuildsNoCaches(t *testing.T) {
	o := NewOracle(testCfg(), 64)
	o.Write(0, 3, 1.5, false)
	o.Read(1, 3, ReadRegular, 0)
	if o.caches != nil || o.Caches() != nil {
		t.Fatal("the Oracle must build no caches")
	}
}

// TestStoreLaneHitMissAndCoalescing pins the write-validate store: a
// cold miss claims a frame and validates only the written word, a
// rewrite hits, and the cache-organized write buffer coalesces it.
func TestStoreLaneHitMissAndCoalescing(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(true)
	core.Epoch = 3
	ln := core.LaneFor(0)
	if stall := core.StoreLane(ln, 0, 9, 1.5, 3, false, false); stall != 0 {
		t.Fatalf("weak-consistency store stalled %d", stall)
	}
	cc, _ := core.ProcState(0)
	line, w, ok := cc.Lookup(9)
	if !ok || line.TT[w] != 3 || line.Vals[w] != 1.5 || !line.Used[w] {
		t.Fatal("the store must validate the written word with its timetag")
	}
	if line.ValidWord(0) {
		t.Fatal("write-validate must not fetch the neighbours")
	}
	core.StoreLane(ln, 0, 9, 2.5, 3, false, false)
	st := &core.St
	if st.Writes != 2 || st.WriteHits != 1 || st.WriteMisses[stats.MissCold] != 1 {
		t.Fatalf("writes/hits/cold = %d/%d/%d, want 2/1/1", st.Writes, st.WriteHits, st.WriteMisses[stats.MissCold])
	}
	if st.WriteTrafficWords != 1 || st.WritesCoalesced != 1 {
		t.Fatalf("traffic/coalesced = %d/%d, want 1/1", st.WriteTrafficWords, st.WritesCoalesced)
	}
	if core.Memory.Read(9) != 2.5 {
		t.Fatal("the store must reach memory")
	}
}

// TestStoreLaneTimetagRules pins the two timetag rules: promote keeps a
// newer tag, assignment overwrites it.
func TestStoreLaneTimetagRules(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(true)
	ln := core.LaneFor(0)
	core.StoreLane(ln, 0, 9, 1, 7, true, false)
	core.StoreLane(ln, 0, 9, 2, 5, true, false)
	cc, _ := core.ProcState(0)
	if line, w, _ := cc.Lookup(9); line.TT[w] != 7 {
		t.Fatalf("promote rule lowered the tag to %d", line.TT[w])
	}
	core.StoreLane(ln, 0, 9, 3, 5, false, false)
	if line, w, _ := cc.Lookup(9); line.TT[w] != 5 {
		t.Fatalf("assignment rule left the tag at %d", line.TT[w])
	}
}

// TestStoreLaneWriteBackEviction pins the write-back policy: the store
// marks its word dirty instead of writing through, and a conflicting
// claim records the victim's loss and charges its dirty word.
func TestStoreLaneWriteBackEviction(t *testing.T) {
	cfg := testCfg()
	core := NewCore(cfg, 256)
	core.EnableCaches(true)
	ln := core.LaneFor(0)
	core.StoreLane(ln, 0, 9, 1, 1, true, true)
	if core.St.WriteTrafficWords != 0 {
		t.Fatal("a write-back store must not write through")
	}
	cc, tr := core.ProcState(0)
	if line, w, _ := cc.Lookup(9); !line.DirtyW[w] {
		t.Fatal("a write-back store must mark its word dirty")
	}
	core.StoreLane(ln, 0, 9+prog.Word(cfg.CacheWords), 2, 1, true, true)
	if r, tt := tr.Lost(9); r != cache.LostReplaced || tt != 1 {
		t.Fatalf("victim loss = %v/%d, want replaced/1", r, tt)
	}
	if core.St.WriteTrafficWords != 1 {
		t.Fatalf("evicted dirty words charged %d, want 1", core.St.WriteTrafficWords)
	}
}

func TestStoreLaneSeqConsistencyStall(t *testing.T) {
	cfg := testCfg()
	cfg.SeqConsistency = true
	core := NewCore(cfg, 256)
	core.EnableCaches(true)
	ln := core.LaneFor(0)
	lat := core.WordMissLatencyFor(0, 9)
	if stall := core.StoreLane(ln, 0, 9, 1, 0, false, false); stall != lat {
		t.Fatalf("miss stall = %d, want %d", stall, lat)
	}
	if stall := core.StoreLane(ln, 0, 9, 2, 0, false, false); stall != lat {
		t.Fatalf("hit stall = %d, want %d", stall, lat)
	}
	if core.St.WriteMissLatencySum != lat {
		t.Fatalf("write-miss latency sum = %d, want only the miss's %d", core.St.WriteMissLatencySum, lat)
	}
}

func TestStoreCriticalSelfInvalidates(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(true)
	ln := core.LaneFor(0)
	core.StoreLane(ln, 0, 9, 1, 2, false, false)
	core.StoreCritical(ln, 0, 9)
	cc, tr := core.ProcState(0)
	if line, w, ok := cc.Lookup(9); ok && line.ValidWord(w) {
		t.Fatal("a critical store must drop the writer's copy")
	}
	if r, tt := tr.Lost(9); r != cache.LostInvalTrue || tt != 2 {
		t.Fatalf("loss = %v/%d, want true-sharing invalidation/2", r, tt)
	}
	if core.St.WriteMisses[stats.MissBypass] != 1 || core.St.WriteTrafficWords != 2 {
		t.Fatal("a critical store is an uncoalesced bypass write")
	}
}

func TestBypassReadRefreshesCachedCopy(t *testing.T) {
	core := NewCore(testCfg(), 256)
	core.EnableCaches(true)
	ln := core.LaneFor(0)
	core.StoreLane(ln, 0, 9, 1, 0, false, false)
	core.Memory.Write(9, 4, 1, 0) // another processor's store
	v, lat := core.BypassRead(ln, 0, 9)
	if v != 4 || lat != core.WordMissLatencyFor(0, 9) {
		t.Fatalf("bypass read = %v/%d", v, lat)
	}
	cc, _ := core.ProcState(0)
	if line, w, _ := cc.Lookup(9); line.Vals[w] != 4 {
		t.Fatal("a bypass read must refresh the cached copy's value")
	}
	if core.St.ReadMisses[stats.MissBypass] != 1 || core.St.ReadTrafficWords != 1 {
		t.Fatal("a bypass read is a one-word bypass miss")
	}
}

func TestClassifiedHelpersRecoverTheClass(t *testing.T) {
	o := NewOracle(testCfg(), 64)
	if _, _, class := ReadClassified(o, &o.St, 0, 3, ReadRegular, 0); class != int8(stats.MissBypass) {
		t.Fatalf("oracle read class = %d, want bypass", class)
	}
	if _, class := WriteClassified(o, &o.St, 0, 3, 1, false); class != int8(stats.MissBypass) {
		t.Fatalf("oracle write class = %d, want bypass", class)
	}
	hit := new(stats.ClassCounts)
	if missClass(true, hit, hit) != -1 || missClass(false, hit, hit) != -1 {
		t.Fatal("a hit, or no counter moved, is class -1")
	}
}
