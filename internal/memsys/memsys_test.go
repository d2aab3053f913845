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
	if got := core.ClassifyMiss(tr, 5); got != stats.MissCold {
		t.Fatalf("unseen word: %v", got)
	}
}

func TestClassifyMissReplaceAndInval(t *testing.T) {
	core := NewCore(testCfg(), 64)
	tr := cache.NewTracker(64)
	tr.NoteCached(5)
	tr.NoteLost(5, cache.LostReplaced, 3)
	if got := core.ClassifyMiss(tr, 5); got != stats.MissReplace {
		t.Fatalf("replaced word: %v", got)
	}
	tr.NoteLost(5, cache.LostInvalTrue, 3)
	if got := core.ClassifyMiss(tr, 5); got != stats.MissTrueSharing {
		t.Fatalf("true inval: %v", got)
	}
	tr.NoteLost(5, cache.LostInvalFalse, 3)
	if got := core.ClassifyMiss(tr, 5); got != stats.MissFalseSharing {
		t.Fatalf("false inval: %v", got)
	}
}

func TestClassifyMissResetDependsOnActualChange(t *testing.T) {
	core := NewCore(testCfg(), 64)
	tr := cache.NewTracker(64)
	tr.NoteCached(5)
	tr.NoteLost(5, cache.LostReset, 3)
	// no write since tt=3: artifact of the reset -> conservative
	if got := core.ClassifyMiss(tr, 5); got != stats.MissConservative {
		t.Fatalf("fresh reset loss: %v", got)
	}
	core.Memory.Write(5, 1.0, 0, 7)
	if got := core.ClassifyMiss(tr, 5); got != stats.MissTrueSharing {
		t.Fatalf("stale reset loss: %v", got)
	}
}

func TestMissFillTimetagsAndEviction(t *testing.T) {
	cfg := testCfg()
	core := NewCore(cfg, 256)
	cc := cache.New(cfg.CacheWords, cfg.LineWords, cfg.Assoc)
	tr := cache.NewTracker(core.Memory.Size())
	core.Memory.InitWord(8, 2.5)

	line, w := core.MissFill(cc, tr, 9, 10, 9)
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
	core.MissFill(cc, tr, 9+64, 11, 10)
	r, tt := tr.Lost(9)
	if r != cache.LostReplaced || tt != 10 {
		t.Fatalf("eviction loss = %v/%d", r, tt)
	}
}

func TestLatencyHelpers(t *testing.T) {
	core := NewCore(testCfg(), 64)
	if core.LineMissLatency() <= core.Cfg.MissCycles {
		t.Fatal("line miss latency must include network time")
	}
	if core.WordMissLatency() >= core.LineMissLatency() {
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
