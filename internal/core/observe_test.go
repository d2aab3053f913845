package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

func oceanCompiled(t *testing.T, cfg machine.Config) *Compiled {
	t.Helper()
	k, err := bench.Get("ocean", bench.Params{N: 16, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileForConfig(k.Source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observedConfigs are the memory-system variants the instrumentation
// cross-check runs against: every scheme plus the two-level TPI build.
func observedConfigs() []machine.Config {
	var cfgs []machine.Config
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 8
		cfgs = append(cfgs, cfg)
	}
	two := machine.Default(machine.SchemeTPI)
	two.Procs = 8
	two.L1Words = 1024
	cfgs = append(cfgs, two)
	return cfgs
}

// TestObservedCrossCheck is the acceptance check: the per-epoch
// miss-class counts in the attributed report (and in a decoded binary
// trace of the same run) sum exactly to the run's stats.Stats totals,
// for every scheme.
func TestObservedCrossCheck(t *testing.T) {
	for _, cfg := range observedConfigs() {
		name := cfg.Scheme.String()
		if cfg.L1Words > 0 {
			name += "+L1"
		}
		t.Run(name, func(t *testing.T) {
			c := oceanCompiled(t, cfg)
			var buf bytes.Buffer
			res, err := RunWithOptions(c, cfg, RunOptions{Trace: &buf})
			if err != nil {
				t.Fatal(err)
			}
			st, rep := res.Stats, res.Report
			if rep == nil {
				t.Fatal("no report")
			}
			checkReportAgainstStats(t, rep, st)

			// The decoded binary trace must replay to the identical report.
			replayed, err := obs.Replay(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !reflect.DeepEqual(replayed, rep) {
				t.Errorf("replayed report differs from live report")
			}
			checkReportAgainstStats(t, replayed, st)
		})
	}
}

func checkReportAgainstStats(t *testing.T, rep *obs.Report, st *stats.Stats) {
	t.Helper()
	if got, want := rep.ReadMissTotals(), st.ReadMisses; got != want {
		t.Errorf("per-epoch read-miss totals = %+v, stats say %+v", got, want)
	}
	if got, want := rep.WriteMissTotals(), st.WriteMisses; got != want {
		t.Errorf("per-epoch write-miss totals = %+v, stats say %+v", got, want)
	}
	var reads, writes, readHits, writeHits, stall int64
	for _, e := range rep.Epochs {
		reads += e.Reads
		writes += e.Writes
		readHits += e.ReadHits
		writeHits += e.WriteHits
		stall += e.ReadStallCycles
	}
	if reads != st.Reads || writes != st.Writes {
		t.Errorf("per-epoch reference totals %d/%d, stats say %d/%d", reads, writes, st.Reads, st.Writes)
	}
	if readHits != st.ReadHits || writeHits != st.WriteHits {
		t.Errorf("per-epoch hit totals %d/%d, stats say %d/%d", readHits, writeHits, st.ReadHits, st.WriteHits)
	}
	if stall != st.MissLatencySum {
		t.Errorf("per-epoch read stall %d, stats MissLatencySum %d", stall, st.MissLatencySum)
	}
	// Per-processor attribution must also cover every read.
	var procReads int64
	for _, p := range rep.Procs {
		procReads += p.Reads
	}
	if procReads != st.Reads {
		t.Errorf("per-proc reads %d, stats say %d", procReads, st.Reads)
	}
	// The latency histogram holds exactly one entry per read miss.
	var hist int64
	for _, b := range rep.Latency {
		hist += b.Count
	}
	if hist != st.TotalReadMisses() {
		t.Errorf("latency histogram holds %d misses, stats say %d", hist, st.TotalReadMisses())
	}
	// Every reference carries a static RefID, so per-reference miss
	// attribution must cover every classified miss.
	var refMisses int64
	for _, r := range rep.Refs {
		refMisses += r.Misses.Total()
	}
	if want := st.TotalReadMisses() + st.TotalWriteMisses(); refMisses != want {
		t.Errorf("per-ref misses %d, stats say %d", refMisses, want)
	}
}

// TestObservedDoesNotPerturb: instrumentation must not change the
// simulation — identical stats with and without the recorder.
func TestObservedDoesNotPerturb(t *testing.T) {
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8
	c := oceanCompiled(t, cfg)
	plain, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithOptions(c, cfg, RunOptions{Obs: obs.LevelCounters})
	if err != nil {
		t.Fatal(err)
	}
	observed := res.Stats
	if !reflect.DeepEqual(plain.Snapshot(), observed.Snapshot()) {
		t.Errorf("observed run diverges from plain run:\nplain    %+v\nobserved %+v",
			plain.Snapshot(), observed.Snapshot())
	}
}

// TestRunResultJSONSchema: the `tpisim -json` payload round-trips
// through the exported schema for every scheme (the golden shape check).
func TestRunResultJSONSchema(t *testing.T) {
	for _, cfg := range observedConfigs() {
		c := oceanCompiled(t, cfg)
		run, err := RunWithOptions(c, cfg, RunOptions{Obs: obs.LevelCounters})
		if err != nil {
			t.Fatal(err)
		}
		st := run.Stats
		res := NewRunResult("ocean", cfg, st, run.Report)
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg.Scheme, err)
		}
		var back RunResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg.Scheme, err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("%s: JSON round-trip changed the result", cfg.Scheme)
		}
		if back.Stats.Reads != st.Reads || back.Stats.ReadMisses != st.ReadMisses {
			t.Errorf("%s: stats schema dropped counters", cfg.Scheme)
		}
		if back.Stats.WriteMisses.Total() != st.TotalWriteMisses() {
			t.Errorf("%s: write-miss decomposition lost in JSON", cfg.Scheme)
		}
	}
}

// TestObsMetaRefs: the meta table is dense over the checker's RefIDs and
// carries marks and positions.
func TestObsMetaRefs(t *testing.T) {
	cfg := machine.Default(machine.SchemeTPI)
	c := oceanCompiled(t, cfg)
	m := BuildObsMeta(c, cfg)
	if len(m.Refs) != c.Info.NumRefs {
		t.Fatalf("meta has %d refs, checker assigned %d", len(m.Refs), c.Info.NumRefs)
	}
	missing := 0
	for _, r := range m.Refs {
		if r.Pos == "" {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d refs missing source positions", missing, len(m.Refs))
	}
	if len(m.Arrays) == 0 {
		t.Fatal("meta has no array spans")
	}
	for i := 1; i < len(m.Arrays); i++ {
		prev, cur := m.Arrays[i-1], m.Arrays[i]
		if cur.Base < prev.Base+prev.Size {
			t.Errorf("array spans overlap: %+v then %+v", prev, cur)
		}
	}
}
