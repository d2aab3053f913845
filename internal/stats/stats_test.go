package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRates(t *testing.T) {
	var s Stats
	s.Scheme = "TPI"
	s.Reads = 100
	s.ReadHits = 90
	s.ReadMisses[MissCold] = 4
	s.ReadMisses[MissTrueSharing] = 3
	s.ReadMisses[MissConservative] = 2
	s.ReadMisses[MissBypass] = 1
	if s.TotalReadMisses() != 10 {
		t.Fatalf("total misses = %d", s.TotalReadMisses())
	}
	if s.MissRate() != 0.10 {
		t.Fatalf("miss rate = %f", s.MissRate())
	}
	if s.UnnecessaryMisses() != 2 {
		t.Fatalf("unnecessary = %d", s.UnnecessaryMisses())
	}
	s.MissLatencySum = 1000
	if s.AvgMissLatency() != 100 {
		t.Fatalf("avg latency = %f", s.AvgMissLatency())
	}
}

func TestZeroDivisionSafety(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.AvgMissLatency() != 0 {
		t.Fatal("empty stats must not divide by zero")
	}
}

func TestTraffic(t *testing.T) {
	var s Stats
	s.ReadTrafficWords = 10
	s.WriteTrafficWords = 20
	s.CoherenceTrafficWords = 5
	if s.TotalTraffic() != 35 {
		t.Fatalf("traffic = %d", s.TotalTraffic())
	}
}

func TestStringIncludesClasses(t *testing.T) {
	var s Stats
	s.Scheme = "TPI"
	s.Reads = 10
	s.ReadMisses[MissConservative] = 2
	s.TimetagResets = 1
	out := s.String()
	for _, want := range []string{"TPI", "conservative=2", "resets=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMissDecomposition(t *testing.T) {
	var s Stats
	s.Writes = 50
	s.WriteHits = 40
	s.WriteMisses[MissCold] = 6
	s.WriteMisses[MissTrueSharing] = 3
	s.WriteMisses[MissBypass] = 1
	if s.TotalWriteMisses() != 10 {
		t.Fatalf("total write misses = %d", s.TotalWriteMisses())
	}
	if s.WriteMissRate() != 0.20 {
		t.Fatalf("write miss rate = %f", s.WriteMissRate())
	}
	s.WriteMissLatencySum = 500
	if s.AvgWriteMissLatency() != 50 {
		t.Fatalf("avg write miss latency = %f", s.AvgWriteMissLatency())
	}
	out := s.String()
	for _, want := range []string{"wmisses:", "cold=6", "bypass=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	// Zero-division safety and silence when there are no write misses.
	var z Stats
	if z.WriteMissRate() != 0 || z.AvgWriteMissLatency() != 0 {
		t.Fatal("empty stats must not divide by zero")
	}
	if strings.Contains(z.String(), "wmisses:") {
		t.Error("String() should omit the wmisses line when there are none")
	}
}

func TestClassCountsRoundTrip(t *testing.T) {
	var c ClassCounts
	c[MissCold] = 1
	c[MissReplace] = 2
	c[MissTrueSharing] = 3
	c[MissFalseSharing] = 4
	c[MissConservative] = 5
	c[MissLeaseExpired] = 7
	c[MissBypass] = 6
	if c.Total() != 28 {
		t.Fatalf("Total() = %d", c.Total())
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"cold":1,"replace":2,"trueSharing":3,"falseSharing":4,"conservative":5,"leaseExpired":7,"bypass":6}`
	if string(b) != want {
		t.Fatalf("Marshal = %s, want %s", b, want)
	}
	var back ClassCounts
	if err := json.Unmarshal(b, &back); err != nil || back != c {
		t.Fatalf("Unmarshal = %v, %v; want %v", back, err, c)
	}
	// Like a tagged struct: null and missing keys keep the counts, keys
	// match case-insensitively, unknown keys are ignored, and a
	// non-integer is an error.
	if err := json.Unmarshal([]byte(`null`), &back); err != nil || back != c {
		t.Fatalf("null: %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"COLD":9,"other":[1,{"a":2}]}`), &back); err != nil || back[MissCold] != 9 || back[MissBypass] != 6 {
		t.Fatalf("partial object: %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"cold":1.5}`), &back); err == nil {
		t.Fatal("fractional count accepted")
	}
	var sum ClassCounts
	sum.Add(c)
	sum.Add(c)
	if sum.Total() != 2*c.Total() || sum[MissLeaseExpired] != 14 {
		t.Fatalf("Add: %v", sum)
	}
}

// TestStatsAddCoversEveryCounter: Add is the host-parallel barrier
// merge, written field by field; a counter it leaves out is silently
// lost. Adding a fully populated Stats into a zero one must reproduce
// every counter.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var o Stats
	fillDistinct(&o)
	var s Stats
	s.Add(&o)
	s.Scheme, s.ProcBusy = o.Scheme, o.ProcBusy
	if !reflect.DeepEqual(s, o) {
		t.Fatalf("Add dropped counters:\n got %+v\nwant %+v", s, o)
	}
}

func TestSnapshotMirrorsStats(t *testing.T) {
	var s Stats
	s.Scheme = "TPI"
	s.Reads = 100
	s.ReadHits = 90
	s.ReadMisses[MissConservative] = 10
	s.Writes = 40
	s.WriteHits = 30
	s.WriteMisses[MissCold] = 10
	s.MissLatencySum = 700
	s.Cycles = 12345
	s.ProcBusy = []int64{10, 20}
	snap := s.Snapshot()
	if snap.Scheme != "TPI" || snap.Reads != 100 || snap.Writes != 40 {
		t.Fatalf("snapshot basics: %+v", snap)
	}
	if snap.ReadMisses != s.ReadMisses || snap.WriteMisses != s.WriteMisses {
		t.Fatal("snapshot miss decomposition differs from stats")
	}
	if snap.MissRate != s.MissRate() || snap.WriteMissRate != s.WriteMissRate() {
		t.Fatal("snapshot rates differ from stats")
	}
	if snap.Cycles != 12345 || len(snap.ProcBusy) != 2 {
		t.Fatalf("snapshot timing: %+v", snap)
	}
}

func TestMissClassStrings(t *testing.T) {
	want := map[MissClass]string{
		MissCold:         "cold",
		MissReplace:      "replace",
		MissTrueSharing:  "true-sharing",
		MissFalseSharing: "false-sharing",
		MissConservative: "conservative",
		MissLeaseExpired: "lease-expired",
		MissBypass:       "bypass",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d = %s, want %s", c, c, w)
		}
	}
	if len(ClassTable) != len(want) {
		t.Error("ClassTable out of sync")
	}
}

func TestImbalance(t *testing.T) {
	var s Stats
	if s.Imbalance() != 0 {
		t.Fatal("no data -> 0")
	}
	s.ProcBusy = []int64{100, 100, 100, 100}
	if got := s.Imbalance(); got != 1.0 {
		t.Fatalf("balanced = %f", got)
	}
	s.ProcBusy = []int64{400, 0, 0, 0}
	if got := s.Imbalance(); got != 4.0 {
		t.Fatalf("one-proc = %f", got)
	}
}

// TestClassTableCoversEveryClass: every MissClass has exactly one row,
// and no two rows share a name or JSON key.
func TestClassTableCoversEveryClass(t *testing.T) {
	var seen [NumMissClasses]bool
	names, keys := map[string]bool{}, map[string]bool{}
	for _, ci := range ClassTable {
		if seen[ci.Class] || names[ci.Name] || keys[ci.Key] {
			t.Errorf("duplicate row %+v", ci)
		}
		seen[ci.Class], names[ci.Name], keys[ci.Key] = true, true, true
	}
}
