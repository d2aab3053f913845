package stats

import (
	"encoding/json"
	"reflect"
	"strconv"
)

// ClassCounts is a per-miss-class counter array indexed by MissClass.
// It marshals as a JSON object keyed by the ClassTable keys, in report
// order: {"cold":…,"replace":…,…,"bypass":…}.
type ClassCounts [NumMissClasses]int64

// Total sums all classes.
func (c ClassCounts) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Add accumulates o into c class by class.
func (c *ClassCounts) Add(o ClassCounts) {
	for i := range c {
		c[i] += o[i]
	}
}

// MarshalJSON writes the object form, keys in report order.
func (c ClassCounts) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 24*NumMissClasses), '{')
	for i, ci := range ClassTable {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, ci.Key...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, c[ci.Class], 10)
	}
	return append(b, '}'), nil
}

// classFields is a struct type with one int64 field per ClassTable row,
// tagged with the row's JSON key. UnmarshalJSON decodes through it, so
// ClassCounts accepts exactly what a struct with those tags accepts
// (missing keys and null keep the current counts).
var classFields = func() reflect.Type {
	fs := make([]reflect.StructField, len(ClassTable))
	for i, ci := range ClassTable {
		fs[i] = reflect.StructField{
			Name: "C" + strconv.Itoa(i),
			Type: reflect.TypeFor[int64](),
			Tag:  reflect.StructTag(`json:"` + ci.Key + `"`),
		}
	}
	return reflect.StructOf(fs)
}()

// UnmarshalJSON reads the object form MarshalJSON writes.
func (c *ClassCounts) UnmarshalJSON(b []byte) error {
	v := reflect.New(classFields)
	for i, ci := range ClassTable {
		v.Elem().Field(i).SetInt(c[ci.Class])
	}
	if err := json.Unmarshal(b, v.Interface()); err != nil {
		return err
	}
	for i, ci := range ClassTable {
		c[ci.Class] = v.Elem().Field(i).Int()
	}
	return nil
}

// Snapshot is the machine-readable form of Stats used by `tpisim -json`
// and the experiments JSON output. It embeds the Stats counter groups,
// so its counters are Stats' counters; the derived rates between them
// are precomputed so consumers need no formulas.
type Snapshot struct {
	Scheme string `json:"scheme"`

	RefCounts

	MissRate       float64 `json:"missRate"`
	WriteMissRate  float64 `json:"writeMissRate"`
	AvgMissLatency float64 `json:"avgMissLatency"`

	EventCounts

	ProcBusy  []int64 `json:"procBusy,omitempty"`
	Imbalance float64 `json:"imbalance"`
}

// Restore converts a snapshot back into the counter struct it was taken
// from. Every Snapshot field is either a Stats counter (copied back
// verbatim) or a rate derived from those counters (recomputed by the
// Stats methods on demand), so restore is lossless:
// sn.Restore().Snapshot() == sn for any snapshot a (*Stats).Snapshot
// call produced. The distributed sweep path depends on this — a remote
// worker's RunResult feeds the same experiment table builders that
// consume local *Stats, and the rendered rows come out byte-identical.
func (sn *Snapshot) Restore() *Stats {
	return &Stats{Scheme: sn.Scheme, RefCounts: sn.RefCounts, EventCounts: sn.EventCounts, ProcBusy: sn.ProcBusy}
}

// Snapshot converts the run's counters to the exported JSON schema.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Scheme:         s.Scheme,
		RefCounts:      s.RefCounts,
		MissRate:       s.MissRate(),
		WriteMissRate:  s.WriteMissRate(),
		AvgMissLatency: s.AvgMissLatency(),
		EventCounts:    s.EventCounts,
		ProcBusy:       s.ProcBusy,
		Imbalance:      s.Imbalance(),
	}
}
