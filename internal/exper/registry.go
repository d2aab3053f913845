package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// Entry binds an experiment id to its table builder.
type Entry struct {
	ID  string
	Run func() (*Table, error)
}

// Entries returns the full experiment registry in E-number order — the
// single list both cmd/experiments (sequential, in-process) and
// cmd/tpisweep (sharded across a tpiserved fleet via Suite.Exec) drive,
// so the two paths can never disagree about what an experiment id means.
func (s *Suite) Entries() []Entry {
	return []Entry{
		{"E1", s.E1StorageOverhead},
		{"E2", s.E2Parameters},
		{"E3", s.E3MissRates},
		{"E4", s.E4MissClassification},
		{"E5", s.E5NetworkTraffic},
		{"E6", s.E6MissLatency},
		{"E7", s.E7ExecutionTime},
		{"E8", s.E8TimetagSensitivity},
		{"E9", s.E9CacheSizeSweep},
		{"E10", s.E10LineSizeSweep},
		{"E11", s.E11ResetAblation},
		{"E12", s.E12Scalability},
		{"E13", s.E13CompilerAblations},
		{"E14", s.E14LimitedPointers},
		{"E15", s.E15ConsistencyModels},
		{"E16", s.E16SchedulingPolicies},
		{"E17", s.E17HSCDFamily},
		{"E18", s.E18WritePolicies},
		{"E19", s.E19OffTheShelf},
		{"E20", s.E20Topologies},
		{"E21", s.E21Toolchain},
		{"E22", s.E22TagGranularity},
		{"E23", s.E23Prefetch},
		{"E24", s.E24ScalarPadding},
		{"E25", s.E25TimeDecomposition},
		{"E26", s.E26LargePMesh},
		{"E27", s.E27LeaseSensitivity},
	}
}

// RunSelected runs the entries named in ids (case-insensitive; every
// entry when ids is empty) in E-number order and writes each table to w
// as it finishes: aligned text, or markdown when markdown is set. With
// jsonOut it instead writes one schema-versioned Results document after
// the last table. When outFile is non-empty the bytes written to w are
// also saved there. Per-experiment timings go to log. An unknown id
// fails before anything runs. cmd/experiments and cmd/tpisweep -exp
// both render through here, so their outputs cannot drift apart.
func (s *Suite) RunSelected(ids []string, markdown, jsonOut bool, w, log io.Writer, outFile string) error {
	entries := s.Entries()
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.ToUpper(id)
		if !slices.ContainsFunc(entries, func(e Entry) bool { return e.ID == id }) {
			return fmt.Errorf("unknown experiment id %q (want E1..E%d)", id, len(entries))
		}
		want[id] = true
	}

	var sink bytes.Buffer
	out := io.MultiWriter(w, &sink)
	results := Results{SchemaVersion: ResultsSchemaVersion, Params: s.Params, Procs: s.Procs}
	for _, e := range entries {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		tab, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case jsonOut:
			results.Experiments = append(results.Experiments, tab)
		case markdown:
			io.WriteString(out, tab.Markdown()+"\n")
		default:
			io.WriteString(out, tab.String()+"\n")
		}
		fmt.Fprintf(log, "(%s in %v)\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if jsonOut {
		data, err := json.MarshalIndent(&results, "", "  ")
		if err != nil {
			return err
		}
		out.Write(append(data, '\n'))
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, sink.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", outFile, err)
		}
		fmt.Fprintf(log, "wrote %s\n", outFile)
	}
	return nil
}
