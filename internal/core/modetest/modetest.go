// Package modetest is the cross-mode run harness of the test suites.
//
// The paper asks one thing of every coherence scheme: a program leaves
// the same final memory on every machine. The simulator adds a promise
// of its own: its execution modes — the sequential scalar walk, the
// affine stream fast path, host-parallel epochs, and the instrumentation
// layer — change nothing a run reports. Check runs one compiled program
// under one configuration in every mode, verifies each run against the
// sequential oracle, and returns the first difference between two modes.
//
// The package also holds the list of scheme variants the suites sweep
// (Variants) and the generator of random programs (Program).
package modetest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Variant is one memory system core.NewSystem builds: a scheme and, for
// two-level TPI, the on-chip L1 in front of the timetagged cache.
type Variant struct {
	Name     string
	Scheme   machine.Scheme
	TwoLevel bool
}

// Variants is every memory system core.NewSystem builds: the seven
// schemes plus two-level TPI.
var Variants = []Variant{
	{"BASE", machine.SchemeBase, false},
	{"SC", machine.SchemeSC, false},
	{"TPI", machine.SchemeTPI, false},
	{"TPI2L", machine.SchemeTPI, true},
	{"HW", machine.SchemeHW, false},
	{"VC", machine.SchemeVC, false},
	{"TARDIS", machine.SchemeTardis, false},
	{"TARDIS2", machine.SchemeTardis2, false},
}

// Config is v's default configuration on procs processors. l1Words
// sizes the two-level variant's L1; the other variants ignore it.
func (v Variant) Config(procs int, l1Words int64) machine.Config {
	cfg := machine.Default(v.Scheme)
	cfg.Procs = procs
	if v.TwoLevel {
		cfg.L1Words = l1Words
	}
	return cfg
}

// mode is one execution mode.
type mode struct {
	stream  bool // machine.Config.FastPath
	hostPar int  // machine.Config.HostParallel; 0 walks epochs on one goroutine
	level   obs.Level
}

// modes are the modes Check runs, the reference first: sequential
// scalar, stream, host-parallel 4 and stream plus host-parallel 4,
// unobserved and then at obs counters.
var modes = func() []mode {
	var ms []mode
	for _, level := range []obs.Level{obs.LevelOff, obs.LevelCounters} {
		for _, hostPar := range []int{0, 4} {
			for _, stream := range []bool{false, true} {
				ms = append(ms, mode{stream, hostPar, level})
			}
		}
	}
	return ms
}()

func (m mode) String() string {
	s := "sequential-scalar"
	switch {
	case m.stream && m.hostPar > 1:
		s = fmt.Sprintf("stream+hostpar%d", m.hostPar)
	case m.stream:
		s = "stream"
	case m.hostPar > 1:
		s = fmt.Sprintf("hostpar%d", m.hostPar)
	}
	if m.level != obs.LevelOff {
		s += "/" + m.level.String()
	}
	return s
}

func (m mode) config(cfg machine.Config) machine.Config {
	cfg.FastPath, cfg.HostParallel = m.stream, m.hostPar
	return cfg
}

// RunFunc runs one program under cfg and opts, as core.RunWithOptions
// does for a compiled program.
type RunFunc func(cfg machine.Config, opts core.RunOptions) (core.Result, error)

// Check runs c under cfg in every mode, each verified against the
// sequential oracle, with cfg's FastPath and HostParallel replaced by
// the mode's. Every run must match the sequential-scalar run in stats
// snapshot JSON and final memory hash, and the sequential-scalar run at
// its obs level in obs report; the first difference is an error naming
// both modes. Check returns the reference run's key: its snapshot JSON
// and memory hash.
func Check(c *core.Compiled, cfg machine.Config) (string, error) {
	return CheckRuns(func(cfg machine.Config, opts core.RunOptions) (core.Result, error) {
		return core.RunWithOptions(c, cfg, opts)
	}, cfg)
}

// CheckRuns is Check over any run function, so a system core.NewSystem
// does not build runs through the same modes.
func CheckRuns(run RunFunc, cfg machine.Config) (string, error) {
	var ref, levelRef outcome
	var levelMode mode
	for i, m := range modes {
		res, err := run(m.config(cfg), core.RunOptions{Obs: m.level, Memory: true, Verify: true})
		if err != nil {
			return "", fmt.Errorf("%s: %w", m, err)
		}
		got, err := outcomeOf(res)
		if err != nil {
			return "", fmt.Errorf("%s: %w", m, err)
		}
		if i == 0 {
			ref = got
		}
		if i == 0 || m.level != modes[i-1].level {
			levelRef, levelMode = got, m
		}
		if d := firstDiff(ref.snap, got.snap); d != "" {
			return "", fmt.Errorf("%s and %s: stats snapshots differ %s", modes[0], m, d)
		}
		if ref.mem != got.mem {
			return "", fmt.Errorf("%s and %s: final memory hashes differ: %s and %s", modes[0], m, ref.mem, got.mem)
		}
		if d := reportDiff(levelRef.report, got.report); d != "" {
			return "", fmt.Errorf("%s and %s: obs reports differ %s", levelMode, m, d)
		}
	}
	return string(ref.snap) + " " + ref.mem, nil
}

// CheckTrace runs c under cfg with the binary event trace on, in each
// unobserved mode, each verified against the sequential oracle. Every
// trace run must match the sequential-scalar run at obs counters in
// stats snapshot JSON, final memory hash and obs report, so the trace
// level reports what the counters level does; and every trace must
// replay to its run's live report. The sequential modes must write
// byte-equal traces, so only the first of them is replayed; a
// host-parallel trace may differ, since under cyclic scheduling it is
// reordered processor-major.
func CheckTrace(c *core.Compiled, cfg machine.Config) error {
	return checkTrace(func(cfg machine.Config, opts core.RunOptions) (core.Result, error) {
		return core.RunWithOptions(c, cfg, opts)
	}, cfg)
}

func checkTrace(run RunFunc, cfg machine.Config) error {
	refMode := mode{level: obs.LevelCounters}
	res, err := run(refMode.config(cfg), core.RunOptions{Obs: refMode.level, Memory: true, Verify: true})
	if err != nil {
		return fmt.Errorf("%s: %w", refMode, err)
	}
	ref, err := outcomeOf(res)
	if err != nil {
		return fmt.Errorf("%s: %w", refMode, err)
	}
	var refTrace []byte
	for i, m := range modes {
		if m.level != obs.LevelOff {
			continue
		}
		var buf bytes.Buffer
		res, err := run(m.config(cfg), core.RunOptions{Trace: &buf, Memory: true, Verify: true})
		if err != nil {
			return fmt.Errorf("%s/trace: %w", m, err)
		}
		got, err := outcomeOf(res)
		if err != nil {
			return fmt.Errorf("%s/trace: %w", m, err)
		}
		if d := firstDiff(ref.snap, got.snap); d != "" {
			return fmt.Errorf("%s and %s/trace: stats snapshots differ %s", refMode, m, d)
		}
		if ref.mem != got.mem {
			return fmt.Errorf("%s and %s/trace: final memory hashes differ: %s and %s", refMode, m, ref.mem, got.mem)
		}
		if d := reportDiff(ref.report, got.report); d != "" {
			return fmt.Errorf("%s and %s/trace: obs reports differ %s", refMode, m, d)
		}
		if i > 0 {
			if bytes.Equal(refTrace, buf.Bytes()) {
				continue
			}
			if m.hostPar <= 1 {
				return fmt.Errorf("%s/trace and %s/trace: trace streams differ (%d and %d bytes)",
					modes[0], m, len(refTrace), buf.Len())
			}
		}
		replayed, err := obs.Replay(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("%s/trace: replay: %w", m, err)
		}
		if d := reportDiff(got.report, replayed); d != "" {
			return fmt.Errorf("%s/trace: the replayed report differs from the live one %s", m, d)
		}
		if i == 0 {
			refTrace = buf.Bytes()
		}
	}
	return nil
}

// outcome is what Check compares of one run.
type outcome struct {
	snap   []byte // stats snapshot JSON
	mem    string // final memory hash
	report *obs.Report
}

func outcomeOf(res core.Result) (outcome, error) {
	snap, err := json.Marshal(res.Stats.Snapshot())
	return outcome{snap, MemHash(res.Memory), res.Report}, err
}

// reportDiff describes where report b first differs from a in JSON, or
// returns "" when they are equal. Reports are large, so they are
// encoded only when they differ.
func reportDiff(a, b *obs.Report) string {
	if reflect.DeepEqual(a, b) {
		return ""
	}
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	if err := errors.Join(aerr, berr); err != nil {
		return fmt.Sprintf("(%v)", err)
	}
	return firstDiff(aj, bj)
}

// firstDiff describes where b first differs from a, with some context,
// or returns "" when they are equal.
func firstDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(s []byte) []byte {
		return s[max(i-40, 0):min(i+40, len(s))]
	}
	return fmt.Sprintf("at byte %d:\n  %s\n  %s", i, window(a), window(b))
}

// MemHash is a SHA-256 over a memory image's float64 bits.
func MemHash(mem []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mem {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
