package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/stats"
)

// kernelT compiles a built-in kernel at the given size.
func kernelT(t *testing.T, name string, p bench.Params) *Compiled {
	t.Helper()
	k, err := bench.Get(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return compileT(t, k.Source)
}

// TestAlternatingExtentsIdentical: runs reuse the last run's memory
// image at whatever extent the next program asks for. Alternating two
// programs of different extents (ocean, trfd, ocean, trfd) under every
// scheme gives each program the stats and final memory of its first
// run.
func TestAlternatingExtentsIdentical(t *testing.T) {
	p := bench.Params{N: 16, Steps: 2}
	progs := []*Compiled{kernelT(t, "ocean", p), kernelT(t, "trfd", p)}
	if progs[0].Prog.MemWords == progs[1].Prog.MemWords {
		t.Fatal("the two programs must differ in extent")
	}
	base := machine.Default(machine.SchemeBase)
	base.Procs = 8
	variants := append(laneVariants(), struct {
		name string
		cfg  machine.Config
	}{"BASE", base})
	for _, v := range variants {
		var want [2]string
		for i := 0; i < 4; i++ {
			res, err := RunWithOptions(progs[i%2], v.cfg, RunOptions{Memory: true})
			if err != nil {
				t.Fatalf("%s run %d: %v", v.name, i, err)
			}
			got := snapshotKey(t, res.Stats.Snapshot()) + " " + memHash(res.Memory)
			if i < 2 {
				want[i] = got
			} else if got != want[i%2] {
				t.Fatalf("%s: run %d on a reused image differs from the first run:\nfirst %s\nnow   %s",
					v.name, i, want[i%2], got)
			}
		}
	}
}

// TestSecondReleaseIsNoop: releasing a system twice returns nothing to
// the free lists the second time, and leaves its memory unreachable.
func TestSecondReleaseIsNoop(t *testing.T) {
	c := compileT(t, stencilSrc)
	for _, v := range laneVariants() {
		sys, err := NewSystem(v.cfg, c.Prog)
		if err != nil {
			t.Fatal(err)
		}
		sys.ReleaseCaches()
		if sys.Mem() != nil {
			t.Fatalf("%s: a released system still holds its memory image", v.name)
		}
		base := cache.Retained()
		sys.ReleaseCaches()
		if got := cache.Retained(); got != base {
			t.Fatalf("%s: a second release moved Retained from %d to %d", v.name, base, got)
		}
	}
}

// TestSteadyStateRunReusesMemory: once warm, a run allocates fewer bytes
// than its memory's value image alone (MemWords × 8), so the image, its
// provenance and the caches all come from the free lists.
func TestSteadyStateRunReusesMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := kernelT(t, "trfd", bench.Params{N: 56, Steps: 2})
	cfg := machine.Default(machine.SchemeTPI)
	run := func() {
		if _, err := Run(c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perRun, image := (m1.TotalAlloc-m0.TotalAlloc)/runs, uint64(c.Prog.MemWords)*8
	t.Logf("%d bytes per run; value image %d bytes", perRun, image)
	if perRun >= image {
		t.Fatalf("a warm run allocates %d bytes, not less than its %d-byte value image", perRun, image)
	}
}

// TestOracleCompareInPlace: verification compares the oracle's final
// memory where it lies, so a warm verified run of a 256K-word program
// allocates less than one value image (2 MB) beyond a plain run.
func TestOracleCompareInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := compileT(t, wideSrc)
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8
	bytesPerRun := func(run func(*Compiled, machine.Config) (*stats.Stats, error)) uint64 {
		if _, err := run(c, cfg); err != nil {
			t.Fatal(err)
		}
		const runs = 4
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := run(c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	plain, verified := bytesPerRun(Run), bytesPerRun(VerifyAgainstOracle)
	image := uint64(c.Prog.MemWords) * 8
	t.Logf("%d bytes per plain run, %d per verified run; value image %d bytes", plain, verified, image)
	if verified >= plain+image {
		t.Fatalf("a warm verified run allocates %d bytes beyond a plain run, not less than the %d-byte value image",
			verified-plain, image)
	}
}

// wideSrc has a 256K-word array of which its DOALL touches eight words.
const wideSrc = `
program wide
array A[262144]
array B[4]

proc main() {
  doall i = 0 to 7 {
    A[i * 1024] = i
    B[i / 2] = i
  }
}
`

// TestVCRunRetainsNothingPerWord: a compiled program outlives its runs
// (the job server caches it), so what a run leaves on it must be sized
// by the program text, not by its data segment. After VC runs of a
// program with a 256K-word array, every slice and map reachable from
// the Compiled holds far fewer elements than the segment has words.
func TestVCRunRetainsNothingPerWord(t *testing.T) {
	c := compileT(t, wideSrc)
	cfg := machine.Default(machine.SchemeVC)
	cfg.Procs = 8
	for i := 0; i < 2; i++ {
		if _, err := Run(c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	got := reachableElems(reflect.ValueOf(c), map[uintptr]bool{})
	if limit := c.Prog.MemWords / 16; got >= limit {
		t.Fatalf("the Compiled holds %d slice and map elements after VC runs; want fewer than %d (MemWords %d / 16)",
			got, limit, c.Prog.MemWords)
	}
}

// reachableElems sums the lengths of every slice and map reachable from
// v, visiting each pointer, map and slice backing array once.
func reachableElems(v reflect.Value, seen map[uintptr]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return 0
			}
			seen[v.Pointer()] = true
		}
		return reachableElems(v.Elem(), seen)
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += reachableElems(v.Field(i), seen)
		}
		return n
	case reflect.Array:
		var n int64
		for i := 0; i < v.Len(); i++ {
			n += reachableElems(v.Index(i), seen)
		}
		return n
	case reflect.Slice:
		if v.Len() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := int64(v.Len())
		for i := 0; i < v.Len(); i++ {
			n += reachableElems(v.Index(i), seen)
		}
		return n
	case reflect.Map:
		if v.Len() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := int64(v.Len())
		for it := v.MapRange(); it.Next(); {
			n += reachableElems(it.Key(), seen) + reachableElems(it.Value(), seen)
		}
		return n
	}
	return 0
}
