package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestContentKeysPinned holds CompileKey and AnalysisKey to values
// recorded from the fmt-based implementation they replace: every cache
// key the svc tiers and the sweep fleet share must stay byte-identical.
func TestContentKeysPinned(t *testing.T) {
	srcs := []string{"", "param n = 4\narray A[n]\nproc main() { A[0] = 1 }\n", "h\u00e9llo\x00world"}
	opts := []core.CompileOptions{
		{},
		core.DefaultCompileOptions(),
		{Interproc: true, FirstReadReuse: false, AlignWords: 8, PadScalars: true},
		{Interproc: false, FirstReadReuse: true, AlignWords: -3},
		{Interproc: true, FirstReadReuse: true, AlignWords: 1 << 40, PadScalars: false},
	}
	for _, c := range []struct {
		src, opt          int
		compile, analysis string
	}{
		{0, 0, "a35f86b77aee64644fa40fd97f15858555e8299d89c3e71f03f57f23fe04c879", "3c9c0625d04bbf28fe35a7bd33d50e82e85c3d26030db8f48d10c8689e3fc63c"},
		{0, 1, "9cb7299de509f6186500f6f21ff416752173834ea2d268b1d8776b5e0951c125", "c26480f8567b1aedcb6f1183192816b3bfcc8171f2a5a52742bdfa0e8b67978d"},
		{0, 2, "4ca60fa2a7cee362be419c8c9d82de626b57b1af80864937d5bd1ddbcfcce456", "534f35d609299d25c43709ec34ec6d14a741118792d4613f31812d9eb4a67071"},
		{0, 3, "093bac118dabaea468f666fe7acf124a1ec3697a6c277a956fb56bf8c895ccbb", "608f492e859948508b15a0d876090ae04d07fa80a45c8e1b8d3329621e617c06"},
		{0, 4, "ac994738d009667ff307462d6f1b68a9cb68dcbbaacfb462ca43c52f4b95dfcc", "c26480f8567b1aedcb6f1183192816b3bfcc8171f2a5a52742bdfa0e8b67978d"},
		{1, 0, "7e5b9b3a1a21dc5cf5640476aa468f1a82322d48ad1d24ebdbae2c47b00bd889", "47245e7795c26e9a7aab904e51e181fc6dacd37a4d404cf84380d45154ed7488"},
		{1, 1, "79651950c78ac89fd9cfe87d85d9207bafcd4ca5b2ff6a0d9e0970b3fb27bcab", "fe06bacc45a6cdf0a4e2f04fc8173d18daefd5635a55df893476835baebfd8c6"},
		{1, 2, "09dff1caa7fe0b809cd071ebb8901839603002a0627a10aa699fd35c45b5a17c", "62b157915775e7de0ed233d9c5f37874e8301066d2c87f6ffbfa3f237c1efb0d"},
		{1, 3, "dd86b2e94624762974d649a0bb96ca94c03ae9d8eb79c82e9849f63c766951a7", "4c83e34123cba2a7c8cebe17b2302e7144108ff787818f8801ab55a351d9bbb7"},
		{1, 4, "3035663d4c66d55771c406ea52fc478a5b394bfb104633391b49fb2680233f1e", "fe06bacc45a6cdf0a4e2f04fc8173d18daefd5635a55df893476835baebfd8c6"},
		{2, 0, "b2fd4691361b615cce5fc65d269fa221674b3a2874f3565be16e76784bf39dc8", "c9e89043ffb4b2b32e85adb181719dc9f217c066517af367a1f0acc6ac1fd7ff"},
		{2, 1, "ab2737f7882ef326c19da0ed1320b266f8d47b0e6b62eb6c5e5c539d56ddc7bf", "c9fe7a682f691d8c517101a56ba6ff603034d6e8c33e6521bb8fee3b948431df"},
		{2, 2, "1b54b787e7bce8af299aa3836b26873dacfb4dcdd03df4a01c6fc01b13d9db65", "22295a9bf9e39d50f11adba99006f49dc1afd54d9f5056937c4f36f3c14d7aa6"},
		{2, 3, "6656d3d9a141487203ded34c106dfe60dd71f36db768a86ecd0cbf71c08aad48", "e102b84c2c8d548956e1ef203bfad77e4244b3e251d24b966e876acd8e68a76d"},
		{2, 4, "2ac345ce49a4fac953b8c940818698ec869e6caf04aaa5f55e5f68fd646b1d5b", "c9fe7a682f691d8c517101a56ba6ff603034d6e8c33e6521bb8fee3b948431df"},
	} {
		if got := core.CompileKey(srcs[c.src], opts[c.opt]); got != c.compile {
			t.Errorf("CompileKey(src %d, %+v) = %s, want %s", c.src, opts[c.opt], got, c.compile)
		}
		if got := core.AnalysisKey(srcs[c.src], opts[c.opt]); got != c.analysis {
			t.Errorf("AnalysisKey(src %d, %+v) = %s, want %s", c.src, opts[c.opt], got, c.analysis)
		}
	}
}

// TestContentKeyHashesInPlace: a key costs its one result string
// whatever the source's size; the source is never copied.
func TestContentKeyHashesInPlace(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("the race detector adds allocations")
	}
	src := strings.Repeat("x", 1<<20)
	opts := core.DefaultCompileOptions()
	for name, key := range map[string]func(string, core.CompileOptions) string{
		"CompileKey": core.CompileKey, "AnalysisKey": core.AnalysisKey,
	} {
		if n := testing.AllocsPerRun(20, func() { key(src, opts) }); n > 1 {
			t.Errorf("%s allocates %v times per call, want 1", name, n)
		}
	}
}
