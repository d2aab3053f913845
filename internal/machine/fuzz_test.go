package machine

import "testing"

// FuzzParseConfig asserts the config decoder never panics: any input
// under any scheme's defaults either fails to parse or yields a config
// that Validate accepts, whose canonical form and hash are computable
// and the same for the config and its canonical form.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(`{}`), uint8(0))
	f.Add([]byte(`{"Procs": 32, "LineWords": 8, "CacheWords": 32768}`), uint8(2))
	f.Add([]byte(`{"Topology": "mesh", "ClusterSize": 4, "Procs": 64}`), uint8(3))
	f.Add([]byte(`{"Scheme": "TARDIS2", "LeaseEpochs": 4, "LeaseMax": 16}`), uint8(6))
	f.Add([]byte(`{"L1Words": 64, "HostParallel": 4}`), uint8(2))
	// The extents of a data segment that overflows int64, as config values.
	f.Add([]byte(`{"Procs": 4294967296, "CacheWords": 3037000500, "L1Words": 3037000500}`), uint8(2))
	f.Add([]byte(`{"CacheWords": 9223372036854775807, "LineWords": 4294967296}`), uint8(1))
	f.Add([]byte("program p\nparam n = 4294967296\narray A[n][n]\narray B[4]\n"), uint8(0))
	f.Add([]byte(`{"Procs": 1} {"Procs": 2}`), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, scheme uint8) {
		cfg, err := ParseConfig(data, Default(AllSchemes[int(scheme)%len(AllSchemes)]))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseConfig accepted a config Validate rejects: %v\n%s", err, data)
		}
		h, err := cfg.Hash()
		if err != nil {
			t.Fatalf("Hash: %v", err)
		}
		if ch, err := cfg.Canonical().Hash(); err != nil || ch != h {
			t.Fatalf("the canonical form hashes to %s (%v), the config to %s", ch, err, h)
		}
	})
}
