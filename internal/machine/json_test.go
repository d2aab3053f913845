package machine

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseConfigOverrides(t *testing.T) {
	base := Default(SchemeTPI)
	cfg, err := ParseConfig([]byte(`{"Procs": 32, "LineWords": 8, "CacheWords": 32768}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 32 || cfg.LineWords != 8 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	// Untouched fields keep the base defaults.
	if cfg.TimetagBits != base.TimetagBits || cfg.Scheme != SchemeTPI {
		t.Fatalf("base fields clobbered: %+v", cfg)
	}
}

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	_, err := ParseConfig([]byte(`{"LineWord": 8}`), Default(SchemeTPI))
	if err == nil || !strings.Contains(err.Error(), "LineWord") {
		t.Fatalf("want unknown-field error naming LineWord, got %v", err)
	}
}

func TestParseConfigRejectsInvalid(t *testing.T) {
	for _, bad := range []string{
		`{"Procs": 0}`,
		`{"LineWords": 3}`,
		`{"Scheme": "XYZ"}`,
		`{"Topology": "hypercube"}`,
		`{} {}`,
		`[1,2]`,
		`{"CacheWords": 1073741824}`,
		`{"L1Words": 274877906944}`,
		`{"Procs": 16384, "CacheWords": 32768}`,
	} {
		if _, err := ParseConfig([]byte(bad), Default(SchemeTPI)); err == nil {
			t.Errorf("ParseConfig(%s) = nil error, want failure", bad)
		}
	}
	// The total-cache bound admits the paper's 64 KB cache at MaxProcs.
	if _, err := ParseConfig([]byte(`{"Procs": 16384}`), Default(SchemeTPI)); err != nil {
		t.Errorf("64 KB caches at MaxProcs: %v", err)
	}
}

// TestParseConfigLeaseDefaults: the lease bound holds between the
// values a Tardis run applies, so a zero field that takes its default
// cannot slip a config past Validate whose canonical form it rejects.
func TestParseConfigLeaseDefaults(t *testing.T) {
	for _, c := range []struct {
		json string
		ok   bool
	}{
		{`{"LeaseEpochs": 0, "LeaseMax": 3}`, false},   // default 8 exceeds 3
		{`{"LeaseEpochs": 300, "LeaseMax": 0}`, false}, // 300 exceeds the default 256
		{`{"LeaseEpochs": 0, "LeaseMax": 8}`, true},
		{`{"LeaseEpochs": 256, "LeaseMax": 0}`, true},
		{`{"LeaseEpochs": 0, "LeaseMax": 0}`, true},
	} {
		for _, scheme := range []Scheme{SchemeTardis, SchemeTardis2} {
			cfg, err := ParseConfig([]byte(c.json), Default(scheme))
			if (err == nil) != c.ok {
				t.Errorf("%v: ParseConfig(%s) error %v, want ok=%t", scheme, c.json, err, c.ok)
				continue
			}
			if err == nil {
				if err := cfg.Canonical().Validate(); err != nil {
					t.Errorf("%v: canonical form of %s: %v", scheme, c.json, err)
				}
			}
		}
	}
	// Other schemes ignore the lease fields, and Canonical leaves them.
	if _, err := ParseConfig([]byte(`{"LeaseEpochs": 0, "LeaseMax": 3}`), Default(SchemeTPI)); err != nil {
		t.Errorf("TPI: %v", err)
	}
}

func TestSchemeJSONRoundTrip(t *testing.T) {
	for _, s := range AllSchemes {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+s.String()+`"` {
			t.Fatalf("Scheme %v marshals to %s", s, b)
		}
		var got Scheme
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	// Legacy ordinal form still decodes.
	var got Scheme
	if err := json.Unmarshal([]byte("2"), &got); err != nil || got != SchemeTPI {
		t.Fatalf("ordinal decode: %v %v", got, err)
	}
}

// TestConfigCanonicalRoundTrip is the cache-key stability contract:
// parsing a config's canonical JSON yields the same canonical JSON, and
// equivalent spellings (zero vs explicit default) hash identically.
func TestConfigCanonicalRoundTrip(t *testing.T) {
	for _, s := range AllSchemes {
		cfg := Default(s)
		cfg.Procs = 8
		b, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		re, err := ParseConfig(b, Config{})
		if err != nil {
			t.Fatalf("%s: reparse canonical JSON: %v", s, err)
		}
		b2, err := re.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(b2) {
			t.Fatalf("%s: canonical JSON not a fixed point:\n%s\n%s", s, b, b2)
		}
	}
}

func TestConfigHashEquivalentSpellings(t *testing.T) {
	a := Default(SchemeTPI)
	b := Default(SchemeTPI)
	b.Topology = "multistage"
	b.MaxEpochs = DefaultMaxEpochs
	b.HostParallel = 1
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent configs hash differently: %s vs %s", ha, hb)
	}
	c := b
	c.LineWords = 8
	c.CacheWords = 16384
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("distinct configs share a hash")
	}
}
