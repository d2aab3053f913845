package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON pins the stats digest of every simulation cell, so a change
// that only speeds up the simulator cannot silently change what it
// computes. The cells do not depend on the seed, so every seed checks
// them. Regenerate with -update-golden after a deliberate model change.
// The digests hold for amd64: other architectures may fuse
// multiply-adds and round differently.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// loadGolden decodes the embedded golden digests.
func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// writeGolden verifies every cell of every simulation workload, at both
// the full and the quick sizes, and writes their reference digests.
func writeGolden(path string) error {
	g := make(map[string]string)
	for _, quick := range []bool{false, true} {
		for _, spec := range simSpecs(quick) {
			b := newSimBench(spec, quick)
			if _, err := b.setup(); err != nil {
				return err
			}
			for k := range spec.kernels {
				for ni := range spec.ns {
					for _, c := range b.cells[k][ni] {
						d, err := referenceDigest(b.sources[k][ni], c.cfg)
						if err != nil {
							return fmt.Errorf("%s: %w", c.label, err)
						}
						g[c.label] = hex.EncodeToString(d[:])
					}
				}
			}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
