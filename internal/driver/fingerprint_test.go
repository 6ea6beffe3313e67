package driver

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// TestKernelFingerprintValuesPinned pins KernelFingerprint's literal
// values: they are the result-cache keys, so a refactor of where a knob
// is set must not move them. The inequality tests (TestKernelFingerprint,
// TestKernelFingerprintSeparatesTiers) cannot catch a key that moves
// consistently everywhere.
func TestKernelFingerprintValuesPinned(t *testing.T) {
	base := Config{
		IPUs: 1, Model: platform.GC200,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
		},
	}
	cases := []struct {
		name string
		set  func(c *Config)
		want uint64
	}{
		{"score-only wide", func(c *Config) {}, 0xc9004f4c686bd77e},
		{"score-only narrow", func(c *Config) { c.Kernel.Params.Tier = core.TierNarrow }, 0x78ddf0b64ca4c017},
		{"score-only auto", func(c *Config) { c.Kernel.Params.Tier = core.TierAuto }, 0x29002dcce2f7493c},
		{"traced auto", func(c *Config) { c.Traceback = true }, 0x3b7e70f0acc58c86},
		{"traced min-score 150", func(c *Config) { c.Traceback, c.Kernel.TraceMinScore = true, 150 }, 0x33c45acb887e0c98},
		{"traced replay", func(c *Config) { c.Traceback, c.Kernel.TraceMode = true, core.TraceModeReplay }, 0x8dc5bbdac8fab51f},
		{"traced fused", func(c *Config) { c.Traceback, c.Kernel.TraceMode = true, core.TraceModeFused }, 0xe8dd666bbbc0fe44},
		{"blosum62 affine", func(c *Config) {
			c.Kernel.Params = core.Params{Scorer: scoring.Blosum62, Gap: -2, GapOpen: -10, X: 49, Algo: core.AlgoAffine}
		}, 0x0f1ac57ec5b538e6},
	}
	for _, tc := range cases {
		cfg := base
		tc.set(&cfg)
		cfg = cfg.Normalized()
		if got := KernelFingerprint(cfg.Kernel, cfg.Model); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
