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
// consistently everywhere. The values were re-pinned on purpose when the
// schedule knobs (thread count, LR split, work stealing, busy-wait
// variance) left the fingerprint: base sets all three flags, and none of
// them reaches the key. The traced values were re-pinned again when the
// trace mode knob was deleted and stopped being hashed.
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
		{"score-only wide", func(c *Config) {}, 0x3d7e4d172a85a0f7},
		{"score-only narrow", func(c *Config) { c.Kernel.Params.Tier = core.TierNarrow }, 0x5872a57ea23db85e},
		{"score-only auto", func(c *Config) { c.Kernel.Params.Tier = core.TierAuto }, 0xf180852c855a02b5},
		{"traced", func(c *Config) { c.Traceback = true }, 0xd41faf7a0109873e},
		{"traced min-score 150", func(c *Config) { c.Traceback, c.Kernel.TraceMinScore = true, 150 }, 0x899cc05e38cd6010},
		{"blosum62 affine", func(c *Config) {
			c.Kernel.Params = core.Params{Scorer: scoring.Blosum62, Gap: -2, GapOpen: -10, X: 49, Algo: core.AlgoAffine}
		}, 0xb96c81bc1dba133b},
	}
	for _, tc := range cases {
		cfg := base
		tc.set(&cfg)
		cfg = cfg.Normalized()
		if got := KernelFingerprint(cfg.Kernel); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
