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

// TestKernelFingerprintMemoised: asked again for the configuration it just
// hashed, KernelFingerprint returns the same value from its memo — it does
// not hash the scoring table again (the memo entry stays the one the first
// call stored) and allocates nothing. Another configuration still gets its
// own value.
func TestKernelFingerprintMemoised(t *testing.T) {
	cfg := ipukernel.Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256}, Traceback: true}
	first := KernelFingerprint(cfg)
	memo := lastKernelFP.Load()
	if got := KernelFingerprint(cfg); got != first {
		t.Fatalf("second call: %#x, first %#x", got, first)
	}
	if lastKernelFP.Load() != memo {
		t.Fatal("second call re-hashed: the memo entry was replaced")
	}
	if n := testing.AllocsPerRun(100, func() { KernelFingerprint(cfg) }); n != 0 {
		t.Fatalf("memoised call allocates %.0f times, want 0", n)
	}
	other := cfg
	other.Params.Scorer = scoring.NewSimple(1, -1) // equal contents, another table: hashed, same value
	if got := KernelFingerprint(other); got != first {
		t.Fatalf("equal table at another address: %#x, want %#x", got, first)
	}
	other.Params.X = 16
	if KernelFingerprint(other) == first || KernelFingerprint(cfg) != first {
		t.Fatal("the memo answered for a configuration it was not computed for")
	}
}
